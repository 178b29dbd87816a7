"""Deterministic random-stream management.

All randomness in the package flows through numpy's counter-based Philox
generator.  Each sampling role (community labels, parent edges, child
subsampling, vertex permutations, ...) gets its own stream derived from a
user seed plus a fixed role code via ``SeedSequence``, so adding a new
consumer of randomness never perturbs the draws of existing ones.

Trial seeds inside parameter sweeps are derived with a splitmix64 chain over
the packed cell parameters and the trial index.  A trial's stream therefore
depends only on the cell's identity and trial number, never on the order in
which cells are enumerated.
"""

from __future__ import annotations

import struct

import numpy as np

from .graphs import _require_integer

# Role codes for the per-purpose streams.  Frozen: changing any of these
# changes every sampled instance.
ROLE_LABELS = 0
ROLE_PARENT_EDGES = 1
ROLE_SUBSAMPLE = 2
ROLE_PERMUTATIONS = 3
ROLE_PAIR_CLASSES = 4
ROLE_UNION_SPLIT = 5
ROLE_INIT_VECTOR = 6
ROLE_EDGE_HOLDOUT = 7

_MASK64 = (1 << 64) - 1


def stream(seed: int, role: int) -> np.random.Generator:
    """Return the generator for one ``(seed, role)`` pair.

    Streams for distinct roles under the same seed are statistically
    independent; the same pair always yields the same stream.  ``seed``
    must be a whole number of at least 0.
    """
    seq = np.random.SeedSequence((_require_integer("seed", seed, 0), int(role)))
    return np.random.Generator(np.random.Philox(seq))


def splitmix64(x: int) -> int:
    """One splitmix64 step (Steele et al. constants); stable across platforms."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def fold_bytes(h: int, data: bytes) -> int:
    """Fold ``data`` into a running splitmix64 hash, eight bytes at a time."""
    for off in range(0, len(data), 8):
        word = int.from_bytes(data[off : off + 8], "little")
        h = splitmix64((h ^ word) & _MASK64)
    return h


def cell_key(n: int, a: float, b: float, s: float, K: int, k: int) -> int:
    """64-bit identity of a sweep cell, built from the parameter values only."""
    data = struct.pack("<q3dqq", int(n), float(a), float(b), float(s), int(K), int(k))
    return fold_bytes(splitmix64(0), data)


def trial_seed(master_seed: int, cell: int, trial_index: int) -> int:
    """Per-trial seed mixing the master seed, cell identity and trial index."""
    h = splitmix64(int(master_seed) & _MASK64)
    h = splitmix64(h ^ (int(cell) & _MASK64))
    h = splitmix64(h ^ (int(trial_index) & _MASK64))
    return h
