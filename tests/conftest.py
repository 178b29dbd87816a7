"""Shared test helpers: brute-force oracles, tiny random graphs, retention codes
and an edge-list reader.

The oracles here are written independently of the library code paths they
check, on purpose: ``kcore_oracle`` enumerates every vertex subset instead
of peeling, and ``erdos_renyi`` draws edges one coin at a time.  The
``power_init`` fixture runs the pipeline on the power-iteration init that
the pins recorded before the Lanczos one still describe, and the
``retained_sampler`` fixture on the retention-draw sampler that the pins
recorded before the union-first one describe.
"""

from pathlib import Path

import numpy as np
import pytest
from graph_algebra import almost_exact_label as power_iteration_label
from graph_algebra import sample_instance as retention_draw_sampler

from csbm import generate, harness, recovery
from csbm.graphs import Graph, _member


@pytest.fixture
def power_init(monkeypatch):
    """Swap the power-iteration init of ``graph_algebra`` into the pipeline and ``recovery``."""
    monkeypatch.setattr(harness, "almost_exact_label", power_iteration_label)
    monkeypatch.setattr(recovery, "almost_exact_label", power_iteration_label)


@pytest.fixture
def retained_sampler(monkeypatch):
    """Swap the retention-draw sampler of ``graph_algebra`` into the pipeline and ``generate``."""
    monkeypatch.setattr(harness, "sample_instance", retention_draw_sampler)
    monkeypatch.setattr(generate, "sample_instance", retention_draw_sampler)


def kcore_oracle(g: Graph, k: int) -> frozenset:
    """k-core as the union of all subsets with min internal degree >= k.

    Exponential in the vertex count; only use on graphs with at most ~14
    vertices.  The union of two valid subsets is valid, so the union of all
    of them is the unique maximal one, which is the core.
    """
    n = g.n
    if n > 16:
        raise ValueError("oracle is exponential; keep graphs small")
    nbr_bits = [0] * n
    for u, v in g.edges.tolist():
        nbr_bits[u] |= 1 << v
        nbr_bits[v] |= 1 << u
    best = 0
    for subset in range(1 << n):
        ok = True
        rest = subset
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if (nbr_bits[i] & subset).bit_count() < k:
                ok = False
                break
        if ok:
            best |= subset
    return frozenset(v for v in range(n) if best >> v & 1)


def erdos_renyi(n: int, p: float, rng: np.random.Generator) -> Graph:
    """G(n, p) drawn with one explicit coin per vertex pair."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def kept_by(inst, j: int) -> np.ndarray:
    """Boolean per parent edge: bit ``j`` of its retention code, kept by child ``j``."""
    return (inst.edge_codes >> j) & 1 == 1


def retention_codes(parent: Graph, children) -> np.ndarray:
    """Retention code per parent edge of children drawn in the parent's labels."""
    codes = np.zeros(parent.edge_count, dtype=np.int64)
    for j, g in enumerate(children):
        codes |= _member(g.packed_keys(), parent.packed_keys()).astype(np.int64) << j
    return codes


def edge_set(g: Graph) -> set[tuple[int, int]]:
    """Edges of ``g`` as a set of ``(lo, hi)`` tuples."""
    return set(map(tuple, g.edges.tolist()))


def read_edge_list(path) -> Graph:
    """The graph in a file of ``write_edge_list``: an ``n m`` line, then ``m`` ``u v`` lines."""
    header, *lines = Path(path).read_text(encoding="ascii").splitlines()
    n, m = (int(x) for x in header.split())
    edges = [tuple(int(x) for x in line.split()) for line in lines]
    assert len(edges) == m
    return Graph(n, edges)
