"""Test references for the one sampler of ``csbm.generate``.

The package samples an instance one way, union-first, with
``sample_instance``.  The constructions here give the same law another way
and are what the tests and acceptance criteria 3 and 4 compare it with:

- ``sample_instance_partition`` samples the full parent, gives every vertex
  *pair* one of ``2**K`` presence patterns up front from its own seed role,
  and keeps the parent edges of a non-zero pattern.  It returns the
  instance together with the pattern of every pair.
- ``balance_diagnostic`` checks the regularity event of the exact-recovery
  analysis on those pair patterns.
- ``union_split_weights`` is the conditional law of a union edge's non-zero
  presence pattern, the law the package's non-zero code draw follows.
- ``from_edge_probs`` builds ``Params`` from raw edge probabilities.

The parent is ``sample_instance`` at full retention, where every parent
edge is kept by every child, so the union is the parent.
"""

import dataclasses
import math

import numpy as np

from csbm.generate import (
    CorrelatedInstance,
    Params,
    _draw_codes,
    _draw_permutations,
    _nonzero_weights,
    _pattern_weights,
    _tri_row_starts,
    sample_instance,
)
from csbm.graphs import Graph
from csbm.seeds import ROLE_PAIR_CLASSES, stream

# Largest n for which the pair-class construction is allowed; it stores one
# byte per vertex pair, so this caps the record at ~200 MB.
_PARTITION_MAX_N = 20_000

# Pairs per chunk of the balance count: its int64 temporaries then stay in
# cache (1 << 19 ran about twice as fast as 1 << 23 at n = 10^4).
_COUNT_CHUNK = 1 << 19


def from_edge_probs(
    n: int,
    p: float,
    q: float,
    s: float,
    K: int = 3,
    k: int = 13,
    eps: float = 0.01,
) -> Params:
    """Build Params from raw edge probabilities instead of coefficients.

    The coefficients are chosen so the derived ``p``/``q`` round-trip to
    the requested values; a one-ulp downward nudge compensates when the
    division/multiplication pair rounds up past the original.
    """
    if n < 2:
        raise ValueError("n must be at least 2 to invert the scaling")
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise ValueError("p and q must lie in [0, 1]")
    scale = n / math.log(n)

    def coeff(prob: float) -> float:
        c = prob * scale
        while c > 0 and c * math.log(n) / n > prob:
            c = math.nextafter(c, 0.0)
        return c

    return Params(n=n, a=coeff(p), b=coeff(q), s=s, K=K, k=k, eps=eps)


def parent_and_labels(params: Params, seed: int) -> tuple[Graph, np.ndarray]:
    """The parent graph and its int8 ±1 labels: the union of ``sample_instance`` at s = 1."""
    inst = sample_instance(dataclasses.replace(params, s=1.0), seed)
    return inst.parent, inst.sigma_star


def _pair_index(n: int, edges: np.ndarray) -> np.ndarray:
    """Lexicographic pair index of each canonical edge (u < v)."""
    u = edges[:, 0].astype(np.int64)
    v = edges[:, 1].astype(np.int64)
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def sample_instance_partition(
    params: Params, seed: int
) -> tuple[CorrelatedInstance, np.ndarray]:
    """Sample an instance by classifying every vertex pair up front.

    Each of the ``n (n-1) / 2`` vertex pairs independently receives a pattern
    code in ``{0, ..., 2^K - 1}`` with probability ``s^w (1-s)^(K-w)`` for a
    code of popcount ``w``; a pair is then an edge of child ``j`` exactly
    when it is a parent edge and bit ``j`` of its code is set.  The full
    parent is sampled, and the instance keeps its edges of non-zero class,
    the union of the children.  In law this matches ``sample_instance``
    (same label and permutation streams).

    Returns ``(inst, pair_classes)``: ``pair_classes`` is a condensed
    ``uint8`` vector over all vertex pairs in lexicographic order, each
    entry the pattern code of that pair.  Memory is quadratic in ``n``;
    instances above n=20000 are refused.
    """
    if params.n > _PARTITION_MAX_N:
        raise ValueError(
            f"partition construction stores all vertex pairs; n={params.n} "
            f"exceeds the supported maximum {_PARTITION_MAX_N}"
        )
    if params.K > 8:
        raise ValueError("partition construction stores codes as uint8; K must be <= 8")
    parent, sigma = parent_and_labels(params, seed)
    n = params.n
    n_pairs = n * (n - 1) // 2
    weights = _pattern_weights(params.s, params.K)
    classes = _draw_codes(stream(seed, ROLE_PAIR_CLASSES), n_pairs, weights)
    # A pair's class is its retention code once the pair is a parent edge.
    codes = classes[_pair_index(n, parent.edges)]
    kept = np.flatnonzero(codes)
    inst = CorrelatedInstance(
        params=params,
        seed=seed,
        parent=Graph._from_keys(n, parent.packed_keys()[kept]),
        sigma_star=sigma,
        pi_star=_draw_permutations(n, params.K, seed),
        edge_codes=codes[kept],
    )
    return inst, classes


def union_split_weights(s: float, num_children: int) -> dict[tuple[int, ...], float]:
    """Conditional presence-pattern law of a union edge over its children.

    Given that an edge appears in at least one of ``num_children`` children,
    pattern ``t`` (a non-zero 0/1 tuple) has probability
    ``s^w (1-s)^(c-w) / (1 - (1-s)^c)`` where ``w`` is the pattern weight.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie strictly between 0 and 1")
    if num_children < 1:
        raise ValueError("num_children must be at least 1")
    return {
        tuple((code >> j) & 1 for j in range(num_children)): weight
        for code, weight in enumerate(_nonzero_weights(s, num_children), start=1)
    }


@dataclasses.dataclass
class BalanceReport:
    """Outcome of the balance diagnostic.

    ``examples`` holds at most 20 violating window checks as tuples
    ``(vertex, class_code, side, count, lo, hi)`` where ``side`` is
    ``"same"`` or ``"opp"`` relative to the vertex's own community.
    """

    passed: bool
    community_ok: bool
    community_sizes: tuple[int, int]
    violation_count: int
    examples: list[tuple[int, int, str, int, float, float]]


def _pair_class_counts(
    classes: np.ndarray, sigma: np.ndarray, n: int, num_classes: int
) -> np.ndarray:
    """Per-vertex pair counts by (class code, same/opposite community).

    Returns an ``(n, num_classes, 2)`` int64 array; index 1 of the last axis
    counts pairs whose other endpoint lies in the same community.  Rows of
    the pair triangle are taken in chunks of at most ``_COUNT_CHUNK`` pairs
    (one row at least); pair ``p`` of row ``r`` has column
    ``p - starts[r] + r + 1``.
    """
    width = num_classes * 2
    acc = np.zeros(n * width, dtype=np.int64)
    side = (sigma > 0).astype(np.int8)
    starts = _tri_row_starts(n)
    i = 0
    while i < n - 1:
        j = int(np.searchsorted(starts, starts[i] + _COUNT_CHUNK, side="right")) - 1
        j = min(max(j, i + 1), n - 1)
        rows = np.arange(i, j)
        lengths = n - 1 - rows
        cols = np.arange(starts[i], starts[j]) - np.repeat(starts[i:j] - rows - 1, lengths)
        cell = classes[starts[i] : starts[j]] * np.int64(2)
        cell += np.repeat(side[rows], lengths) == side[cols]
        keys = np.repeat(rows * width, lengths)
        keys += cell
        acc += np.bincount(keys, minlength=n * width)
        cols *= width
        cols += cell
        acc += np.bincount(cols, minlength=n * width)
        i = j
    return acc.reshape(n, num_classes, 2)


def balance_diagnostic(
    inst: CorrelatedInstance, pair_classes: np.ndarray
) -> tuple[bool, BalanceReport]:
    """Check the regularity event used by the exact-recovery analysis.

    ``pair_classes`` is the pair-class record that
    :func:`sample_instance_partition` returns with ``inst``.  The event
    holds when (i) both community sizes lie within ``n/2 ± n^(3/4)`` and
    (ii) for every vertex ``i``, every pattern class ``c`` and both
    community sides, the number of pairs ``{i, j}`` of class ``c`` with
    ``j`` on that side lies within ``w_c (|side| ± n^(3/4))``, where
    ``w_c`` is the class probability.
    """
    n = inst.n
    num_classes = 1 << inst.K
    sigma = inst.sigma_star
    hw = n**0.75
    n_plus = int((sigma > 0).sum())
    n_minus = n - n_plus
    community_ok = (
        n / 2 - hw <= n_plus <= n / 2 + hw and n / 2 - hw <= n_minus <= n / 2 + hw
    )
    counts = _pair_class_counts(pair_classes, sigma, n, num_classes)
    weights = _pattern_weights(inst.params.s, inst.K)
    size_same = np.where(sigma > 0, n_plus, n_minus).astype(np.float64)
    size_opp = np.where(sigma > 0, n_minus, n_plus).astype(np.float64)
    examples: list[tuple[int, int, str, int, float, float]] = []
    violations = 0
    for side_flag, side_name, sizes in (
        (1, "same", size_same),
        (0, "opp", size_opp),
    ):
        lo = weights[None, :] * (sizes[:, None] - hw)
        hi = weights[None, :] * (sizes[:, None] + hw)
        got = counts[:, :, side_flag].astype(np.float64)
        bad = (got < lo) | (got > hi)
        violations += int(bad.sum())
        if len(examples) < 20 and bad.any():
            for v, c in zip(*np.nonzero(bad)):
                examples.append(
                    (int(v), int(c), side_name, int(got[v, c]), float(lo[v, c]), float(hi[v, c]))
                )
                if len(examples) >= 20:
                    break
    passed = community_ok and violations == 0
    report = BalanceReport(
        passed=passed,
        community_ok=community_ok,
        community_sizes=(n_plus, n_minus),
        violation_count=violations,
        examples=examples,
    )
    return passed, report
