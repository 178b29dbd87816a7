"""Sampling correlated block-model instances.

A parent graph is drawn from a two-community block model with logarithmic
expected degrees: ``n`` vertices get i.i.d. uniform ±1 labels, and each pair
is an edge independently with probability ``a ln n / n`` inside a community
and ``b ln n / n`` across.  ``K`` children are then produced by keeping each
parent edge independently with probability ``s`` per child; children beyond
the first are relabelled by uniformly random permutations, while child 1
keeps the parent's vertex labels and serves as the anchor.

An instance keeps the parent's edges, the permutations and one retention
code per parent edge (bit ``j`` set = kept by child ``j``).  Every child is
derived from them, and is built as a graph only when asked for: the trial
pipeline works in anchor labels, where each child is a subset of the
parent's sorted edges, and needs only the anchor itself.

Two equivalent constructions are provided.  :func:`sample_instance` draws the
per-edge retention bits directly.  :func:`sample_instance_partition` instead
classifies every vertex *pair* into one of ``2**K`` presence patterns up
front and intersects with the parent edge set; this is distributionally the
same (the pattern marginal of a non-edge pair is never observed) but makes
the pair classes available afterwards, which the balance diagnostic needs.

The module also contains the reverse direction used by resampling tests:
:func:`split_union_graph` consumes a realised union graph and splits its
edges into children according to the conditional pattern law.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, _image_keys
from .seeds import (
    ROLE_LABELS,
    ROLE_PAIR_CLASSES,
    ROLE_PARENT_EDGES,
    ROLE_PERMUTATIONS,
    ROLE_SUBSAMPLE,
    ROLE_UNION_SPLIT,
    stream,
)

__all__ = [
    "Params",
    "CorrelatedInstance",
    "sample_parent",
    "sample_instance",
    "sample_instance_partition",
    "union_split_weights",
    "split_union_graph",
    "BalanceReport",
    "balance_diagnostic",
]

# Largest n for which the pair-class construction is allowed; it stores one
# byte per vertex pair, so this caps the record at ~200 MB.
_PARTITION_MAX_N = 20_000

# Chunk sizes for O(n^2) pair scans, chosen to bound transient allocations.
_PAIR_CHUNK = 1 << 23


@dataclass(frozen=True)
class Params:
    """Model parameters; probabilities derive from ``a``, ``b`` and ``n``.

    ``a`` and ``b`` are the intra-/inter-community coefficients of the edge
    probabilities ``a ln n / n`` and ``b ln n / n``.  ``s`` is the per-child
    edge retention probability, ``K`` the number of children.  ``k`` (core
    order) and ``eps`` (initialisation accuracy target) are carried along as
    the defaults for the recovery pipeline.
    """

    n: int
    a: float
    b: float
    s: float
    K: int = 3
    k: int = 13
    eps: float = 0.05

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.a < 0 or self.b < 0:
            raise ValueError("a and b must be non-negative")
        if not 0.0 <= self.s <= 1.0:
            raise ValueError("s must lie in [0, 1]")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.p > 1.0 or self.q > 1.0:
            raise ValueError(
                f"edge probabilities exceed 1 (p={self.p}, q={self.q}); "
                "reduce a/b or increase n"
            )

    @property
    def p(self) -> float:
        """Intra-community edge probability."""
        return self.a * math.log(self.n) / self.n if self.n > 1 else 0.0

    @property
    def q(self) -> float:
        """Inter-community edge probability."""
        return self.b * math.log(self.n) / self.n if self.n > 1 else 0.0

    @classmethod
    def from_edge_probs(
        cls,
        n: int,
        p: float,
        q: float,
        s: float,
        K: int = 3,
        k: int = 13,
        eps: float = 0.05,
    ) -> "Params":
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

        return cls(n=n, a=coeff(p), b=coeff(q), s=s, K=K, k=k, eps=eps)


@dataclass
class CorrelatedInstance:
    """One sampled instance: parent, ground truth, and the K children.

    ``edge_patterns`` has one row per parent edge (aligned with
    ``parent.edges``) giving the K retention bits; it is the one record of
    which parent edge each child keeps.  :attr:`edge_codes` packs each row
    into one integer, bit ``j`` set when the edge is in child ``j``, and
    :attr:`children` is derived from it: ``children[0]`` is the anchor and
    carries the parent's vertex labels; ``children[j]`` for ``j >= 1`` is
    relabelled by ``pi_star[j]``, which maps anchor labels to that child's
    labels (``pi_star[0]`` is the identity).  Each child graph is built on
    first access, because the seeded pipeline works on the parent's edges
    and the codes in anchor labels and needs only the anchor as a graph.
    ``pair_classes`` is only present when the instance came from the
    partition construction: a condensed ``uint8`` vector over all vertex
    pairs in lexicographic order, each entry the pattern code of that pair
    (bit ``j`` set = present in child ``j`` if the pair is a parent edge).

    Construction rejects ``edge_patterns`` not shaped ``(parent.edge_count,
    K)`` or holding values other than 0 and 1, ``pi_star`` that is not K
    permutations of ``range(n)`` starting with the identity, and
    ``sigma_star`` that is not n labels in {-1, +1}.  Each ``pi_star`` entry
    is stored as an int64 array.
    """

    params: Params
    seed: int
    parent: Graph
    sigma_star: np.ndarray
    pi_star: list[np.ndarray]
    edge_patterns: np.ndarray
    pair_classes: np.ndarray | None = None
    _inverse_perms: list[np.ndarray | None] = field(init=False, repr=False, compare=False)
    _codes: np.ndarray = field(init=False, repr=False, compare=False)
    _children: _Children = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, K = self.params.n, self.params.K
        patterns = np.asarray(self.edge_patterns)
        if patterns.shape != (self.parent.edge_count, K):
            raise ValueError(
                f"edge_patterns must have shape ({self.parent.edge_count}, {K}), "
                f"not {patterns.shape}"
            )
        if not ((patterns == 0) | (patterns == 1)).all():
            raise ValueError("edge_patterns must hold only 0 and 1")
        if len(self.pi_star) != K:
            raise ValueError(f"pi_star must hold K={K} permutations, not {len(self.pi_star)}")
        for pi in self.pi_star:
            if not _is_permutation(np.asarray(pi), n):
                raise ValueError(f"every pi_star entry must be a permutation of range({n})")
        self.pi_star = [np.asarray(pi, dtype=np.int64) for pi in self.pi_star]
        if not np.array_equal(self.pi_star[0], np.arange(n)):
            raise ValueError("pi_star[0] must be the identity")
        sigma = np.asarray(self.sigma_star)
        if sigma.shape != (n,) or not ((sigma == 1) | (sigma == -1)).all():
            raise ValueError(f"sigma_star must hold n={n} labels, each -1 or +1")
        self._inverse_perms = [None] * K
        self._codes = _retention_codes(patterns)
        self._codes.setflags(write=False)
        self._children = _Children(self.parent, self._codes, self.pi_star)

    @property
    def K(self) -> int:
        return self.params.K

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def edge_codes(self) -> np.ndarray:
        """Retention code per parent edge, read-only: bit ``j`` = kept by child ``j``.

        The dtype is ``uint8`` for K <= 8 and the narrowest wider unsigned
        integer otherwise.
        """
        return self._codes

    @property
    def children(self) -> Sequence[Graph]:
        """The K child graphs, each in its own labels, built on first access."""
        return self._children

    def inverse_pi(self, j: int) -> np.ndarray:
        """Inverse of ``pi_star[j]`` (child-j labels back to anchor labels)."""
        cached = self._inverse_perms[j]
        if cached is None:
            pi = self.pi_star[j]
            cached = np.empty_like(pi)
            cached[pi] = np.arange(len(pi), dtype=pi.dtype)
            self._inverse_perms[j] = cached
        return cached

    def true_pairwise_permutation(self, i: int, j: int) -> np.ndarray:
        """Ground-truth relabelling from child ``i``'s labels to child ``j``'s."""
        return self.pi_star[j][self.inverse_pi(i)]

    def child_edges_in_parent_labels(self, j: int) -> np.ndarray:
        """Canonical edge array of child ``j`` in anchor labels: a row subset of the parent's."""
        return self.parent.edges.take(_rows_with_bit(self._codes, j), axis=0)


def _is_permutation(pi: np.ndarray, n: int) -> bool:
    if pi.shape != (n,) or not np.issubdtype(pi.dtype, np.integer):
        return False
    if n == 0:
        return True
    if pi.min() < 0 or pi.max() >= n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[pi] = True
    return bool(seen.all())


def _retention_codes(patterns: np.ndarray) -> np.ndarray:
    """One integer per row of the 0/1 ``patterns``: bit ``j`` is column ``j``.

    The dtype is the narrowest unsigned integer with a bit per column.
    """
    dtype = np.min_scalar_type((1 << patterns.shape[1]) - 1)
    if dtype.kind != "u":
        raise ValueError(f"retention codes hold at most 64 children, not K={patterns.shape[1]}")
    codes = np.zeros(patterns.shape[0], dtype=dtype)
    for j in range(patterns.shape[1]):
        codes |= patterns[:, j].astype(dtype) << dtype.type(j)
    return codes


def _rows_with_bit(codes: np.ndarray, j: int) -> np.ndarray:
    """Indices of the codes with bit ``j`` set, ascending."""
    # Index arrays from a boolean mask: numpy's nonzero scans a bool array
    # several times faster than an integer one, and taking rows by index
    # beats boolean-mask indexing when the mask is irregular.
    return np.flatnonzero((codes & codes.dtype.type(1 << j)) != 0)


class _Children(Sequence):
    """Read-only sequence of child graphs derived from (parent, codes, pi).

    Child ``j`` keeps the parent edges whose code has bit ``j`` and is
    relabelled by ``pi[j]``.  Each graph is built on its first access and
    kept.  The view holds the arrays, not the instance, so it forms no
    reference cycle.
    """

    def __init__(self, parent: Graph, codes: np.ndarray, perms: list[np.ndarray]):
        self._parent = parent
        self._codes = codes
        self._perms = perms
        self._graphs: list[Graph | None] = [None] * len(perms)

    def __len__(self) -> int:
        return len(self._graphs)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(*j.indices(len(self)))]
        j = range(len(self))[j]
        g = self._graphs[j]
        if g is None:
            g = self._graphs[j] = self._build(j)
        return g

    def _build(self, j: int) -> Graph:
        parent = self._parent
        kept = _rows_with_bit(self._codes, j)
        if j == 0:
            # The anchor's relabelling is the identity: its keys are a
            # sorted subset of the parent's.
            return Graph._from_keys(parent.n, parent.packed_keys()[kept])
        # A permutation maps distinct parent keys to distinct keys.
        e = parent.edges.take(kept, axis=0)
        keys = _image_keys(parent.n, e[:, 0], e[:, 1], self._perms[j])[1]
        return Graph._from_keys(parent.n, np.sort(keys))


def _bernoulli_index_sample(rng: np.random.Generator, count: int, prob: float) -> np.ndarray:
    """Sorted indices of successes among ``count`` i.i.d. Bernoulli(prob) slots.

    Uses geometric gap skipping so runtime scales with the number of
    successes, not with ``count``; the result is distributed exactly as if
    each slot were drawn independently.
    """
    if count <= 0 or prob <= 0.0:
        return np.empty(0, dtype=np.int64)
    if prob >= 1.0:
        return np.arange(count, dtype=np.int64)
    chunks = []
    pos = -1
    batch = min(max(int(count * prob * 1.1) + 16, 64), _PAIR_CHUNK)
    while True:
        gaps = rng.geometric(prob, size=batch).astype(np.int64)
        positions = pos + np.cumsum(gaps)
        if positions[-1] >= count:
            chunks.append(positions[positions < count])
            break
        chunks.append(positions)
        pos = int(positions[-1])
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def _tri_row_starts(m: int) -> np.ndarray:
    """Offsets of each row of the strict upper triangle over ``m`` items."""
    rows = np.arange(m, dtype=np.int64)
    lengths = m - 1 - rows
    starts = np.zeros(m, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


def _unpack_triangle(flat: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Map flat upper-triangle indices to vertex pairs within ``members``."""
    m = len(members)
    starts = _tri_row_starts(m)
    row = np.searchsorted(starts, flat, side="right") - 1
    col = flat - starts[row] + row + 1
    return np.column_stack((members[row], members[col]))


def sample_parent(params: Params, seed: int) -> tuple[Graph, np.ndarray]:
    """Draw the parent graph and ground-truth labels.

    Returns ``(graph, sigma)`` with ``sigma`` an int8 vector of ±1.  Labels
    and edges come from separate seed roles, so the parent edge set is a
    deterministic function of ``(seed, labels)``.
    """
    n = params.n
    sigma = (stream(seed, ROLE_LABELS).integers(0, 2, size=n) * 2 - 1).astype(np.int8)
    rng = stream(seed, ROLE_PARENT_EDGES)
    plus = np.flatnonzero(sigma > 0)
    minus = np.flatnonzero(sigma < 0)
    np_, nm = len(plus), len(minus)
    blocks = []
    # Intra-community pairs: all pairs within V+, then all pairs within V-.
    cp = np_ * (np_ - 1) // 2
    cm = nm * (nm - 1) // 2
    hits = _bernoulli_index_sample(rng, cp + cm, params.p)
    if hits.size:
        in_plus = hits < cp
        if in_plus.any():
            blocks.append(_unpack_triangle(hits[in_plus], plus))
        if (~in_plus).any():
            blocks.append(_unpack_triangle(hits[~in_plus] - cp, minus))
    # Inter-community pairs, plus-major lexicographic order.
    hits = _bernoulli_index_sample(rng, np_ * nm, params.q)
    if hits.size:
        blocks.append(
            np.column_stack((plus[hits // nm], minus[hits % nm]))
        )
    edges = np.concatenate(blocks) if blocks else None
    return Graph(n, edges), sigma


def _draw_permutations(n: int, K: int, seed: int) -> list[np.ndarray]:
    rng = stream(seed, ROLE_PERMUTATIONS)
    perms = [np.arange(n, dtype=np.int64)]
    for _ in range(K - 1):
        perms.append(rng.permutation(n).astype(np.int64))
    return perms


def sample_instance(params: Params, seed: int) -> CorrelatedInstance:
    """Sample a full instance via per-edge retention bits."""
    parent, sigma = sample_parent(params, seed)
    m = parent.edge_count
    rng = stream(seed, ROLE_SUBSAMPLE)
    patterns = (rng.random((m, params.K)) < params.s).astype(np.uint8)
    return CorrelatedInstance(
        params=params,
        seed=seed,
        parent=parent,
        sigma_star=sigma,
        pi_star=_draw_permutations(params.n, params.K, seed),
        edge_patterns=patterns,
    )


def _pattern_weights(s: float, bits: int) -> np.ndarray:
    """Probability of each of the ``2**bits`` presence patterns, by code."""
    codes = np.arange(1 << bits, dtype=np.int64)
    popcount = np.zeros(len(codes), dtype=np.int64)
    for j in range(bits):
        popcount += (codes >> j) & 1
    return s**popcount * (1.0 - s) ** (bits - popcount)


def _draw_codes(rng: np.random.Generator, count: int, weights: np.ndarray) -> np.ndarray:
    """Draw ``count`` i.i.d. codes from ``weights`` (chunked inverse CDF)."""
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    out = np.empty(count, dtype=np.uint8)
    for start in range(0, count, _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, count)
        u = rng.random(stop - start)
        out[start:stop] = np.searchsorted(cum, u, side="right").astype(np.uint8)
    return out


def _pair_index(n: int, edges: np.ndarray) -> np.ndarray:
    """Lexicographic pair index of each canonical edge (u < v)."""
    u = edges[:, 0].astype(np.int64)
    v = edges[:, 1].astype(np.int64)
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def sample_instance_partition(params: Params, seed: int) -> CorrelatedInstance:
    """Sample an instance by classifying every vertex pair up front.

    Each of the ``n (n-1) / 2`` vertex pairs independently receives a pattern
    code in ``{0, ..., 2^K - 1}`` with probability ``s^w (1-s)^(K-w)`` for a
    code of popcount ``w``; a pair is then an edge of child ``j`` exactly
    when it is a parent edge and bit ``j`` of its code is set.  Marginally
    this matches :func:`sample_instance` (same parent and permutation
    streams, different retention stream), and the full class vector is kept
    on the instance for the balance diagnostic.

    Memory is quadratic in ``n``; instances above n=20000 are refused.
    """
    if params.n > _PARTITION_MAX_N:
        raise ValueError(
            f"partition construction stores all vertex pairs; n={params.n} "
            f"exceeds the supported maximum {_PARTITION_MAX_N}"
        )
    if params.K > 8:
        raise ValueError("partition construction stores codes as uint8; K must be <= 8")
    parent, sigma = sample_parent(params, seed)
    n = params.n
    n_pairs = n * (n - 1) // 2
    weights = _pattern_weights(params.s, params.K)
    classes = _draw_codes(stream(seed, ROLE_PAIR_CLASSES), n_pairs, weights)
    codes = classes[_pair_index(n, parent.edges)].astype(np.int64)
    patterns = np.zeros((parent.edge_count, params.K), dtype=np.uint8)
    for j in range(params.K):
        patterns[:, j] = (codes >> j) & 1
    return CorrelatedInstance(
        params=params,
        seed=seed,
        parent=parent,
        sigma_star=sigma,
        pi_star=_draw_permutations(n, params.K, seed),
        edge_patterns=patterns,
        pair_classes=classes,
    )


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
    total = 1.0 - (1.0 - s) ** num_children
    out: dict[tuple[int, ...], float] = {}
    for code in range(1, 1 << num_children):
        pattern = tuple((code >> j) & 1 for j in range(num_children))
        w = sum(pattern)
        out[pattern] = s**w * (1.0 - s) ** (num_children - w) / total
    return out


def split_union_graph(h: Graph, s: float, K: int, seed: int) -> list[Graph]:
    """Split a realised union graph back into ``K - 1`` children.

    Models ``h`` as the union of children ``2..K`` of a correlated family
    (all in the same labelling): every edge of ``h`` independently receives
    a non-zero presence pattern from :func:`union_split_weights` and is
    copied into the children whose bits are set.  With ``K = 2`` the single
    child equals ``h``.
    """
    if K < 2:
        raise ValueError("K must be at least 2 (h is a union of K-1 children)")
    num = K - 1
    weights = union_split_weights(s, num)
    # Codes 1..2^num-1 in ascending order; weight lookup by code.
    wvec = np.array(
        [weights[tuple((code >> j) & 1 for j in range(num))] for code in range(1, 1 << num)]
    )
    cum = np.cumsum(wvec)
    cum[-1] = 1.0
    rng = stream(seed, ROLE_UNION_SPLIT)
    u = rng.random(h.edge_count)
    codes = np.searchsorted(cum, u, side="right") + 1
    return [
        Graph._from_keys(h.n, h.packed_keys()[(codes >> j) & 1 == 1]) for j in range(num)
    ]


@dataclass
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
    counts pairs whose other endpoint lies in the same community.
    """
    width = num_classes * 2
    acc = np.zeros(n * width, dtype=np.int64)
    same_side = (sigma > 0).astype(np.int64)
    pos = 0
    i = 0
    while i < n - 1:
        j = i
        total = 0
        while j < n - 1 and total + (n - 1 - j) <= _PAIR_CHUNK:
            total += n - 1 - j
            j += 1
        if j == i:
            j = i + 1
            total = n - 1 - i
        rows = np.arange(i, j, dtype=np.int64)
        i_idx = np.repeat(rows, n - 1 - rows)
        j_idx = np.concatenate([np.arange(r + 1, n, dtype=np.int64) for r in rows])
        cls = classes[pos : pos + total].astype(np.int64)
        same = (same_side[i_idx] == same_side[j_idx]).astype(np.int64)
        acc += np.bincount(i_idx * width + cls * 2 + same, minlength=n * width)
        acc += np.bincount(j_idx * width + cls * 2 + same, minlength=n * width)
        pos += total
        i = j
    return acc.reshape(n, num_classes, 2)


def balance_diagnostic(inst: CorrelatedInstance) -> tuple[bool, BalanceReport]:
    """Check the regularity event used by the exact-recovery analysis.

    Requires an instance from :func:`sample_instance_partition` (the pair
    classes must be recorded).  The event holds when (i) both community
    sizes lie within ``n/2 ± n^(3/4)`` and (ii) for every vertex ``i``,
    every pattern class ``c`` and both community sides, the number of pairs
    ``{i, j}`` of class ``c`` with ``j`` on that side lies within
    ``w_c (|side| ± n^(3/4))``, where ``w_c`` is the class probability.
    """
    if inst.pair_classes is None:
        raise ValueError(
            "balance diagnostic needs the pair-class record; "
            "use sample_instance_partition"
        )
    n = inst.n
    num_classes = 1 << inst.K
    sigma = inst.sigma_star
    hw = n**0.75
    n_plus = int((sigma > 0).sum())
    n_minus = n - n_plus
    community_ok = (
        n / 2 - hw <= n_plus <= n / 2 + hw and n / 2 - hw <= n_minus <= n / 2 + hw
    )
    counts = _pair_class_counts(inst.pair_classes, sigma, n, num_classes)
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
