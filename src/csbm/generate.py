"""Sampling correlated block-model instances.

A parent graph is drawn from a two-community block model with logarithmic
expected degrees: ``n`` vertices get i.i.d. uniform ±1 labels, and each pair
is an edge independently with probability ``a ln n / n`` inside a community
and ``b ln n / n`` across.  ``K`` children are then produced by keeping each
parent edge independently with probability ``s`` per child; children beyond
the first are relabelled by uniformly random permutations, while child 1
keeps the parent's vertex labels and serves as the anchor.

Block-model graphs are built from packed keys ``lo * n + hi``: each
intra-community hit of the geometric skip sampler is placed in its triangle
row by one search per row, inter-community hits give their keys directly,
and one sort of all keys gives the canonical edge order, with no further
checks, since the construction yields distinct pairs of distinct vertices.

Only the union of the children is ever observed, so an instance stores the
union graph, not the parent: ``inst.parent`` holds the pairs some child
keeps, with one non-zero presence code per edge (bit ``j`` set = kept by
child ``j``), and the permutations.  The children are derived from them
as cached properties, each built on first access: the anchor child alone,
and all K children.  The trial pipeline works in anchor labels, where each
child is a subset of the union's sorted edges: its stages read the union's
endpoint columns ``inst.parent.edges.T`` beside the codes, and it builds
only the anchor as a graph.

The sampler, :func:`sample_instance`, draws the union directly: a pair
is a union edge with probability ``p f`` inside a community and ``q f``
across, ``f = 1 - (1 - s)^K``, independently per pair, so the union is
itself a block model, and each of its edges then gets a code from the
conditional law of a non-zero code (the union construction of Gaudio,
Rácz and Sridhar, COLT 2022).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph, _image_keys, _require_integer, _require_real
from .seeds import (
    ROLE_LABELS,
    ROLE_PARENT_EDGES,
    ROLE_PERMUTATIONS,
    ROLE_SUBSAMPLE,
    stream,
)

__all__ = [
    "Params",
    "CorrelatedInstance",
    "sample_instance",
]

# Most gaps held at once by the edge sampler, chosen to bound transient
# allocations.  Its last batch overshoots, and that overshoot decides where
# the next draws start in the shared stream, so changing it changes samples.
_PAIR_CHUNK = 1 << 23

# Uniforms per chunk of a code draw: small enough that each chunk stays in
# cache across the comparison passes.  Chunking does not change the draws.
_CODE_CHUNK = 1 << 16

# Bits per group of a wide presence code; codes up to this wide are drawn
# from one table of all their non-zero values.
_CODE_GROUP_BITS = 4


@dataclass(frozen=True)
class Params:
    """Model parameters; probabilities derive from ``a``, ``b`` and ``n``.

    ``a`` and ``b`` are the intra-/inter-community coefficients of the edge
    probabilities ``a ln n / n`` and ``b ln n / n``.  ``s`` is the per-child
    edge retention probability, ``K`` the number of children.  ``k`` (core
    order) and ``eps`` (initialisation accuracy target) are the values the
    recovery pipeline runs with.  ``n``, ``K`` and ``k`` are whole numbers
    of at least 1, stored as ints, with ``K`` at most 64; ``a`` and ``b``
    are finite and non-negative, ``s`` lies in [0, 1] and ``eps`` is finite
    and positive, all stored as floats.  A bool or a string is rejected.
    """

    n: int
    a: float
    b: float
    s: float
    K: int = 3
    k: int = 13
    eps: float = 0.01

    def __post_init__(self):
        for name in ("n", "K", "k"):
            object.__setattr__(self, name, _require_integer(name, getattr(self, name), 1))
        _code_dtype(self.K)  # refuses K > 64
        for name in ("a", "b"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name), 0))
        object.__setattr__(self, "s", _require_real("s", self.s, 0, 1))
        object.__setattr__(self, "eps", _require_real("eps", self.eps, positive=True))
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


@dataclass(eq=False)
class CorrelatedInstance:
    """One sampled instance: the union graph, ground truth, and the K children.

    ``parent`` is the union of the children in anchor labels: it holds
    only the pairs some child keeps.  ``edge_codes`` has one integer per
    edge of ``parent`` (aligned with ``parent.edges``), bit ``j`` set
    when child ``j`` keeps the edge; it is the one record of which edge
    each child keeps, stored read-only in the narrowest unsigned dtype with
    K bits (``uint8`` for K <= 8).  Every view of the children is derived
    from it and built once, on first access.  :attr:`anchor` is child 0,
    which carries the parent's vertex labels; the seeded pipeline works on
    the union's edges and the codes in anchor labels and needs only the
    anchor as a graph.  :attr:`children` is the tuple of all K graphs:
    ``children[0]`` is the anchor and ``children[j]`` for ``j >= 1`` is
    relabelled by ``pi_star[j]``, which maps anchor labels to that child's
    labels (``pi_star[0]`` is the identity).  The stages read the union's
    edges in anchor labels as ``u, v = parent.edges.T``, row for row with
    ``edge_codes``.  Instances compare by identity.

    Construction rejects K > 64, ``edge_codes`` not shaped
    ``(parent.edge_count,)`` or holding anything but integers in
    ``[1, 2**K)`` (an edge no child keeps is not in the union),
    ``pi_star`` that is not K permutations of ``range(n)`` starting with
    the identity, and ``sigma_star`` that is not n labels in {-1, +1}.
    Each ``pi_star`` entry is stored as an int64 array.
    """

    params: Params
    seed: int
    parent: Graph
    sigma_star: np.ndarray
    pi_star: list[np.ndarray]
    edge_codes: np.ndarray

    def __post_init__(self):
        n, K = self.params.n, self.params.K
        dtype = _code_dtype(K)
        codes = np.asarray(self.edge_codes)
        if codes.shape != (self.parent.edge_count,):
            raise ValueError(
                f"edge_codes must have shape ({self.parent.edge_count},), not {codes.shape}"
            )
        if not np.issubdtype(codes.dtype, np.integer) or (
            codes.size and (int(codes.min()) < 1 or int(codes.max()) >= 1 << K)
        ):
            raise ValueError(f"edge_codes must hold integers in [1, 2**{K})")
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
        # A read-only view: the caller's array keeps its own flags.
        self.edge_codes = codes.astype(dtype, copy=False).view()
        self.edge_codes.setflags(write=False)

    @property
    def K(self) -> int:
        return self.params.K

    @property
    def n(self) -> int:
        return self.params.n

    @cached_property
    def anchor(self) -> Graph:
        """Child 0, in the parent's labels: a sorted subset of the parent's keys."""
        return Graph._from_keys(self.n, self.parent.packed_keys()[self._kept_rows(0)])

    @cached_property
    def children(self) -> tuple[Graph, ...]:
        """The K child graphs, each in its own labels; the anchor comes first."""
        n = self.n
        u, v = self.parent.edges.T
        graphs = [self.anchor]
        for j in range(1, self.K):
            # A permutation maps distinct parent keys to distinct keys.
            rows = self._kept_rows(j)
            keys = _image_keys(n, u.take(rows), v.take(rows), self.pi_star[j])[1]
            graphs.append(Graph._from_keys(n, np.sort(keys)))
        return tuple(graphs)

    def _kept_rows(self, j: int) -> np.ndarray:
        """Indices of the parent edges child ``j`` keeps, ascending."""
        # Index arrays from a boolean mask: numpy's nonzero scans a bool
        # array several times faster than an integer one, and taking rows by
        # index beats boolean-mask indexing when the mask is irregular.
        codes = self.edge_codes
        return np.flatnonzero((codes & codes.dtype.type(1 << j)) != 0)

    def inverse_pi(self, j: int) -> np.ndarray:
        """Inverse of ``pi_star[j]`` (child-j labels back to anchor labels)."""
        pi = self.pi_star[j]
        inverse = np.empty_like(pi)
        inverse[pi] = np.arange(len(pi), dtype=pi.dtype)
        return inverse

    def true_pairwise_permutation(self, i: int, j: int) -> np.ndarray:
        """Ground-truth relabelling from child ``i``'s labels to child ``j``'s."""
        return self.pi_star[j][self.inverse_pi(i)]


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


def _code_dtype(K: int) -> np.dtype:
    """The narrowest unsigned integer dtype with a bit per child."""
    dtype = np.min_scalar_type((1 << K) - 1)
    if dtype.kind != "u":
        raise ValueError(
            f"K must be at most 64, not {K} (retention codes hold at most 64 children)"
        )
    return dtype


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
        gaps = rng.geometric(prob, size=batch).astype(np.int64, copy=False)
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


def _triangle_keys(n: int, flat: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Packed keys of the pairs of ``members`` at sorted flat upper-triangle indices.

    ``members`` is ascending, so row ``r`` and column ``c > r`` give the key
    ``members[r] * n + members[c]``.  Each row's hits are one contiguous run
    of the sorted ``flat``, found by one search per row.
    """
    starts = _tri_row_starts(len(members))
    counts = np.diff(np.searchsorted(flat, starts), append=flat.size)
    cols = np.repeat(starts - np.arange(len(members)) - 1, counts)
    np.subtract(flat, cols, out=cols)
    keys = np.repeat(members * np.int64(n), counts)
    keys += members[cols]
    return keys


def _block_model_keys(
    n: int, sigma: np.ndarray, rng: np.random.Generator, p: float, q: float
) -> np.ndarray:
    """Sorted packed keys of a two-block model on ``sigma``: rate ``p`` inside, ``q`` across.

    Every hit is a distinct pair of distinct vertices, so the keys need
    only one sort.
    """
    plus = np.flatnonzero(sigma > 0)
    minus = np.flatnonzero(sigma < 0)
    np_, nm = len(plus), len(minus)
    # Intra-community pairs: all pairs within V+, then all pairs within V-.
    cp = np_ * (np_ - 1) // 2
    cm = nm * (nm - 1) // 2
    hits = _bernoulli_index_sample(rng, cp + cm, p)
    split = np.searchsorted(hits, cp)
    blocks = [
        _triangle_keys(n, hits[:split], plus),
        _triangle_keys(n, hits[split:] - cp, minus),
    ]
    # Inter-community pairs, plus-major lexicographic order.
    hits = _bernoulli_index_sample(rng, np_ * nm, q)
    u, v = plus[hits // nm], minus[hits % nm]
    blocks.append(np.minimum(u, v) * np.int64(n) + np.maximum(u, v))
    keys = np.concatenate(blocks)
    keys.sort()
    return keys


def _draw_permutations(n: int, K: int, seed: int) -> list[np.ndarray]:
    rng = stream(seed, ROLE_PERMUTATIONS)
    perms = [np.arange(n, dtype=np.int64)]
    for _ in range(K - 1):
        perms.append(rng.permutation(n).astype(np.int64))
    return perms


def sample_instance(params: Params, seed: int) -> CorrelatedInstance:
    """Sample an instance union-first: the union graph, then one code per union edge.

    Labels and edges come from separate seed roles.  A pair is an
    edge of some child with probability ``p f`` inside a community and
    ``q f`` across, ``f = 1 - (1 - s)^K``, so the union is drawn as a block
    model at those rates, from the parent-edge stream.  Each union edge then
    gets a non-zero presence code from its conditional law, from the
    subsample stream, and the permutations from their own.  No pair that
    no child keeps is ever drawn.
    """
    n, K = params.n, params.K
    sigma = (stream(seed, ROLE_LABELS).integers(0, 2, size=n) * 2 - 1).astype(np.int8)
    f = 1.0 - (1.0 - params.s) ** K
    rng = stream(seed, ROLE_PARENT_EDGES)
    keys = _block_model_keys(n, sigma, rng, params.p * f, params.q * f)
    return CorrelatedInstance(
        params=params,
        seed=seed,
        parent=Graph._from_keys(n, keys),
        sigma_star=sigma,
        pi_star=_draw_permutations(n, K, seed),
        edge_codes=_draw_nonzero_codes(stream(seed, ROLE_SUBSAMPLE), keys.size, params.s, K),
    )


def _pattern_weights(s: float, bits: int) -> np.ndarray:
    """Probability of each of the ``2**bits`` presence patterns, by code."""
    codes = np.arange(1 << bits, dtype=np.int64)
    popcount = np.zeros(len(codes), dtype=np.int64)
    for j in range(bits):
        popcount += (codes >> j) & 1
    return s**popcount * (1.0 - s) ** (bits - popcount)


def _draw_codes(rng: np.random.Generator, count: int, weights: np.ndarray) -> np.ndarray:
    """Draw ``count`` i.i.d. codes from ``weights`` (chunked inverse CDF).

    A uniform ``u`` gets the code ``#{i : u >= cum[i]}``, counted over the
    inner edges of the cumulative table: the index ``searchsorted(cum, u,
    side="right")`` would return, found by a handful of vectorised
    comparisons instead of one binary search per draw.  Codes come in the
    narrowest unsigned dtype that holds ``len(weights) - 1``.
    """
    cum = np.cumsum(weights)
    out = np.empty(count, dtype=np.min_scalar_type(len(weights) - 1))
    hit = np.empty(min(count, _CODE_CHUNK), dtype=bool)
    for start in range(0, count, _CODE_CHUNK):
        stop = min(start + _CODE_CHUNK, count)
        u = rng.random(stop - start)
        codes = out[start:stop]
        codes[:] = 0
        for edge in cum[:-1]:
            np.greater_equal(u, edge, out=hit[: stop - start])
            codes += hit[: stop - start]
    return out


# _nonzero_weights is not _pattern_weights(s, bits)[1:] / total: numpy's
# array power and Python's float ``**`` round differently, and the two
# tables differ by up to 3 units in the last place in 100 of 796 (bits, s)
# pairs tried (bits 1 to 4, s on a 0.01 grid and 100 uniforms).  The draws
# compare uniforms against the cumulative table, so a merge would change the
# sampled codes.
def _nonzero_weights(s: float, bits: int) -> list[float]:
    """Law of a ``bits``-bit presence code given that it is non-zero, by code from 1."""
    total = 1.0 - (1.0 - s) ** bits
    weights = []
    for code in range(1, 1 << bits):
        w = code.bit_count()
        weights.append(s**w * (1.0 - s) ** (bits - w) / total)
    return weights


def _draw_nonzero_codes(rng: np.random.Generator, count: int, s: float, K: int) -> np.ndarray:
    """Draw ``count`` i.i.d. K-bit presence codes, each bit kept w.p. ``s``, given one is.

    Up to ``_CODE_GROUP_BITS`` bits a code is one draw from the table of
    all non-zero codes: one uniform and one comparison pass per table entry.
    Wider codes go in groups of that many bits, so the cost grows linearly
    in K: first the lowest non-zero group ``g``, with probability
    proportional to ``(1 - s)^(4 g) (1 - (1 - s)^width)``, then that
    group's non-zero code, then each higher group's code, zero included,
    from its own table.  Groups below ``g`` stay zero.  The law is exact at
    every K <= 64.  Codes come in the narrowest unsigned dtype with K bits.
    """
    dtype = _code_dtype(K)
    if count == 0:
        return np.zeros(0, dtype=dtype)
    if K <= _CODE_GROUP_BITS:
        codes = _draw_codes(rng, count, np.array(_nonzero_weights(s, K)))
        codes += 1
        return codes
    widths = [min(_CODE_GROUP_BITS, K - lo) for lo in range(0, K, _CODE_GROUP_BITS)]
    lowest = np.array(
        [(1.0 - s) ** (_CODE_GROUP_BITS * g) * (1.0 - (1.0 - s) ** w) for g, w in enumerate(widths)]
    )
    lowest = _draw_codes(rng, count, lowest / lowest.sum())
    codes = np.zeros(count, dtype=dtype)
    for g, width in enumerate(widths):
        shift = dtype.type(_CODE_GROUP_BITS * g)
        for rows, weights, offset in (
            (lowest == g, np.array(_nonzero_weights(s, width)), 1),
            (lowest < g, _pattern_weights(s, width), 0),
        ):
            rows = np.flatnonzero(rows)
            group = _draw_codes(rng, rows.size, weights).astype(dtype)
            group += dtype.type(offset)
            codes[rows] |= group << shift
    return codes
