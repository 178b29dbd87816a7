"""Undirected simple graphs, partial matchings and k-core peeling.

Vertices are 0-based integers below a fixed count ``n``.  A :class:`Graph`
is immutable once built.  Its one canonical form is the sorted array of
distinct packed keys ``lo * n + hi`` (``lo < hi``).  The ``(m, 2)`` edge
array decoded from them and the CSR adjacency, the sorted arc keys split
into row pointers and column indices, are cached properties, built on first
access, because bulk distribution tests create tens of thousands of
throwaway graphs whose neighbourhoods are never queried.  The edge array
is stored column by column, and the trial stages read the union graph's
edges as its two contiguous columns.

:func:`k_core` peels the edge columns it is given in rounds of whole-array
degree counts, and builds no adjacency.
:func:`intersection_graph` keeps the edges of one graph whose image under a
:class:`PartialMatching` is an edge of another.  The trial pipeline itself
never maps graphs through matchings: it selects union edges by their
retention codes.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Graph",
    "PartialMatching",
    "k_core",
    "intersection_graph",
    "write_edge_list",
]

# Largest n with n * n < 2**63, so every packed key fits in an int64.
_MAX_N = 3_037_000_499


def _require_integer(name: str, value, low: int | None = None) -> int:
    """``value`` as an int of at least ``low``; a bool or anything not a whole number fails."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, not {value}")
    return value


def _require_real(
    name: str, value, low: float | None = None, high: float | None = None, *, positive=False
) -> float:
    """``value`` as a finite float in ``[low, high]``, and above 0 when ``positive``.

    Anything but a real number, such as a bool or a string, is rejected, as
    are NaN and the infinities.  Here and in :func:`_require_integer` every
    rejection is a ``ValueError`` whose message starts with ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, not {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, not {value}")
    if positive and value <= 0:
        raise ValueError(f"{name} must be positive, not {value}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, not {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, not {value}")
    return value


def _pack(n: int, pairs: np.ndarray) -> np.ndarray:
    """Keys ``lo * n + hi`` of an (m, 2) array of pairs in either orientation."""
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return lo * np.int64(n) + hi


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct ``keys``; repeats drop by comparing neighbours."""
    keys = np.sort(keys)
    if keys.size > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


def _image_keys(
    n: int, u: np.ndarray, v: np.ndarray, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Packed keys of the pairs ``(f[u], f[v])`` under the dense map ``f``.

    ``f`` holds -1 for unmatched vertices.  Returns the mask of pairs whose
    endpoints are both matched, and the image keys of exactly those pairs.
    """
    fu = f[u]
    fv = f[v]
    ok = (fu >= 0) & (fv >= 0)
    if not ok.all():
        fu = fu[ok]
        fv = fv[ok]
    return ok, np.minimum(fu, fv) * np.int64(n) + np.maximum(fu, fv)


def _member(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Mask of ``queries`` present in the sorted key array ``keys``.

    The binary searches run in sorted query order, so consecutive probes
    walk ``keys`` forwards instead of jumping across it at random; on key
    arrays larger than the cache that is several times faster.
    """
    found = np.zeros(queries.shape[0], dtype=bool)
    if keys.size == 0:
        return found
    order = np.argsort(queries)
    q = queries[order]
    pos = np.searchsorted(keys, q)
    np.minimum(pos, keys.shape[0] - 1, out=pos)
    found[order] = keys[pos] == q
    return found


def _adjacency_csr(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric adjacency of sorted distinct edge keys as int64 ``(indptr, indices)``.

    Every edge gives two arcs, keyed ``row * n + col``: the edge key itself
    and its reverse ``hi * n + lo``.  Both runs are sorted, so one stable
    sort merges them, and the arc keys split into rows and columns.  Each
    row lists its smaller neighbours ascending, then its larger ones.
    """
    n = np.int64(n)
    lo, hi = np.divmod(keys, n)
    arcs = np.sort(np.concatenate((keys, np.sort(hi * n + lo))), kind="stable")
    rows, indices = np.divmod(arcs, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, indices


def _neighbour_sums(
    n: int, lo: np.ndarray, hi: np.ndarray, values: np.ndarray | None = None
) -> np.ndarray:
    """Per-vertex sums of ``values`` over the neighbours along the edges ``(lo[i], hi[i])``.

    Without ``values`` each vertex counts its edges: the int64 degrees.
    With vote weights of ±1 every partial sum is an exact integer in
    float64, so the result equals the adjacency matvec bit for bit whatever
    the summation order.
    """
    if values is None:
        return np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    return np.bincount(lo, weights=values[hi], minlength=n) + np.bincount(
        hi, weights=values[lo], minlength=n
    )


def _as_int64(values) -> np.ndarray:
    """``values`` as an int64 array, rejecting entries the cast would change."""
    raw = np.asarray(values)
    if raw.dtype == np.int64:
        return raw
    with np.errstate(invalid="ignore"):
        arr = raw.astype(np.int64)
    if not np.array_equal(arr, raw):
        raise ValueError("vertex labels must be integers")
    return arr


class Graph:
    """Immutable undirected simple graph on vertices ``0..n-1``.

    Self-loops and endpoints outside ``[0, n)`` are errors, as are edges not
    shaped ``(m, 2)``, non-integer endpoints and a non-integer ``n``;
    duplicate and reversed pairs collapse.
    """

    def __init__(self, n: int, edges=None):
        n = _require_integer("n", n, 0)
        if n > _MAX_N:
            raise ValueError(f"n={n} exceeds {_MAX_N}; packed edge keys would overflow int64")
        if edges is not None and not isinstance(edges, np.ndarray):
            edges = list(edges)
        arr = _as_int64(() if edges is None else edges)
        if not arr.size:
            arr = arr.reshape(0, 2)
        elif arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"edges must be shaped (m, 2), not {arr.shape}")
        elif arr.min() < 0 or arr.max() >= n:
            raise ValueError("edge endpoint out of range [0, n)")
        elif (arr[:, 0] == arr[:, 1]).any():
            raise ValueError("self-loops are not allowed")
        self._set_keys(n, _sorted_unique(_pack(n, arr)))

    @classmethod
    def _from_keys(cls, n: int, keys: np.ndarray) -> "Graph":
        """Graph on already-checked keys: sorted, distinct, in range, no loops."""
        g = cls.__new__(cls)
        g._set_keys(n, keys)
        return g

    def _set_keys(self, n: int, keys: np.ndarray) -> None:
        self.n = n
        self._keys = keys
        self._keys.setflags(write=False)

    # -- basic accessors ---------------------------------------------------

    @cached_property
    def edges(self) -> np.ndarray:
        """Canonical (m, 2) edge array, read-only, decoded from the keys on first access.

        It is stored in Fortran order, so each endpoint column is contiguous
        and ``u, v = g.edges.T`` gives two contiguous rows of a read-only
        ``(2, m)`` view, which bincounts and gathers read without a copy.
        """
        edges = np.empty((self._keys.shape[0], 2), dtype=np.int64, order="F")
        np.divmod(self._keys, np.int64(self.n), out=(edges[:, 0], edges[:, 1]))
        edges.setflags(write=False)
        return edges

    @property
    def edge_count(self) -> int:
        return self._keys.shape[0]

    # -- adjacency ---------------------------------------------------------

    @cached_property
    def _adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of the adjacency, built on first access (read-only)."""
        return _adjacency_csr(self.n, self._keys)

    def neighbors(self, v: int) -> set[int]:
        """Neighbour set of ``v``, a whole number in ``[0, n)``."""
        v = _require_integer("v", v, 0)
        if v >= self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")
        indptr, indices = self._adjacency
        return set(indices[indptr[v] : indptr[v + 1]].tolist())

    def packed_keys(self) -> np.ndarray:
        """Sorted distinct int64 keys ``lo * n + hi``, read-only."""
        return self._keys

    # -- dunder ------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.edge_count})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._keys, other._keys)

    def __hash__(self):  # pragma: no cover - graphs are not hashable
        raise TypeError("Graph is not hashable")


class PartialMatching:
    """Injective partial map between two vertex sets.

    Keys live in the source graph's labelling, values in the target's.  The
    map is stored as a dense int64 array indexed by source vertex, -1
    meaning unmatched, and trimmed after the last matched vertex so equal
    maps have equal arrays.  It is built from a mapping or ``(u, v)``
    pairs, or from a permutation, and construction checks that the map is
    injective with non-negative integer endpoints and that no vertex is
    matched twice.
    """

    __slots__ = ("_arr",)

    def __init__(self, mapping: Mapping[int, int] | Iterable[tuple[int, int]]):
        pairs = list(mapping.items() if isinstance(mapping, Mapping) else mapping)
        src = _as_int64([u for u, _ in pairs])
        dst = _as_int64([v for _, v in pairs])
        self._store(_checked_map(src, dst))

    @classmethod
    def _from_array(cls, arr: np.ndarray) -> "PartialMatching":
        """Wrap a dense map already known to be injective (-1 unmatched)."""
        mu = cls.__new__(cls)
        mu._store(arr)
        return mu

    def _store(self, arr: np.ndarray) -> None:
        matched = np.flatnonzero(arr >= 0)
        self._arr = arr[: matched[-1] + 1 if matched.size else 0]
        self._arr.setflags(write=False)

    @classmethod
    def from_permutation(cls, pi: Sequence[int]) -> "PartialMatching":
        """Matching ``v -> pi[v]`` for every ``v`` below ``len(pi)``."""
        pi = _as_int64(pi)
        if pi.ndim != 1:
            raise ValueError(f"pi must be one-dimensional, not shaped {pi.shape}")
        return cls._from_array(_checked_map(np.arange(pi.shape[0], dtype=np.int64), pi))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._arr >= 0))

    def get(self, v: int, default=None):
        """``mu[v]``, or ``default`` when ``v`` is not a matched integer label."""
        try:
            i = int(v)
        except (TypeError, ValueError, OverflowError):
            return default
        if i != v or not 0 <= i < self._arr.shape[0] or self._arr[i] < 0:
            return default
        return int(self._arr[i])

    def __contains__(self, v: int) -> bool:
        return self.get(v) is not None

    def __getitem__(self, v: int) -> int:
        image = self.get(v)
        if image is None:
            raise KeyError(v)
        return image

    def items(self) -> Iterator[tuple[int, int]]:
        """Matched pairs ``(u, mu[u])`` in increasing ``u``."""
        dom = np.flatnonzero(self._arr >= 0)
        return zip(dom.tolist(), self._arr[dom].tolist())

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._arr >= 0).tolist())

    def as_array(self, n: int) -> np.ndarray:
        """Dense int64 lookup of length ``n``; unmatched entries are -1."""
        size = self._arr.shape[0]
        if size > n:
            raise ValueError(f"matched vertex {size - 1} is outside [0, {n})")
        arr = np.full(n, -1, dtype=np.int64)
        arr[:size] = self._arr
        return arr

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialMatching):
            return NotImplemented
        return np.array_equal(self._arr, other._arr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartialMatching(size={len(self)})"


def _checked_map(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Dense array of the map ``src[i] -> dst[i]`` (-1 elsewhere), after checks.

    Rejects negative endpoints, a source vertex listed twice and two
    sources sent to one target.
    """
    if (src < 0).any() or (dst < 0).any():
        raise ValueError("matched vertices must be non-negative")
    if np.unique(src).size != src.size:
        raise ValueError("a vertex is matched twice")
    if np.unique(dst).size != dst.size:
        raise ValueError("matching must be injective")
    arr = np.full(int(src.max()) + 1 if src.size else 0, -1, dtype=np.int64)
    arr[src] = dst
    return arr


# -- core decomposition ----------------------------------------------------


def k_core(g: Graph, k: int) -> frozenset[int]:
    """Vertex set of the maximal induced subgraph with minimum degree >= k.

    Peels, round by round, every vertex of degree below ``k`` together with
    its edges.  The core is unique, so the peeling order does not matter.
    Returns the empty set when nothing survives.  ``k`` must be a whole
    number of at least 1.
    """
    k = _require_integer("k", k, 1)
    core = _core_mask(g.n, *g.edges.T, k)
    return frozenset(np.flatnonzero(core).tolist())


def _core_mask(n: int, lo: np.ndarray, hi: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k-core of the graph on ``0..n-1`` with edges ``(lo[i], hi[i])``.

    The edges must be distinct, in any order, and ``k`` at least 1, as both
    callers check.  Each round counts the degrees over the edges left and
    keeps only the edges whose ends both reach ``k``.  The peel stops once
    no vertex below ``k`` has an edge; the vertices at or above ``k`` are
    then the core.  At k = 1 that holds after the first count.  A round
    costs O(m + n), and sparse random graphs peel in a few dozen rounds,
    but a long chain is the worst case: a path at k = 2 loses only its two
    ends per round.
    """
    while True:
        deg = _neighbour_sums(n, lo, hi)
        core = deg >= k
        if not deg[~core].any():
            return core
        keep = core[lo] & core[hi]
        lo, hi = lo[keep], hi[keep]


# -- matched intersection --------------------------------------------------


def _matched_intersection_keys(g: Graph, h: Graph, to_h: np.ndarray) -> np.ndarray:
    """Keys of the ``g`` edges whose endpoints are matched and whose image is in ``h``.

    ``to_h`` is a dense lookup (g-label -> h-label, -1 for unmatched).  The
    result is a sorted subset of ``g``'s keys.
    """
    ok, img = _image_keys(h.n, *g.edges.T, to_h)
    return g.packed_keys()[np.flatnonzero(ok)[_member(h.packed_keys(), img)]]


def intersection_graph(g: Graph, h: Graph, mu: PartialMatching) -> Graph:
    """Graph on ``g``'s vertices with the edges present in both ``g`` and ``h``.

    An edge (u, v) of ``g`` survives when both endpoints are matched and
    (mu[u], mu[v]) is an edge of ``h``; the matched set is ``mu.domain``.
    """
    to_h = mu.as_array(g.n)
    if to_h.max(initial=-1) >= h.n:
        raise ValueError("matched vertex outside the target graph")
    return Graph._from_keys(g.n, _matched_intersection_keys(g, h, to_h))


# -- plain-text edge-list IO -------------------------------------------------


def write_edge_list(g: Graph, path) -> None:
    """Write ``n m`` on the first line, then one ``u v`` pair per line."""
    lines = [f"{g.n} {g.edge_count}\n"]
    lines.extend(f"{u} {v}\n" for u, v in g.edges.tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(lines))
