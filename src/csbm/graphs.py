"""Undirected simple graphs, partial matchings and k-core peeling.

Vertices are 0-based integers below a fixed count ``n``.  A :class:`Graph`
is immutable once built.  Its one canonical form is the sorted array of
distinct packed keys ``lo * n + hi`` (``lo < hi``), from which the ``(m, 2)``
edge array is decoded; the CSR adjacency is built lazily because bulk
distribution tests create tens of thousands of throwaway graphs whose
neighbourhoods are never queried.

:func:`intersection_graph` keeps the edges of one graph whose image under a
partial matching is an edge of another; the result's ``vertices`` attribute
records the matching domain.  The trial pipeline itself never maps graphs
through matchings: it selects parent edges by their retention codes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix

__all__ = [
    "Graph",
    "PartialMatching",
    "k_core",
    "intersection_graph",
    "write_edge_list",
    "read_edge_list",
]

# Largest n with n * n < 2**63, so every packed key fits in an int64.
_MAX_N = 3_037_000_499


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


def _adjacency_csr(n: int, edges: np.ndarray) -> csr_matrix:
    """Symmetric 0/1 adjacency of an edge array as a float64 CSR matrix.

    The edge rows must be in key order (``lo < hi``, sorted by ``lo`` then
    ``hi``), as :attr:`Graph.edges` and every row subset of it are.  The
    reverse arcs then go first: scipy's stable row sort leaves each row as
    its smaller neighbours ascending followed by its larger ones, already
    sorted and free of duplicates, so the canonicalising passes are skipped.
    """
    if len(edges) == 0:
        return csr_matrix((n, n))
    lo = edges[:, 0]
    hi = edges[:, 1]
    rows = np.concatenate([hi, lo])
    cols = np.concatenate([lo, hi])
    data = np.ones(len(rows), dtype=np.float64)
    return csr_matrix((data, (rows, cols)), shape=(n, n))


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

    ``vertices`` optionally restricts the vertex set (used by
    :func:`intersection_graph` to record the matching domain); when
    omitted the graph lives on all of ``0..n-1``.  Self-loops and endpoints
    outside ``[0, n)`` are errors, as are edges not shaped ``(m, 2)`` and
    non-integer endpoints; duplicate and reversed pairs collapse.
    """

    __slots__ = ("n", "_keys", "_edges", "_vertices", "_csr")

    def __init__(self, n: int, edges=None, vertices: Iterable[int] | None = None):
        if n < 0:
            raise ValueError("n must be non-negative")
        if n > _MAX_N:
            raise ValueError(f"n={n} exceeds {_MAX_N}; packed edge keys would overflow int64")
        n = int(n)
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
        vs = None
        if vertices is not None:
            vs, mask = _vertex_mask(n, vertices)
            if not mask[arr].all():
                raise ValueError("edge endpoint outside the declared vertex set")
        self._set_keys(n, _sorted_unique(_pack(n, arr)), vs)

    @classmethod
    def _from_keys(
        cls, n: int, keys: np.ndarray, vertices: frozenset[int] | None = None
    ) -> "Graph":
        """Graph on already-checked keys: sorted, distinct, in range, no loops.

        ``vertices``, when given, must contain every endpoint.
        """
        g = cls.__new__(cls)
        g._set_keys(n, keys, vertices)
        return g

    def _set_keys(self, n: int, keys: np.ndarray, vertices: frozenset[int] | None) -> None:
        self.n = n
        self._keys = keys
        self._keys.setflags(write=False)
        self._edges = np.stack(np.divmod(keys, np.int64(n)), axis=1)
        self._edges.setflags(write=False)
        self._vertices = vertices
        self._csr = None

    # -- basic accessors ---------------------------------------------------

    @property
    def edges(self) -> np.ndarray:
        """Canonical (m, 2) edge array, read-only."""
        return self._edges

    @property
    def edge_count(self) -> int:
        return self._edges.shape[0]

    @property
    def vertices(self) -> frozenset[int]:
        if self._vertices is None:
            return frozenset(range(self.n))
        return self._vertices

    def edge_set(self) -> set[tuple[int, int]]:
        """Edges as a set of (lo, hi) tuples; convenient in tests."""
        return {(int(u), int(v)) for u, v in self._edges}

    # -- adjacency ---------------------------------------------------------

    def _adjacency(self) -> csr_matrix:
        """Lazily built symmetric CSR adjacency (treat as read-only)."""
        if self._csr is None:
            self._csr = _adjacency_csr(self.n, self._edges)
        return self._csr

    def _row(self, v: int) -> np.ndarray:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")
        csr = self._adjacency()
        return csr.indices[csr.indptr[v] : csr.indptr[v + 1]]

    def neighbors(self, v: int) -> set[int]:
        """Neighbour set of ``v``."""
        return set(self._row(v).tolist())

    def degree(self, v: int) -> int:
        return len(self._row(v))

    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an int64 array."""
        deg = np.zeros(self.n, dtype=np.int64)
        if self._edges.size:
            deg += np.bincount(self._edges[:, 0], minlength=self.n)
            deg += np.bincount(self._edges[:, 1], minlength=self.n)
        return deg

    def has_edge(self, u: int, v: int) -> bool:
        row = self._row(u)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")
        return bool((row == v).any())

    def packed_keys(self) -> np.ndarray:
        """Sorted distinct int64 keys ``lo * n + hi``, read-only."""
        return self._keys

    def contains_edges(self, pairs: np.ndarray) -> np.ndarray:
        """Vectorised membership for an (m, 2) array of candidate pairs.

        Pairs need not be ordered; rows with equal endpoints test False.
        Endpoints outside ``[0, n)`` are an error.
        """
        if pairs.size == 0:
            return np.zeros(0, dtype=bool)
        if pairs.min() < 0 or pairs.max() >= self.n:
            raise ValueError("pair endpoint out of range [0, n)")
        return _member(self._keys, _pack(self.n, pairs))

    # -- dunder ------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.edge_count})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.vertices == other.vertices
            and np.array_equal(self._keys, other._keys)
        )

    def __hash__(self):  # pragma: no cover - graphs are not hashable
        raise TypeError("Graph is not hashable")


class PartialMatching:
    """Injective partial map between two vertex sets.

    Keys live in the source graph's labelling, values in the target's.  The
    map is stored as a dense int64 array indexed by source vertex, -1
    meaning unmatched, and trimmed after the last matched vertex so equal
    maps have equal arrays.  Construction checks that the map is injective
    with non-negative integer endpoints and that no vertex is matched twice.
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
    def identity(cls, vertices: Iterable[int]) -> "PartialMatching":
        vs = np.unique(_as_int64(list(vertices)))
        return cls._from_array(_checked_map(vs, vs))

    @classmethod
    def from_permutation(
        cls, pi: Sequence[int], domain: Iterable[int] | None = None
    ) -> "PartialMatching":
        """Matching ``v -> pi[v]``, optionally restricted to ``domain``."""
        pi = _as_int64(pi)
        if pi.ndim != 1:
            raise ValueError(f"pi must be one-dimensional, not shaped {pi.shape}")
        if domain is None:
            src = np.arange(pi.shape[0], dtype=np.int64)
        else:
            src = np.unique(_as_int64(list(domain)))
            if src.size and (src[0] < 0 or src[-1] >= pi.shape[0]):
                raise ValueError("domain vertex outside the permutation")
        return cls._from_array(_checked_map(src, pi[src]))

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

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self._arr[self._arr >= 0].tolist())

    def inverse(self) -> "PartialMatching":
        dom = np.flatnonzero(self._arr >= 0)
        img = self._arr[dom]
        inv = np.full(int(img.max()) + 1 if img.size else 0, -1, dtype=np.int64)
        inv[img] = dom
        return PartialMatching._from_array(inv)

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

    Peels every vertex of degree below ``k``, cascading the degree loss to
    its neighbours through the CSR adjacency.  The core is unique, so the
    peeling order does not matter.  Returns the empty set when nothing
    survives.
    """
    return frozenset(np.flatnonzero(_core_mask(g, k)).tolist())


def _core_mask(g: Graph, k: int) -> np.ndarray:
    """Boolean mask of the vertices in the k-core of ``g``."""
    if k < 1:
        raise ValueError("k must be at least 1")
    deg = g.degrees()
    removed = deg < k
    if not deg[removed].any():
        # Only isolated vertices go, so no degree drops and nothing cascades.
        return ~removed
    csr = g._adjacency()
    indptr, indices = csr.indptr, csr.indices
    stack = np.flatnonzero(removed).tolist()
    deg = deg.tolist()
    while stack:
        v = stack.pop()
        for u in indices[indptr[v] : indptr[v + 1]].tolist():
            deg[u] -= 1
            if deg[u] < k and not removed[u]:
                removed[u] = True
                stack.append(u)
    return ~removed


def _vertex_mask(n: int, vertices: Iterable[int]) -> tuple[frozenset[int], np.ndarray]:
    """A vertex set and its boolean mask over ``0..n-1``, range-checked."""
    arr = _as_int64(list(vertices))
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValueError("vertex out of range [0, n)")
    mask = np.zeros(n, dtype=bool)
    mask[arr] = True
    return frozenset(arr.tolist()), mask


# -- matched intersection --------------------------------------------------


def _matched_intersection_keys(g: Graph, h: Graph, to_h: np.ndarray) -> np.ndarray:
    """Keys of the ``g`` edges whose endpoints are matched and whose image is in ``h``.

    ``to_h`` is a dense lookup (g-label -> h-label, -1 for unmatched).  The
    result is a sorted subset of ``g``'s keys.
    """
    e = g.edges
    ok, img = _image_keys(h.n, e[:, 0], e[:, 1], to_h)
    return g.packed_keys()[np.flatnonzero(ok)[_member(h.packed_keys(), img)]]


def _map_into(mu: PartialMatching, g: Graph, h: Graph) -> np.ndarray:
    """``mu`` as a dense map from ``g``'s vertices into ``h``'s, range-checked."""
    f = mu.as_array(g.n)
    if f.max(initial=-1) >= h.n:
        raise ValueError("matched vertex outside the target graph")
    return f


def intersection_graph(g: Graph, h: Graph, mu: PartialMatching) -> Graph:
    """Graph on ``mu``'s domain with edges present in both ``g`` and ``h``.

    An edge (u, v) of ``g`` survives when both endpoints are matched and
    (mu[u], mu[v]) is an edge of ``h``.
    """
    keys = _matched_intersection_keys(g, h, _map_into(mu, g, h))
    return Graph._from_keys(g.n, keys, mu.domain)


# -- plain-text edge-list IO -------------------------------------------------


def write_edge_list(g: Graph, path) -> None:
    """Write ``n m`` on the first line, then one ``u v`` pair per line."""
    lines = [f"{g.n} {g.edge_count}\n"]
    lines.extend(f"{u} {v}\n" for u, v in g.edges.tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(lines))


def read_edge_list(path) -> Graph:
    """Inverse of :func:`write_edge_list`."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("edge-list header must be '<n> <m>'")
        n, m = int(header[0]), int(header[1])
        edges = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            u, v = line.split()
            edges.append((int(u), int(v)))
    if len(edges) != m:
        raise ValueError(f"edge count mismatch: header says {m}, found {len(edges)}")
    return Graph(n, edges)
