"""Undirected simple graphs and the small graph algebra used everywhere else.

Vertices are 0-based integers below a fixed count ``n``.  A :class:`Graph`
is immutable once built.  Its one canonical form is the sorted array of
distinct packed keys ``lo * n + hi`` (``lo < hi``), from which the ``(m, 2)``
edge array is decoded; the CSR adjacency is built lazily because bulk
distribution tests create tens of thousands of throwaway graphs whose
neighbourhoods are never queried.

The algebra operations (:func:`intersection_graph`, :func:`union_graph`,
:func:`difference_graph`) each take partial vertex matchings and return new
graphs whose ``vertices`` attribute records the domain they were built on.
The recovery pipeline calls the same private cores (``_pullback_union`` and
``_surviving``) on dense matching arrays.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix

__all__ = [
    "Graph",
    "PartialMatching",
    "k_core",
    "induced_subgraph",
    "intersection_graph",
    "union_graph",
    "difference_graph",
    "neighborhood_majority",
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


def _packed_unique(n: int, pairs: np.ndarray) -> np.ndarray:
    """Sorted distinct keys of ``pairs``; repeats drop by comparing neighbours."""
    keys = np.sort(_pack(n, pairs))
    if keys.size > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


def _map_edges(edges: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Images of ``edges`` under the dense map ``f`` (-1 means unmatched).

    Returns the mask of rows whose endpoints are both matched, and the image
    pairs of exactly those rows.
    """
    img = f[edges]
    ok = (img >= 0).all(axis=1)
    return ok, img[ok]


def _adjacency_csr(n: int, edges: np.ndarray) -> csr_matrix:
    """Symmetric 0/1 adjacency of an edge array as a float64 CSR matrix."""
    if len(edges) == 0:
        return csr_matrix((n, n))
    u = edges[:, 0]
    v = edges[:, 1]
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    data = np.ones(len(rows), dtype=np.float64)
    return csr_matrix((data, (rows, cols)), shape=(n, n))


class Graph:
    """Immutable undirected simple graph on vertices ``0..n-1``.

    ``vertices`` optionally restricts the vertex set (used by the algebra
    operations to record the matching domain a graph was built on); when
    omitted the graph lives on all of ``0..n-1``.  Self-loops and endpoints
    outside ``[0, n)`` are errors; duplicate and reversed pairs collapse.
    """

    __slots__ = ("n", "_keys", "_edges", "_vertices", "_csr")

    def __init__(self, n: int, edges=None, vertices: Iterable[int] | None = None):
        if n < 0:
            raise ValueError("n must be non-negative")
        if n > _MAX_N:
            raise ValueError(f"n={n} exceeds {_MAX_N}; packed edge keys would overflow int64")
        self.n = int(n)
        if edges is None:
            arr = np.empty((0, 2), dtype=np.int64)
        elif isinstance(edges, np.ndarray):
            arr = edges.astype(np.int64, copy=False).reshape(-1, 2)
        else:
            arr = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        if arr.size:
            if arr.min() < 0 or arr.max() >= self.n:
                raise ValueError("edge endpoint out of range [0, n)")
            if (arr[:, 0] == arr[:, 1]).any():
                raise ValueError("self-loops are not allowed")
        self._keys = _packed_unique(self.n, arr)
        self._keys.setflags(write=False)
        self._edges = np.stack(np.divmod(self._keys, np.int64(self.n)), axis=1)
        self._edges.setflags(write=False)
        if vertices is None:
            self._vertices = None
        else:
            vs = frozenset(int(v) for v in vertices)
            if vs and (min(vs) < 0 or max(vs) >= self.n):
                raise ValueError("vertex out of range [0, n)")
            mask = np.zeros(self.n, dtype=bool)
            mask[list(vs)] = True
            if not mask[self._edges].all():
                raise ValueError("edge endpoint outside the declared vertex set")
            self._vertices = vs
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
        keys = _pack(self.n, pairs)
        pos = np.searchsorted(self._keys, keys)
        found = pos < self._keys.shape[0]
        found[found] = self._keys[pos[found]] == keys[found]
        return found

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
    mapping is validated to be injective with non-negative endpoints.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping[int, int] | Iterable[tuple[int, int]]):
        m = {int(u): int(v) for u, v in dict(mapping).items()}
        if any(u < 0 for u in m) or any(v < 0 for v in m.values()):
            raise ValueError("matched vertices must be non-negative")
        if len(set(m.values())) != len(m):
            raise ValueError("matching must be injective")
        self._map = m

    @classmethod
    def identity(cls, vertices: Iterable[int]) -> "PartialMatching":
        return cls({int(v): int(v) for v in vertices})

    @classmethod
    def from_permutation(cls, pi: Sequence[int], domain: Iterable[int] | None = None) -> "PartialMatching":
        """Matching ``v -> pi[v]``, optionally restricted to ``domain``."""
        if domain is None:
            return cls({v: int(pi[v]) for v in range(len(pi))})
        return cls({int(v): int(pi[int(v)]) for v in domain})

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, v: int) -> bool:
        return int(v) in self._map

    def __getitem__(self, v: int) -> int:
        return self._map[int(v)]

    def get(self, v: int, default=None):
        return self._map.get(int(v), default)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._map.items()))

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self._map)

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self._map.values())

    def inverse(self) -> "PartialMatching":
        return PartialMatching({v: u for u, v in self._map.items()})

    def as_array(self, n: int) -> np.ndarray:
        """Dense int64 lookup of length ``n``; unmatched entries are -1."""
        arr = np.full(n, -1, dtype=np.int64)
        for u, v in self._map.items():
            arr[u] = v
        return arr

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialMatching):
            return NotImplemented
        return self._map == other._map

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartialMatching(size={len(self._map)})"


# -- core decomposition ----------------------------------------------------


def k_core(g: Graph, k: int) -> frozenset[int]:
    """Vertex set of the maximal induced subgraph with minimum degree >= k.

    Peels every vertex of degree below ``k``, cascading the degree loss to
    its neighbours through the CSR adjacency.  The core is unique, so the
    peeling order does not matter.  Returns the empty set when nothing
    survives.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    csr = g._adjacency()
    indptr, indices = csr.indptr, csr.indices
    deg = g.degrees()
    removed = deg < k
    stack = np.flatnonzero(removed).tolist()
    deg = deg.tolist()
    while stack:
        v = stack.pop()
        for u in indices[indptr[v] : indptr[v + 1]].tolist():
            deg[u] -= 1
            if deg[u] < k and not removed[u]:
                removed[u] = True
                stack.append(u)
    return frozenset(np.flatnonzero(~removed).tolist())


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices`` (kept at the same vertex count)."""
    keep = frozenset(int(v) for v in vertices)
    mask = np.zeros(g.n, dtype=bool)
    mask[list(keep)] = True
    e = g.edges
    return Graph(g.n, e[mask[e].all(axis=1)], vertices=keep)


# -- matched-graph algebra ---------------------------------------------------


def _matched_intersection_edges(g: Graph, h: Graph, to_h: np.ndarray) -> np.ndarray:
    """Edges of ``g`` whose endpoints are matched and whose image is in ``h``.

    ``to_h`` is a dense lookup (g-label -> h-label, -1 for unmatched).
    """
    ok, img = _map_edges(g.edges, to_h)
    return g.edges[ok][h.contains_edges(img)]


def _pullback_union(
    graphs: Sequence[Graph],
    maps: Sequence[np.ndarray],
    member: np.ndarray | None = None,
    vertices: Iterable[int] | None = None,
) -> Graph:
    """Union of ``graphs`` pulled back into one labelling, inside ``member``.

    ``maps[i]`` is a dense map from that labelling into ``graphs[i]``'s
    labels, -1 meaning unmatched; it must be injective on its matched
    entries.  An edge contributes when both endpoints have a preimage in
    the boolean ``member`` mask (all vertices when None).
    """
    n = graphs[0].n
    src = np.arange(n) if member is None else np.flatnonzero(member)
    blocks = []
    for g, f in zip(graphs, maps):
        back = np.full(n, -1, dtype=np.int64)
        matched = src[f[src] >= 0]
        back[f[matched]] = matched
        blocks.append(_map_edges(g.edges, back)[1])
    return Graph(n, np.concatenate(blocks), vertices=vertices)


def _surviving(edges: np.ndarray, subtract) -> np.ndarray:
    """Mask of ``edges`` whose image is an edge of no subtracted graph.

    ``subtract`` yields ``(h, to_h)`` pairs with ``to_h`` a dense map into
    ``h``'s labels (-1 unmatched).  An edge with an unmatched endpoint is
    never removed by that graph.
    """
    alive = np.ones(len(edges), dtype=bool)
    for h, to_h in subtract:
        ok, img = _map_edges(edges, to_h)
        alive[np.flatnonzero(ok)[h.contains_edges(img)]] = False
    return alive


def intersection_graph(g: Graph, h: Graph, mu: PartialMatching) -> Graph:
    """Graph on ``mu``'s domain with edges present in both ``g`` and ``h``.

    An edge (u, v) of ``g`` survives when both endpoints are matched and
    (mu[u], mu[v]) is an edge of ``h``.
    """
    to_h = mu.as_array(g.n)
    return Graph(g.n, _matched_intersection_edges(g, h, to_h), vertices=mu.domain)


def union_graph(
    graphs: Sequence[Graph],
    matchings: Sequence[PartialMatching],
    domain: Iterable[int] | None = None,
) -> Graph:
    """Union of ``graphs[0]`` with the pullbacks of the remaining graphs.

    ``matchings[i]`` maps ``graphs[0]``'s labels into ``graphs[i + 1]``'s.
    The result lives on the common matching domain (their intersection), or
    on an explicit ``domain``; passing a single graph with ``domain`` covers
    the degenerate one-graph case.  Edges of a non-anchor graph contribute
    only when both endpoints pull back into the domain.
    """
    if not graphs:
        raise ValueError("union of no graphs")
    if len(matchings) != len(graphs) - 1:
        raise ValueError("need exactly one matching per non-anchor graph")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("all graphs must share the same vertex count")
    if domain is not None:
        dom = frozenset(int(v) for v in domain)
    else:
        if not matchings:
            raise ValueError("domain is required when no matchings are given")
        dom = frozenset.intersection(*(mu.domain for mu in matchings))
    mask = np.zeros(n, dtype=bool)
    mask[list(dom)] = True
    maps = [np.arange(n)] + [mu.as_array(n) for mu in matchings]
    return _pullback_union(graphs, maps, mask, vertices=dom)


def difference_graph(
    g: Graph,
    subtract: Sequence[tuple[Graph, PartialMatching]],
    restrict_to: Iterable[int],
) -> Graph:
    """Edges of ``g`` inside ``restrict_to`` that appear in no subtracted graph.

    Each entry of ``subtract`` pairs a graph with a matching from ``g``'s
    labels into that graph's.  An edge is removed only when both endpoints
    are matched and the image pair is an edge there; edges with an unmatched
    endpoint survive.  An empty ``restrict_to`` is rejected.
    """
    dom = frozenset(int(v) for v in restrict_to)
    if not dom:
        raise ValueError("restrict_to must be non-empty")
    mask = np.zeros(g.n, dtype=bool)
    mask[list(dom)] = True
    e = g.edges[mask[g.edges].all(axis=1)]
    alive = _surviving(e, ((h, mu.as_array(g.n)) for h, mu in subtract))
    return Graph(g.n, e[alive], vertices=dom)


def neighborhood_majority(
    g: Graph,
    labels: Sequence[int] | np.ndarray,
    v: int,
    restrict_to: Iterable[int] | None = None,
) -> int:
    """Signed sum of neighbour labels of ``v``, optionally within a vertex set.

    Returns the integer sum (positive, negative, or 0 on a tie or empty
    neighbourhood); the caller decides what to do with ties.
    """
    lab = np.asarray(labels)
    nbrs = g.neighbors(v)
    if restrict_to is not None:
        allowed = restrict_to if isinstance(restrict_to, (set, frozenset)) else frozenset(restrict_to)
        return int(sum(int(lab[u]) for u in nbrs if u in allowed))
    return int(sum(int(lab[u]) for u in nbrs))


# -- plain-text edge-list IO -------------------------------------------------


def write_edge_list(g: Graph, path) -> None:
    """Write ``n m`` on the first line, then one ``u v`` pair per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.n} {g.edge_count}\n")
        for u, v in g.edges:
            fh.write(f"{int(u)} {int(v)}\n")


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
