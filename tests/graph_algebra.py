"""The mapped-graph kernels the trial pipeline ran before it read retention codes.

They map whole child graphs through dense matching arrays and are kept here,
verbatim, as the independent reference that the anchored kernels of
``csbm.recovery`` and ``csbm.generate`` are compared against.  The path
composition that ``csbm.matching`` used for the good step and the exact
matching estimator is kept here too: shortest anchor paths over a
metagraph's pairs, a family's matchings as dense arrays, and the walk that
composes them.
"""

from collections import deque
from typing import Sequence

import numpy as np

from csbm.graphs import Graph, _image_keys, _member, _sorted_unique


def _pullback_union(
    graphs: Sequence[Graph],
    maps: Sequence[np.ndarray],
    member: np.ndarray | None = None,
    vertices: frozenset[int] | None = None,
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
        e = g.edges
        blocks.append(_image_keys(n, e[:, 0], e[:, 1], back)[1])
    return Graph._from_keys(n, _sorted_unique(np.concatenate(blocks)), vertices)


def _surviving(u: np.ndarray, v: np.ndarray, subtract) -> np.ndarray:
    """Mask of the pairs ``(u[i], v[i])`` whose image is an edge of no subtracted graph.

    ``subtract`` yields ``(h, to_h)`` pairs with ``to_h`` a dense map into
    ``h``'s labels (-1 unmatched).  A pair with an unmatched endpoint is
    never removed by that graph.
    """
    alive = np.ones(u.shape[0], dtype=bool)
    for h, to_h in subtract:
        ok, img = _image_keys(h.n, u, v, to_h)
        alive[np.flatnonzero(ok)[_member(h.packed_keys(), img)]] = False
    return alive


def _anchor_paths(
    K: int, pairs: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, ...] | None, ...]:
    """Shortest paths from the anchor to every node, by one breadth-first search.

    Neighbours are scanned in increasing order and each node keeps its first
    predecessor, which yields the lexicographically smallest node sequence
    among shortest paths.  Unreached nodes get None.
    """
    neighbours: list[list[int]] = [[] for _ in range(K)]
    for i, j in pairs:
        neighbours[i].append(j)
        neighbours[j].append(i)
    parent = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in sorted(neighbours[u]):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    paths: list[tuple[int, ...] | None] = []
    for j in range(K):
        if j not in parent:
            paths.append(None)
            continue
        path = [j]
        while path[-1] != 0:
            path.append(parent[path[-1]])
        paths.append(tuple(reversed(path)))
    return tuple(paths)


def map_array(fam, i: int, j: int) -> np.ndarray:
    """Dense lookup from graph-i labels to graph-j labels (-1 unmatched)."""
    if i == j:
        raise ValueError("i and j must differ")
    lo, hi = (i, j) if i < j else (j, i)
    mu = fam.matchings[(lo, hi)]
    return (mu if (i, j) == (lo, hi) else mu.inverse()).as_array(fam.n)


def _compose_array_along_path(fam, path: tuple[int, ...]) -> np.ndarray:
    """Vectorised walk: anchor labels through ``path`` to its last graph.

    ``path`` starts at the anchor; each hop applies one pairwise matching,
    and a vertex that some hop leaves unmatched maps to -1.
    """
    x = np.arange(fam.n, dtype=np.int64)
    for a, b in zip(path, path[1:]):
        arr = map_array(fam, a, b)
        valid = x >= 0
        x = np.where(valid, arr[np.where(valid, x, 0)], -1)
    return x
