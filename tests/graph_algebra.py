"""The mapped-graph kernels the trial pipeline ran before it read retention codes.

They map whole child graphs through dense matching arrays and are kept here,
verbatim, as the independent reference that the anchored kernels of
``csbm.recovery`` and ``csbm.generate`` are compared against.
"""

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
