"""Empirical certificate that exact recovery fails below threshold.

The failure argument looks at vertices whose anchor-child edges are entirely
invisible to the other children: ``R*`` collects the vertices isolated in
the intersection of child 1 with the union ``H`` of children 2..K (all in
anchor labels, via the ground-truth permutations, where both are sets of
union edges picked out by their retention codes).  ``S*`` keeps those that
are additionally isolated within ``R*`` in child 1 and whose child-1
neighbours stay clear of the H-neighbourhood of ``R*``; labels of ``S*``
vertices can be permuted without changing the likelihood ordering except
through their child-1 majorities.  Every scan here reads only the
instance's union edges (the edges some child keeps, ``inst.parent``) with
their retention codes, and past ``R*`` only those with an end in ``R*``.
A *witness* is a crossing pair: with ``a > b``, some plus-community
vertex of ``S*`` whose majority is strictly smaller than that of some
minus-community vertex (directions reversed for ``a < b``).  Whenever
such a pair exists, the optimal estimator must misclassify at least one
vertex, so exact recovery fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generate import CorrelatedInstance
from .graphs import _neighbour_sums

__all__ = [
    "SingletonReport",
    "map_failure_witness",
]


@dataclass(frozen=True, eq=False)
class SingletonReport:
    """Singleton sets, majorities over ``S*`` and the witness verdict.

    ``r_star`` and ``s_star`` are sorted, read-only int64 index arrays, like
    :class:`~csbm.matching.VertexClass`; ``maj[t]`` is the child-1
    majority of vertex ``s_star[t]``.  ``witness_found`` stays None when
    ``a = b`` (no defined direction).  ``witness_pair`` is the crossing pair
    (plus-side vertex, minus-side vertex) when found.
    """

    r_star: np.ndarray
    s_star: np.ndarray
    maj: np.ndarray
    witness_found: bool | None = None
    witness_pair: tuple[int, int] | None = None


def _marked(n: int, ends: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """Mask over ``0..n-1`` of the vertices ``ends[i]`` of the selected rows ``i``."""
    mask = np.zeros(n, dtype=bool)
    mask[ends[np.flatnonzero(selected)]] = True
    return mask


def _singletons(inst: CorrelatedInstance):
    """Masks of ``R*`` and ``S*``, and the union edges ``u, v, in_g1`` with an end in ``R*``."""
    if inst.K < 2:
        raise ValueError("singleton sets need at least two children")
    n = inst.n
    u, v = inst.parent.edges.T
    codes = inst.edge_codes
    in_g1 = (codes & 1) != 0
    in_h = (codes >> 1) != 0
    shared = in_g1 & in_h
    r_mask = ~(_marked(n, u, shared) | _marked(n, v, shared))
    # Every later test needs an end in R*, so keep only those edges.
    near = np.flatnonzero(r_mask[u] | r_mask[v])
    u, v, in_g1, in_h = u.take(near), v.take(near), in_g1.take(near), in_h.take(near)
    barred = r_mask | _marked(n, v, in_h & r_mask[u]) | _marked(n, u, in_h & r_mask[v])
    excluded = _marked(n, u, in_g1 & r_mask[u] & barred[v]) | _marked(
        n, v, in_g1 & r_mask[v] & barred[u]
    )
    return r_mask, r_mask & ~excluded, u, v, in_g1


def map_failure_witness(inst: CorrelatedInstance) -> SingletonReport:
    """Full report: singleton sets, majorities over S*, witness verdict.

    ``maj(i)`` is the signed sum of ground-truth labels over i's child-1
    neighbours.  The verdict needs a direction: with ``a > b`` the witness
    is a pair (i in S* with sigma+ , j in S* with sigma-) whose majorities
    satisfy ``maj(i) < maj(j)``; with ``a < b`` the inequality reverses.
    When ``a = b`` the verdict is undefined and stays None (majorities are
    still reported).  Ties in the extremal choice break toward the smallest
    vertex index.  Only the child-1 edges with an end in ``S*`` are summed.
    """
    r_mask, s_mask, u, v, in_g1 = _singletons(inst)
    # S* lies inside R*, so these edges hold every child-1 edge at S*.
    rows = np.flatnonzero(in_g1 & (s_mask[u] | s_mask[v]))
    sigma = inst.sigma_star.astype(np.float64)
    maj_all = _neighbour_sums(inst.n, u.take(rows), v.take(rows), sigma).astype(np.int64)
    s_star = np.flatnonzero(s_mask)
    maj = maj_all[s_star]
    a, b = inst.params.a, inst.params.b
    witness_found: bool | None = None
    witness_pair: tuple[int, int] | None = None
    if a != b:
        # With the sign folded in, the plus side's smallest key must fall
        # below the minus side's largest; argmin/argmax keep the first
        # (smallest) vertex on ties.
        key = maj if a > b else -maj
        plus = np.flatnonzero(inst.sigma_star[s_star] > 0)
        minus = np.flatnonzero(inst.sigma_star[s_star] < 0)
        witness_found = False
        if plus.size and minus.size:
            i = plus[np.argmin(key[plus])]
            j = minus[np.argmax(key[minus])]
            witness_found = bool(key[i] < key[j])
            if witness_found:
                witness_pair = (int(s_star[i]), int(s_star[j]))
    r_star = np.flatnonzero(r_mask)
    for arr in (r_star, s_star, maj):
        arr.setflags(write=False)
    return SingletonReport(r_star, s_star, maj, witness_found, witness_pair)
