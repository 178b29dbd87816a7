"""Empirical certificate that exact recovery fails below threshold.

The failure argument looks at vertices whose anchor-child edges are entirely
invisible to the other children: ``R*`` collects the vertices isolated in
the intersection of child 1 with the union ``H`` of children 2..K (all in
anchor labels, via the ground-truth permutations).  ``S*`` keeps those that
are additionally isolated within ``R*`` in child 1 and whose child-1
neighbours stay clear of the H-neighbourhood of ``R*``; labels of ``S*``
vertices can be permuted without changing the likelihood ordering except
through their child-1 majorities.  A *witness* is a crossing pair: with
``a > b``, some plus-community vertex of ``S*`` whose majority is strictly
smaller than that of some minus-community vertex (directions reversed for
``a < b``).  Whenever such a pair exists, the optimal estimator must
misclassify at least one vertex, so exact recovery fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generate import CorrelatedInstance
from .graphs import Graph, _member, _pullback_union

__all__ = [
    "SingletonReport",
    "singleton_sets",
    "map_failure_witness",
]


@dataclass(frozen=True)
class SingletonReport:
    """Singleton sets plus (optionally) majorities and the witness verdict.

    ``maj`` and ``witness_found`` are None when not computed:
    :func:`singleton_sets` fills only the two sets, and the witness verdict
    stays None when ``a = b`` (no defined direction).  ``witness_pair`` is
    the crossing pair (plus-side vertex, minus-side vertex) when found.
    """

    r_star: frozenset[int]
    s_star: frozenset[int]
    maj: dict[int, int] | None = None
    witness_found: bool | None = None
    witness_pair: tuple[int, int] | None = None


def _anchored_children_union(inst: CorrelatedInstance) -> Graph:
    """Union of children 2..K pulled back to anchor labels."""
    return _pullback_union(inst.children[1:], inst.pi_star[1:])


def singleton_sets(inst: CorrelatedInstance) -> SingletonReport:
    """Compute ``R*`` and ``S*`` for one instance (K >= 2).

    ``R*``: vertices with no child-1 edge that survives into the union of
    the other children.  ``S*``: vertices of ``R*`` with no child-1
    neighbour inside ``R*`` or inside the union's neighbourhood of ``R*``.
    """
    if inst.K < 2:
        raise ValueError("singleton sets need at least two children")
    n = inst.n
    g1 = inst.children[0]
    h = _anchored_children_union(inst)
    touched = np.zeros(n, dtype=bool)
    if g1.edge_count:
        shared = g1.edges[_member(h.packed_keys(), g1.packed_keys())]
        if shared.size:
            touched[shared[:, 0]] = True
            touched[shared[:, 1]] = True
    r_mask = ~touched
    union_boundary = np.zeros(n, dtype=bool)
    if h.edge_count:
        he = h.edges
        union_boundary[he[:, 1][r_mask[he[:, 0]]]] = True
        union_boundary[he[:, 0][r_mask[he[:, 1]]]] = True
    barred = r_mask | union_boundary
    excluded = np.zeros(n, dtype=bool)
    if g1.edge_count:
        ge = g1.edges
        u, v = ge[:, 0], ge[:, 1]
        excluded[u[r_mask[u] & barred[v]]] = True
        excluded[v[r_mask[v] & barred[u]]] = True
    s_mask = r_mask & ~excluded
    return SingletonReport(
        r_star=frozenset(int(i) for i in np.flatnonzero(r_mask)),
        s_star=frozenset(int(i) for i in np.flatnonzero(s_mask)),
    )


def map_failure_witness(inst: CorrelatedInstance) -> SingletonReport:
    """Full report: singleton sets, majorities over S*, witness verdict.

    ``maj(i)`` is the signed sum of ground-truth labels over i's child-1
    neighbours.  The verdict needs a direction: with ``a > b`` the witness
    is a pair (i in S* with sigma+ , j in S* with sigma-) whose majorities
    satisfy ``maj(i) < maj(j)``; with ``a < b`` the inequality reverses.
    When ``a = b`` the verdict is undefined and stays None (majorities are
    still reported).  Ties in the extremal choice break toward the smallest
    vertex index.
    """
    report = singleton_sets(inst)
    n = inst.n
    g1 = inst.children[0]
    maj_all = np.zeros(n, dtype=np.int64)
    if g1.edge_count:
        sig = inst.sigma_star.astype(np.int64)
        e = g1.edges
        np.add.at(maj_all, e[:, 0], sig[e[:, 1]])
        np.add.at(maj_all, e[:, 1], sig[e[:, 0]])
    members = sorted(report.s_star)
    maj = {i: int(maj_all[i]) for i in members}
    a, b = inst.params.a, inst.params.b
    witness_found: bool | None = None
    witness_pair: tuple[int, int] | None = None
    if a != b:
        plus = [i for i in members if inst.sigma_star[i] > 0]
        minus = [i for i in members if inst.sigma_star[i] < 0]
        if plus and minus:
            if a > b:
                i_star = min(plus, key=lambda i: (maj[i], i))
                j_star = min(minus, key=lambda i: (-maj[i], i))
                witness_found = maj[i_star] < maj[j_star]
            else:
                i_star = min(plus, key=lambda i: (-maj[i], i))
                j_star = min(minus, key=lambda i: (maj[i], i))
                witness_found = maj[i_star] > maj[j_star]
            if witness_found:
                witness_pair = (i_star, j_star)
        else:
            witness_found = False
    return SingletonReport(
        r_star=report.r_star,
        s_star=report.s_star,
        maj=maj,
        witness_found=witness_found,
        witness_pair=witness_pair,
    )
