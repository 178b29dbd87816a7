"""Pairwise k-core matchings and the exact graph-matching estimator.

Each pair of children is matched by the seeded k-core matcher: it keeps
the ground-truth permutation on the k-core of the intersection graph.  In
the regime where matching is information-theoretically possible this
coincides with the exhaustive maximal k-core matching with high
probability; the test suite keeps that exhaustive oracle and checks it
dominates on small instances.  The family never builds the child graphs:
in anchor labels the (i, j) intersection is the set of union edges (the
edges kept by some child) whose retention code has bits i and j.  Its
k-core is peeled there, in rounds of degree counts over those edges.

On top of the pairwise matchings sits the per-vertex metagraph: K nodes, an
edge (i, j) when the vertex is matched by the (i, j) matching.  A vertex is
"good" when its metagraph is connected.  The classification groups no
vertices: it spreads the anchor's component over the pair masks, every
vertex at once, into one code per vertex.  The exact matching estimator
abstains when some vertex is bad and otherwise succeeds: a family stores
only its matched sets, and each map is the ground truth on its set, so
composing matchings along any path of a connected metagraph gives exactly
the ground-truth anchor permutations.

All per-vertex bookkeeping here is anchored: domains are stored as boolean
masks over the anchor graph's labels (child 1), with ground-truth
permutations used internally to convert, so masks for different pairs can be
intersected directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .generate import CorrelatedInstance, _code_dtype
from .graphs import PartialMatching, _core_mask, _require_integer

__all__ = [
    "MatchingFamily",
    "all_pairwise_matchings",
    "VertexClass",
    "classify_good_bad",
    "MatchingEstimate",
    "exact_matching_estimator",
]

@dataclass(eq=False)
class MatchingFamily:
    """All pairwise matchings of one instance, stored as anchored matched sets.

    ``anchor_masks[(i, j)]`` (i < j) is a boolean vector over anchor labels
    (graph 0 is the anchor) marking the vertices matched by that pair; the
    unmatched sets F_ij are the complements.  Each pair's map is the ground
    truth on its set, so it is derived: ``matchings[(i, j)]`` sends
    ``pi_star[i][v]`` to ``pi_star[j][v]`` for each masked anchor vertex
    ``v``.  The maps and the good/bad split are cached properties, each
    built from the masks on first access.  Families compare by identity.
    """

    n: int
    K: int
    k: int
    anchor_masks: dict[tuple[int, int], np.ndarray]
    pi_star: list[np.ndarray]

    @cached_property
    def matchings(self) -> dict[tuple[int, int], PartialMatching]:
        """Each pair's map, the ground truth restricted to its matched set."""
        matchings = {}
        for (i, j), mask in sorted(self.anchor_masks.items()):
            arr = np.full(self.n, -1, dtype=np.int64)
            arr[self.pi_star[i][mask]] = self.pi_star[j][mask]
            matchings[(i, j)] = PartialMatching._from_array(arr)
        return matchings

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.anchor_masks)

    def member_mask(self, i: int, j: int) -> np.ndarray:
        """Anchored boolean mask of the (i, j) matched set M_ij."""
        return self.anchor_masks[(i, j) if i < j else (j, i)]

    def unmatched_mask(self, i: int, j: int) -> np.ndarray:
        """Anchored boolean mask of the unmatched set F_ij."""
        return ~self.member_mask(i, j)

    @cached_property
    def _classes(self) -> VertexClass:
        """The good/bad split, propagated over the pair masks.

        Every vertex starts with the anchor reached.  A sweep over the
        pairs adds nodes i and j wherever the (i, j) mask holds the vertex
        and exactly one of them is reached; sweeps repeat until one adds
        nothing, so ``reached`` is the anchor's component of each vertex's
        metagraph.  A vertex is good when that code holds all K nodes.
        """
        dtype = _code_dtype(self.K)
        reached = np.ones(self.n, dtype=dtype)
        grew = True
        while grew:
            grew = False
            for (i, j), mask in sorted(self.anchor_masks.items()):
                both = dtype.type((1 << i) | (1 << j))
                ends = reached & both
                link = mask & (ends != 0) & (ends != both)
                if link.any():
                    np.bitwise_or(reached, both, out=reached, where=link)
                    grew = True
        connected = reached == dtype.type((1 << self.K) - 1)
        good, bad = np.flatnonzero(connected), np.flatnonzero(~connected)
        for arr in (good, bad, reached):
            arr.setflags(write=False)
        return VertexClass(good=good, bad=bad, reached=reached)


def all_pairwise_matchings(inst: CorrelatedInstance, k: int) -> MatchingFamily:
    """Seeded k-core matchings between every unordered pair of children.

    Each pair keeps the ground-truth pairwise permutation
    ``pi_j o pi_i^(-1)`` on the k-core of its intersection graph, which is
    peeled in anchor labels: the (i, j) intersection is the set of union
    edges whose retention code has bits i and j, so no graph is built.
    Each peel round counts degrees from the edge endpoints directly; no
    adjacency is built.  Only the cores are stored; the maps they stand
    for equal the seeded matcher's on the two children.  K = 1 yields an
    empty family.  ``k`` must be a whole number of at least 1.
    """
    k = _require_integer("k", k, 1)
    u, v = inst.parent.edges.T
    codes = inst.edge_codes
    masks = {}
    for i in range(inst.K):
        for j in range(i + 1, inst.K):
            both = codes.dtype.type((1 << i) | (1 << j))
            rows = np.flatnonzero((codes & both) == both)
            masks[(i, j)] = _core_mask(inst.n, u.take(rows), v.take(rows), k)
    return MatchingFamily(n=inst.n, K=inst.K, k=k, anchor_masks=masks, pi_star=inst.pi_star)


@dataclass(frozen=True, eq=False)
class VertexClass:
    """Sorted indices of the vertices whose metagraph is (not) connected.

    Bit ``i`` of ``reached[v]`` is set when node ``i`` is in the anchor's
    component of v's metagraph: for a bad vertex, that component and the
    rest are a bipartition no metagraph edge of the vertex crosses.
    """

    good: np.ndarray
    bad: np.ndarray
    reached: np.ndarray


def classify_good_bad(fam: MatchingFamily) -> VertexClass:
    """Split vertices by metagraph connectivity (anchored labels).

    The split is computed once per family and cached on it, so every stage
    of a trial that needs it shares one result.
    """
    return fam._classes


@dataclass(frozen=True)
class MatchingEstimate:
    """Output of the exact matching estimator: it abstains when bad vertices exist.

    When it does not abstain, the recovered permutations are the ground
    truth ``pi_star[1:]``, so ``success`` is exactly "did not abstain".
    """

    abstained: bool

    @property
    def success(self) -> bool:
        return not self.abstained


def exact_matching_estimator(
    inst: CorrelatedInstance, k: int, family: MatchingFamily
) -> MatchingEstimate:
    """Recover the hidden anchor-to-child permutations, or abstain.

    Classifies vertices by metagraph connectivity over ``family``, the
    instance's pairwise matchings, and abstains if any vertex is bad.
    Otherwise the recovered permutations are the ground truth
    ``pi_star[1:]``: every map of a family is the ground truth on its
    matched set, so composing them along any path of a connected metagraph
    sends each vertex to its true copy.  A family built with another core
    order than ``k`` is rejected with ``ValueError``.
    """
    if family.k != k:
        raise ValueError(f"family was built with k={family.k}, not k={k}")
    return MatchingEstimate(abstained=bool(classify_good_bad(family).bad.size))
