"""Pairwise k-core matchings and the exact graph-matching estimator.

Two matchers produce a partial matching between a pair of children: an
exhaustive oracle that tries every vertex bijection (usable up to n = 9),
and the seeded matcher that evaluates the ground-truth permutation and keeps
the k-core of the resulting intersection graph.  Every trial uses the
seeded matcher; in the regime where matching is information-theoretically
possible the two coincide with high probability, and the test suite checks
the oracle dominates on small instances.  The seeded family never builds
the child graphs: in anchor labels the (i, j) intersection is the set of
parent edges whose retention code has bits i and j, and its k-core is
peeled there directly.

On top of the pairwise matchings sits the per-vertex metagraph: K nodes, an
edge (i, j) when the vertex is matched by the (i, j) matching.  A vertex is
"good" when its metagraph is connected.  Vertices matched by the same set of
pairs share a metagraph, so it is computed once per such matched-pair
pattern: one table per family holds each pattern's members, pairs and the
nodes its anchor reaches, and the classification and the good step read
it.  The exact matching estimator abstains when some vertex is bad;
otherwise it returns the ground-truth anchor permutations.  Every family it
reads is the ground truth on each matched set (seeded, or checked), so
composing matchings along any path of a connected metagraph gives exactly
those permutations.

All per-vertex bookkeeping here is anchored: domains are stored as boolean
masks over the anchor graph's labels (child 1), with ground-truth
permutations used internally to convert, so masks for different pairs can be
intersected directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .generate import CorrelatedInstance
from .graphs import Graph, PartialMatching, _core_mask, _matched_intersection_keys

__all__ = [
    "kcore_matching_bruteforce",
    "kcore_matching_seeded",
    "MatchingFamily",
    "all_pairwise_matchings",
    "VertexClass",
    "classify_good_bad",
    "MatchingEstimate",
    "exact_matching_estimator",
]

_BRUTE_FORCE_MAX_N = 9


def kcore_matching_bruteforce(g: Graph, h: Graph, k: int) -> PartialMatching:
    """Exhaustive maximal k-core matching between ``g`` and ``h``.

    Tries every bijection ``pi`` of the vertex set, forms the graph of
    ``g``-edges whose images under ``pi`` are ``h``-edges, and keeps the
    ``pi`` whose k-core is largest; among maximisers the lexicographically
    smallest permutation wins.  Returns ``pi`` restricted to the winning
    core (empty when every core is empty).
    """
    if g.n != h.n:
        raise ValueError("graphs must have equal vertex counts")
    if k < 1:
        raise ValueError("k must be at least 1")
    n = g.n
    if n > _BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"brute-force matching enumerates n! bijections; n={n} exceeds "
            f"the guard {_BRUTE_FORCE_MAX_N}"
        )
    g_edges = [(int(u), int(v)) for u, v in g.edges]
    h_adj = [0] * n
    for u, v in h.edges:
        h_adj[int(u)] |= 1 << int(v)
        h_adj[int(v)] |= 1 << int(u)
    best_size = 0
    best_perm: tuple[int, ...] | None = None
    best_alive = 0
    for perm in itertools.permutations(range(n)):
        adj = [0] * n
        for u, v in g_edges:
            if h_adj[perm[u]] >> perm[v] & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        alive = (1 << n) - 1
        changed = True
        while changed:
            changed = False
            rem = alive
            while rem:
                low = rem & -rem
                rem ^= low
                v = low.bit_length() - 1
                if (adj[v] & alive).bit_count() < k:
                    alive ^= low
                    changed = True
        size = alive.bit_count()
        if size > best_size:
            best_size = size
            best_perm = perm
            best_alive = alive
            if size == n:
                break
    if best_perm is None:
        return PartialMatching({})
    return PartialMatching(
        {v: best_perm[v] for v in range(n) if best_alive >> v & 1}
    )


def kcore_matching_seeded(g: Graph, h: Graph, k: int, pi_true) -> PartialMatching:
    """Ground-truth permutation restricted to the intersection k-core.

    Evaluates the known permutation ``pi_true`` (an array mapping ``g``
    labels to ``h`` labels), forms the intersection graph of matched edges,
    and returns ``pi_true`` restricted to its k-core.  The pipeline's
    :func:`all_pairwise_matchings` computes the same matchings in anchor
    labels; in the feasible regime they agree with what the exhaustive
    search would return, with high probability.
    """
    if g.n != h.n:
        raise ValueError("graphs must have equal vertex counts")
    pi = np.asarray(pi_true, dtype=np.int64)
    if pi.shape != (g.n,) or not np.array_equal(np.sort(pi), np.arange(g.n)):
        raise ValueError("pi_true must be a full permutation of the vertex set")
    core = _core_mask(Graph._from_keys(g.n, _matched_intersection_keys(g, h, pi)), k)
    return PartialMatching._from_array(np.where(core, pi, -1))


@dataclass
class MatchingFamily:
    """All pairwise matchings of one instance, with anchored domain masks.

    ``matchings[(i, j)]`` (i < j) maps graph-i labels to graph-j labels.
    ``anchor_masks[(i, j)]`` is a boolean vector over anchor labels marking
    the vertices matched by that pair; the unmatched sets F_ij are the
    complements.  Graph 0 is the anchor, so anchor labels are its labels.
    """

    n: int
    K: int
    k: int
    matchings: dict[tuple[int, int], PartialMatching]
    anchor_masks: dict[tuple[int, int], np.ndarray]
    _pattern_table: list[_Pattern] | None = field(default=None, repr=False, compare=False)
    _classes: VertexClass | None = field(default=None, repr=False, compare=False)

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.matchings)

    def member_mask(self, i: int, j: int) -> np.ndarray:
        """Anchored boolean mask of the (i, j) matched set M_ij."""
        return self.anchor_masks[(i, j) if i < j else (j, i)]

    def unmatched_mask(self, i: int, j: int) -> np.ndarray:
        """Anchored boolean mask of the unmatched set F_ij."""
        return ~self.member_mask(i, j)


def all_pairwise_matchings(inst: CorrelatedInstance, k: int) -> MatchingFamily:
    """Seeded k-core matchings between every unordered pair of children.

    Each pair keeps the ground-truth pairwise permutation
    ``pi_j o pi_i^(-1)`` on the k-core of its intersection graph, which is
    peeled in anchor labels: the (i, j) intersection is the set of parent
    edges whose retention code has bits i and j, so no child graph is
    built.  The result equals :func:`kcore_matching_seeded` on the two
    children.  K = 1 yields an empty family.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    fam = MatchingFamily(n=inst.n, K=inst.K, k=k, matchings={}, anchor_masks={})
    n = inst.n
    keys = inst.parent.packed_keys()
    codes = inst.edge_codes
    for i in range(inst.K):
        for j in range(i + 1, inst.K):
            both = codes.dtype.type((1 << i) | (1 << j))
            shared = Graph._from_keys(n, keys[np.flatnonzero((codes & both) == both)])
            core = _core_mask(shared, k)
            arr = np.full(n, -1, dtype=np.int64)
            arr[inst.pi_star[i][core]] = inst.pi_star[j][core]
            fam.matchings[(i, j)] = PartialMatching._from_array(arr)
            fam.anchor_masks[(i, j)] = core
    return fam


def _agrees_with_truth(fam: MatchingFamily, inst: CorrelatedInstance) -> bool:
    """True when every map of ``fam`` is the ground truth on its matched set.

    That is, for every pair (i, j) the map sends ``pi_i[v]`` to ``pi_j[v]``
    for each anchor vertex ``v`` of its anchored mask and leaves every other
    vertex unmatched.  Seeded families always pass; a hand-built family (say,
    from the exhaustive matcher on a tiny graph) may not.  When this holds,
    each child edge a stage needs is a parent edge picked out by its
    retention code, which is how the relabelling steps read them.
    """
    for (i, j), mask in fam.anchor_masks.items():
        truth = np.where(mask, inst.pi_star[j], -1)
        if not np.array_equal(fam.matchings[(i, j)].as_array(fam.n)[inst.pi_star[i]], truth):
            return False
    return True


class _Pattern(NamedTuple):
    """Anchored vertices sharing one matched-pair pattern, and its metagraph.

    ``pairs`` are the metagraph's edges; ``reached`` is the set of nodes
    they connect to the anchor (the anchor included).
    """

    members: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    reached: frozenset[int]


def _patterns(fam: MatchingFamily) -> list[_Pattern]:
    """The family's matched-pair patterns in code order, computed once.

    A vertex's code is the number with bit t set when the t-th pair of
    ``fam.pairs()`` matches it; it has one bit per pair however many pairs
    there are.  The table is cached on the family, so every stage of a
    trial reads the same metagraphs.
    """
    if fam._pattern_table is None:
        pairs = fam.pairs()
        bits = np.zeros((max(len(pairs), 1), fam.n), dtype=bool)
        for t, pair in enumerate(pairs):
            bits[t] = fam.anchor_masks[pair]
        # Byte b of a code holds pairs 8b..8b+7.  Sorting on the last byte
        # first orders the codes as numbers, and the stable sort keeps each
        # pattern's vertices ascending.
        packed = np.packbits(bits, axis=0, bitorder="little")
        order = np.lexsort(packed)
        grouped = packed[:, order]
        starts = np.ones(fam.n, dtype=bool)
        starts[1:] = (grouped[:, 1:] != grouped[:, :-1]).any(axis=0)
        bounds = np.append(np.flatnonzero(starts), fam.n).tolist()
        table = []
        for lo, hi in zip(bounds, bounds[1:]):
            members = order[lo:hi]
            matched = tuple(p for p, b in zip(pairs, bits[:, members[0]].tolist()) if b)
            table.append(
                _Pattern(members=members, pairs=matched, reached=_anchor_component(matched))
            )
        fam._pattern_table = table
    return fam._pattern_table


def _anchor_component(pairs: tuple[tuple[int, int], ...]) -> frozenset[int]:
    """The metagraph nodes that ``pairs`` connect to the anchor."""
    reached = {0}
    grew = True
    while grew:
        grew = False
        for i, j in pairs:
            if (i in reached) != (j in reached):
                reached.update((i, j))
                grew = True
    return frozenset(reached)


@dataclass(frozen=True)
class VertexClass:
    """Good/bad split of the vertices, with per-bad-vertex bipartitions.

    A vertex is good when its metagraph is connected.  For each bad vertex,
    ``partitions`` records the node bipartition (component of the anchor,
    rest); no metagraph edge of that vertex crosses it.
    """

    good: frozenset[int]
    bad: frozenset[int]
    partitions: dict[int, tuple[frozenset[int], frozenset[int]]]


def classify_good_bad(fam: MatchingFamily) -> VertexClass:
    """Split vertices by metagraph connectivity (anchored labels).

    The split is computed once per family and cached on it, so every stage
    of a trial that needs it shares one result.
    """
    if fam._classes is None:
        fam._classes = _classify(fam)
    return fam._classes


def _classify(fam: MatchingFamily) -> VertexClass:
    """The good/bad split, read off the pattern table.

    A pattern is good when the anchor reaches every node of its metagraph;
    otherwise the reached nodes and the rest form its bipartition.
    """
    good: list[int] = []
    bad: list[int] = []
    partitions: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
    for pattern in _patterns(fam):
        members = pattern.members.tolist()
        if len(pattern.reached) == fam.K:
            good.extend(members)
        else:
            bad.extend(members)
            split = (pattern.reached, frozenset(range(fam.K)) - pattern.reached)
            partitions.update(dict.fromkeys(members, split))
    return VertexClass(good=frozenset(good), bad=frozenset(bad), partitions=partitions)


@dataclass(frozen=True)
class MatchingEstimate:
    """Output of the exact matching estimator.

    ``permutations[j]`` maps anchor labels into child ``j + 2``'s labels
    (None when the estimator abstained because bad vertices exist).  The
    estimator only runs on families that are the ground truth on their
    matched sets, so when it does not abstain these are ``pi_star[1:]`` and
    ``correct`` is True; ``correct`` is None when it abstained.
    """

    permutations: list[np.ndarray] | None
    abstained: bool
    correct: bool | None
    bad_count: int

    @property
    def success(self) -> bool:
        return not self.abstained and bool(self.correct)


def _check_family(
    fam: MatchingFamily, k: int | None, inst: CorrelatedInstance | None = None
) -> None:
    """Reject a family built with another core order ``k`` (None skips that).

    With ``inst`` given, also reject a family whose maps are not the ground
    truth on their matched sets (see :func:`_agrees_with_truth`).
    """
    if k is not None and fam.k != k:
        raise ValueError(f"family was built with k={fam.k}, not k={k}")
    if inst is not None and not _agrees_with_truth(fam, inst):
        raise ValueError("a matching is not the true permutation on its matched set")


def exact_matching_estimator(
    inst: CorrelatedInstance,
    k: int,
    family: MatchingFamily | None = None,
) -> MatchingEstimate:
    """Recover the hidden anchor-to-child permutations, or abstain.

    Builds all pairwise matchings, classifies vertices by metagraph
    connectivity, and abstains if any vertex is bad.  Otherwise it returns
    the ground-truth permutations ``pi_star[1:]`` with ``correct`` True: the
    family is seeded, or a passed ``family`` is checked to be the ground
    truth on each matched set, so composing its matchings along any path of
    a connected metagraph sends each vertex to its true copy.  A ``family``
    built with the same ``k`` may be passed to reuse work; one built with
    another ``k``, or whose maps leave the ground truth, is rejected with
    ``ValueError``.
    """
    if family is not None:
        _check_family(family, k, inst)
    fam = family if family is not None else all_pairwise_matchings(inst, k)
    bad = classify_good_bad(fam).bad
    if bad:
        return MatchingEstimate(
            permutations=None, abstained=True, correct=None, bad_count=len(bad)
        )
    return MatchingEstimate(
        permutations=[inst.pi_star[j].copy() for j in range(1, inst.K)],
        abstained=False,
        correct=True,
        bad_count=0,
    )
