"""The anchored kernels against the graph-algebra path they replaced.

Seeded families agree with the ground truth, so the pairwise matcher, the
good step, the bad step and the singleton sets all run on the parent's
edges and the per-edge retention codes.  Each is compared here, label for
label and mask for mask, with the path that maps the child graphs through
the matchings: per-pair ``kcore_matching_seeded``, the recovery steps with
the children mapped through the family's matchings (composed along each
metagraph path for the good step) by the reference kernels of
``graph_algebra``, the exact matching estimator against the same
composition along shortest anchor paths, and the singleton sets as they
were computed from the pulled-back union of children 2..K.
"""

import functools

import numpy as np
import pytest
from graph_algebra import (
    _anchor_paths,
    _compose_array_along_path,
    _pullback_union,
    _surviving,
    kcore_matching_seeded,
    map_array,
    mask_patterns,
)

from csbm.generate import Params, sample_instance
from csbm.impossibility import map_failure_witness
from csbm.matching import (
    all_pairwise_matchings,
    classify_good_bad,
    exact_matching_estimator,
)
from csbm.recovery import (
    LabelEstimate,
    _majority_labels,
    label_bad_vertices,
    label_good_vertices,
)

GRID = [
    (n, s, K)
    for n in (300, 2000)
    for s in (0.15, 0.4, 0.6)
    for K in (2, 3, 4, 5)
]
# (seed, core order) per grid cell; the third seed also peels deeper cores.
SEEDS = [(0, 1), (1, 1), (2, 3)]
# Cells whose good vertices fall into many metagraph patterns (36 and 564 at
# seed 0 for the first two), and K >= 12, where a pattern code spans bytes.
MANY_GROUPS = [(2000, 0.25, 4, 36), (2000, 0.15, 5, 564), (300, 0.5, 12, 15), (400, 0.5, 13, 15)]


@functools.lru_cache(maxsize=None)
def instances(n, s, K):
    out = []
    for seed, k in SEEDS:
        inst = sample_instance(Params(n=n, a=9.0, b=1.0, s=s, K=K, k=k), seed)
        fam = all_pairwise_matchings(inst, k)
        labels = np.random.default_rng(seed).choice(np.array([-1, 1], dtype=np.int8), n)
        # The good step overwrites this count only when some vertex is triple-matched.
        init = LabelEstimate(labels=labels, good_disagreements=-1)
        out.append((inst, fam, init))
    return out


def graph_union_votes(inst, in_member, maps, init_values):
    """The good step's vote sums on the children pulled back as graphs."""
    e = _pullback_union(inst.children, maps, in_member).edges
    return np.bincount(e[:, 0], weights=init_values[e[:, 1]], minlength=inst.n) + np.bincount(
        e[:, 1], weights=init_values[e[:, 0]], minlength=inst.n
    )


def graph_good_step(inst, fam, init):
    """The good step with each child mapped as a graph along composed matchings."""
    classes = classify_good_bad(fam)
    est = init.copy()
    n = inst.n
    assortative = inst.params.a >= inst.params.b
    init_values = init.labels.astype(np.float64)
    if inst.K == 3:
        return graph_good_three(inst, fam, init, est, assortative, init_values)
    good_mask = np.zeros(n, dtype=bool)
    good_mask[list(classes.good)] = True
    for pairs, members in mask_patterns(fam).items():
        group = np.array(members)[good_mask[members]]
        if not group.size:
            continue
        in_member = np.ones(n, dtype=bool)
        for pair in pairs:
            in_member &= fam.anchor_masks[pair]
        paths = _anchor_paths(inst.K, pairs)
        maps = [_compose_array_along_path(fam, path) for path in paths]
        votes = graph_union_votes(inst, in_member, maps, init_values)
        est.labels[group] = _majority_labels(
            votes[group], init.labels[group], assortative
        )
    return est


def graph_good_three(inst, fam, init, est, assortative, init_values):
    """The literal three-case good step for K = 3, on composed maps."""
    n = inst.n
    m01 = map_array(fam, 0, 1)
    m02 = map_array(fam, 0, 2)
    mask01 = fam.member_mask(0, 1)
    mask02 = fam.member_mask(0, 2)
    mask12 = fam.member_mask(1, 2)
    cases = [
        # Matched to child 3 on both sides: reach child 2 through child 3.
        (mask02 & mask12, _compose_array_along_path(fam, (0, 2, 1)), m02),
        # Matched to child 2 on both sides: reach child 3 through child 2.
        (mask01 & mask12, m01, _compose_array_along_path(fam, (0, 1, 2))),
        # Matched directly to both children.
        (mask01 & mask02, m01, m02),
    ]
    case_assignments = []
    for in_member, to_two, to_three in cases:
        maps = [np.arange(n), to_two, to_three]
        votes = graph_union_votes(inst, in_member, maps, init_values)
        idx = np.flatnonzero(in_member)
        labels = _majority_labels(votes[idx], init.labels[idx], assortative)
        est.labels[idx] = labels
        full = np.zeros(n, dtype=np.int8)
        full[idx] = labels
        case_assignments.append(full)
    triple = np.flatnonzero(mask01 & mask02 & mask12)
    if triple.size:
        first, second, third = (arr[triple] for arr in case_assignments)
        est.good_disagreements = int(np.sum((first != second) | (second != third)))
    return est


def graph_bad_step(inst, fam, current):
    """The bad step with each subtracted child mapped as a graph."""
    classes = classify_good_bad(fam)
    est = current.copy()
    if not classes.bad.size:
        return est
    n = inst.n
    bad = np.zeros(n, dtype=bool)
    bad[list(classes.bad)] = True
    in_member = np.ones(n, dtype=bool)
    for j in range(1, inst.K):
        in_member &= fam.member_mask(0, j)
    e = inst.children[0].edges
    lo, hi = e[:, 0], e[:, 1]
    fwd = bad[lo] & in_member[hi]
    rev = bad[hi] & in_member[lo]
    src = np.concatenate([lo[fwd], hi[rev]])
    dst = np.concatenate([hi[fwd], lo[rev]])
    maps = [map_array(fam, 0, j) for j in range(1, inst.K)]
    alive = _surviving(src, dst, zip(inst.children[1:], maps))
    votes = np.bincount(src[alive], weights=current.labels[dst[alive]], minlength=n)
    idx = np.flatnonzero(bad)
    assortative = inst.params.a >= inst.params.b
    est.labels[idx] = _majority_labels(votes[idx], current.labels[idx], assortative)
    return est


def graph_estimator(inst, fam):
    """The exact matching estimator composing matchings along shortest anchor paths.

    Returns the composed anchor-to-child maps, or None (abstain) when some
    vertex is bad.
    """
    if classify_good_bad(fam).bad.size:
        return None
    perms = [np.full(inst.n, -1, dtype=np.int64) for _ in range(inst.K - 1)]
    for pairs, members in mask_patterns(fam).items():
        paths = _anchor_paths(inst.K, pairs)
        for j in range(1, inst.K):
            composed = _compose_array_along_path(fam, paths[j])
            perms[j - 1][members] = composed[members]
    return perms


def assert_same_estimate(a, b):
    assert a.labels.tolist() == b.labels.tolist()
    assert a.good_disagreements == b.good_disagreements


@pytest.mark.parametrize("n, s, K", GRID)
def test_family_matches_per_pair_seeded_matcher(n, s, K):
    for inst, fam, _ in instances(n, s, K):
        for i in range(K):
            for j in range(i + 1, K):
                mu = kcore_matching_seeded(
                    inst.children[i], inst.children[j], fam.k,
                    inst.true_pairwise_permutation(i, j),
                )
                assert fam.matchings[(i, j)] == mu
                mask = (mu.as_array(n) >= 0)[inst.pi_star[i]]
                assert fam.anchor_masks[(i, j)].tolist() == mask.tolist()


@pytest.mark.parametrize("n, s, K", GRID)
def test_good_step_matches_graph_algebra(n, s, K):
    cases = instances(n, s, K)
    for inst, fam, init in cases:
        assert_same_estimate(label_good_vertices(inst, fam, init), graph_good_step(inst, fam, init))
    if K == 3 and s == 0.6:
        triple = [fam.member_mask(0, 1) & fam.member_mask(0, 2) & fam.member_mask(1, 2)
                  for _, fam, _ in cases]
        assert any(mask.any() for mask in triple)


def good_groups(fam):
    """Patterns holding at least one good vertex; `graph_good_step` maps one union per each."""
    good = np.zeros(fam.n, dtype=bool)
    good[list(classify_good_bad(fam).good)] = True
    return [pairs for pairs, members in mask_patterns(fam).items() if good[members].any()]


@pytest.mark.parametrize("n, s, K, groups", MANY_GROUPS)
def test_good_step_with_many_groups_matches_graph_algebra(n, s, K, groups):
    # One pass over the union edges against one mapped union per pattern.
    cases = instances(n, s, K)
    for inst, fam, init in cases:
        assert_same_estimate(label_good_vertices(inst, fam, init), graph_good_step(inst, fam, init))
    inst, fam, _ = cases[0]
    assert len(good_groups(fam)) == groups
    if K >= 12:
        # A good vertex matched by a pair past the 64th needs a ninth code byte.
        good = classify_good_bad(fam).good
        assert any(fam.anchor_masks[pair][good].any() for pair in fam.pairs()[64:])


@pytest.mark.parametrize("n, s, K", GRID)
def test_bad_step_matches_graph_algebra(n, s, K):
    cases = instances(n, s, K)
    for inst, fam, init in cases:
        assert_same_estimate(label_bad_vertices(inst, fam, init), graph_bad_step(inst, fam, init))
    if s == 0.15:
        assert any(classify_good_bad(fam).bad.size for _, fam, _ in cases)


@pytest.mark.parametrize("n, s, K", GRID)
def test_estimator_matches_path_composition(n, s, K):
    cases = instances(n, s, K)
    for inst, fam, _ in cases:
        perms = graph_estimator(inst, fam)
        est = exact_matching_estimator(inst, fam.k, family=fam)
        assert est.abstained == (perms is None)
        if perms is not None:
            # The composed maps are the truth, as the estimator's success claims.
            assert all(p.dtype == np.int64 for p in perms)
            assert [p.tolist() for p in perms] == [p.tolist() for p in inst.pi_star[1:]]
    if s == 0.6:
        assert any(graph_estimator(inst, fam) is not None for inst, fam, _ in cases)


def reference_singleton_sets(inst):
    """R* and S* from the pulled-back union of children 2..K, as computed before."""
    n = inst.n
    g1 = inst.children[0]
    h = _pullback_union(inst.children[1:], inst.pi_star[1:])
    touched = np.zeros(n, dtype=bool)
    if g1.edge_count:
        shared = g1.edges[np.isin(g1.packed_keys(), h.packed_keys())]
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
    return (
        frozenset(int(i) for i in np.flatnonzero(r_mask)),
        frozenset(int(i) for i in np.flatnonzero(s_mask)),
    )


@pytest.mark.parametrize("n, s, K", GRID)
def test_singleton_sets_match_pulled_back_union(n, s, K):
    for inst, _, _ in instances(n, s, K):
        report = map_failure_witness(inst)
        sets = (frozenset(report.r_star.tolist()), frozenset(report.s_star.tolist()))
        assert sets == reference_singleton_sets(inst)
