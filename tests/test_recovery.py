"""Initial labelling, good/bad refinement steps, and overlap scoring."""

import hashlib

import numpy as np
import pytest

from csbm.generate import CorrelatedInstance, Params, sample_instance, sample_parent
from csbm.graphs import Graph
from csbm.matching import (
    MatchingFamily,
    _agrees_with_truth,
    all_pairwise_matchings,
    classify_good_bad,
    exact_matching_estimator,
    kcore_matching_bruteforce,
)
from csbm.recovery import (
    PROVENANCE_BAD,
    PROVENANCE_GOOD,
    PROVENANCE_INITIAL,
    LabelEstimate,
    almost_exact_label,
    full_recovery,
    label_bad_vertices,
    label_good_vertices,
    overlap,
)


def two_cliques(half: int) -> tuple[Graph, np.ndarray]:
    n = 2 * half
    edges = [(u, v) for u in range(half) for v in range(u + 1, half)]
    edges += [(u, v) for u in range(half, n) for v in range(u + 1, n)]
    return Graph(n, edges), np.array([1] * half + [-1] * half, dtype=np.int8)


def estimate(labels, provenance=None):
    arr = np.asarray(labels, dtype=np.int8)
    prov = (
        np.full(arr.size, PROVENANCE_INITIAL, dtype=np.uint8)
        if provenance is None
        else np.asarray(provenance, dtype=np.uint8)
    )
    return LabelEstimate(labels=arr, provenance=prov)


# -- overlap ------------------------------------------------------------------


def test_overlap_hand_values():
    truth = np.array([1, 1, -1, -1])
    assert overlap(truth, truth) == 1.0
    assert overlap(truth, -truth) == 1.0
    assert overlap(truth, np.array([1, -1, -1, -1])) == 0.5


def test_overlap_accepts_label_estimate():
    truth = np.array([1, -1])
    assert overlap(truth, estimate([1, -1])) == 1.0


def test_overlap_rejects_bad_shapes():
    with pytest.raises(ValueError):
        overlap(np.array([1, 1]), np.array([1, 1, 1]))
    with pytest.raises(ValueError):
        overlap(np.array([]), np.array([]))


# -- initial labelling --------------------------------------------------------


def test_init_separates_two_cliques():
    g, truth = two_cliques(10)
    est = almost_exact_label(g, 5.0, 0.0, seed=1)
    assert not est.degraded
    assert overlap(truth, est) == 1.0


def test_init_empty_graph_degrades():
    est = almost_exact_label(Graph(8), 9.0, 1.0, seed=0)
    assert est.degraded
    assert np.all(est.labels == 1)


def test_init_validates_inputs():
    g, _ = two_cliques(4)
    with pytest.raises(ValueError):
        almost_exact_label(g, -1.0, 0.5)
    with pytest.raises(ValueError):
        almost_exact_label(g, 1.0, 0.5, eps=0.0)


def test_init_warns_on_loose_eps():
    g, _ = two_cliques(4)
    with pytest.warns(UserWarning):
        almost_exact_label(g, 7.2, 0.8, eps=0.3, seed=0)


def test_init_is_deterministic_without_seed():
    g, _ = two_cliques(6)
    a = almost_exact_label(g, 4.0, 0.0)
    b = almost_exact_label(g, 4.0, 0.0)
    assert np.array_equal(a.labels, b.labels)


def test_init_accuracy_at_reference_point():
    # Effective intensities 7.2 / 0.8 sit above the one-graph threshold;
    # the labelling should be nearly exact.
    overlaps = []
    for seed in range(20):
        g, sigma = sample_parent(Params(n=4000, a=7.2, b=0.8, s=1.0), seed)
        est = almost_exact_label(g, 7.2, 0.8, seed=seed)
        overlaps.append(overlap(sigma, est))
    assert float(np.mean(overlaps)) >= 0.95


# -- crafted instances for the refinement steps -------------------------------


def crafted_k1_instance(a: float, b: float, edges, n: int = 4):
    params = Params(n=n, a=a, b=b, s=1.0, K=1, k=1)
    g = Graph(n, edges)
    inst = CorrelatedInstance(
        params=params,
        seed=0,
        parent=g,
        sigma_star=np.ones(n, dtype=np.int8),
        pi_star=[np.arange(n, dtype=np.int64)],
        edge_patterns=np.ones((g.edge_count, 1), dtype=np.uint8),
    )
    assert list(inst.children) == [g]
    return inst


def crafted_k3_instance(a: float = 2.0, b: float = 1.0):
    """Seven vertices, identity relabellings, hand-picked child edges.

    Vertex 0 is matched only by the (0, 1) pair; vertices 1, 2, 3 are
    matched everywhere; 4, 5, 6 are matched nowhere.  The anchor child owns
    extra edges at 0 and 6 so the bad-step difference graphs are nontrivial.
    """
    g1 = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                   (4, 5), (1, 6), (2, 6), (3, 6)])
    g2 = Graph(7, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    g3 = Graph(7, [(1, 2), (1, 3), (2, 3)])
    children = [g1, g2, g3]
    parent = Graph(7, g1.edges)
    patterns = np.zeros((parent.edge_count, 3), dtype=np.uint8)
    for row, (u, v) in enumerate(parent.edges):
        for j, child in enumerate(children):
            patterns[row, j] = child.has_edge(int(u), int(v))
    params = Params(n=7, a=a, b=b, s=0.5, K=3, k=1)
    inst = CorrelatedInstance(
        params=params,
        seed=0,
        parent=parent,
        sigma_star=np.ones(7, dtype=np.int8),
        pi_star=[np.arange(7, dtype=np.int64) for _ in range(3)],
        edge_patterns=patterns,
    )
    assert list(inst.children) == children
    return inst


def test_crafted_k3_classification():
    inst = crafted_k3_instance()
    fam = all_pairwise_matchings(inst, 1)
    classes = classify_good_bad(fam)
    assert classes.good == frozenset({1, 2, 3})
    assert classes.bad == frozenset({0, 4, 5, 6})
    assert classes.partitions[0] == (frozenset({0, 1}), frozenset({2}))


# -- good step ----------------------------------------------------------------


def test_good_step_k1_simultaneous_majority():
    inst = crafted_k1_instance(2.0, 1.0, [(0, 1)])
    fam = all_pairwise_matchings(inst, 1)
    init = estimate([1, -1, 1, -1])
    out = label_good_vertices(inst, fam, init)
    # 0 and 1 vote on each other's *initial* labels and swap; the isolated
    # vertices tie and keep their initial labels.
    assert out.labels.tolist() == [-1, 1, 1, -1]
    assert np.all(out.provenance == PROVENANCE_GOOD)


def test_good_step_k1_minority_rule():
    inst = crafted_k1_instance(0.5, 1.0, [(0, 1)])
    fam = all_pairwise_matchings(inst, 1)
    init = estimate([1, -1, 1, -1])
    out = label_good_vertices(inst, fam, init)
    assert out.labels.tolist() == [1, -1, 1, -1]


def test_good_step_k3_votes_on_union():
    inst = crafted_k3_instance()
    fam = all_pairwise_matchings(inst, 1)
    init = estimate([1, 1, -1, -1, 1, 1, 1])
    out = label_good_vertices(inst, fam, init)
    # The matched triangle {1, 2, 3}: vertex 1 sees -1 twice; vertices 2
    # and 3 tie (one +1, one -1) and keep their initial labels.
    assert out.labels[1] == -1
    assert out.labels[2] == -1 and out.labels[3] == -1
    assert out.good_disagreements == 0
    # Bad vertices are untouched, in labels and in provenance.
    assert out.labels[0] == 1 and out.labels[4] == 1
    good_set = frozenset(np.flatnonzero(out.provenance == PROVENANCE_GOOD).tolist())
    assert good_set == frozenset({1, 2, 3})


def test_good_step_rejects_mismatched_k():
    inst = crafted_k3_instance()
    fam = all_pairwise_matchings(inst, 1)
    with pytest.raises(ValueError):
        label_good_vertices(inst, fam, estimate(np.ones(7)), k=2)


# -- bad step -----------------------------------------------------------------


def test_bad_step_difference_graph_cases():
    inst = crafted_k3_instance()
    fam = all_pairwise_matchings(inst, 1)
    prov = np.full(7, PROVENANCE_INITIAL, dtype=np.uint8)
    prov[[1, 2, 3]] = PROVENANCE_GOOD
    current = estimate([1, 1, 1, -1, 1, -1, -1], prov)
    out = label_bad_vertices(inst, fam, current)

    # Vertex 0 is matched to child 2 only, so exactly that child is
    # subtracted: anchor edges (0,1) and (0,2) also live there and die,
    # leaving the single vote of vertex 3.
    assert out.labels[0] == -1
    # Vertex 6 is matched nowhere: nothing is subtracted and its three
    # anchor neighbours vote +1 +1 -1.
    assert out.labels[6] == 1
    # Vertices 4 and 5 have no neighbours inside the matched core: ties.
    assert out.labels[4] == 1 and out.labels[5] == -1
    # Good vertices are never rewritten.
    assert out.labels[1] == 1 and out.labels[2] == 1 and out.labels[3] == -1
    bad_set = frozenset(np.flatnonzero(out.provenance == PROVENANCE_BAD).tolist())
    assert bad_set == frozenset({0, 4, 5, 6})
    good_set = frozenset(np.flatnonzero(out.provenance == PROVENANCE_GOOD).tolist())
    assert good_set == frozenset({1, 2, 3})


def test_bad_step_minority_rule():
    inst = crafted_k3_instance(a=1.0, b=2.0)
    fam = all_pairwise_matchings(inst, 1)
    current = estimate([1, 1, 1, -1, 1, -1, -1])
    out = label_bad_vertices(inst, fam, current)
    # Same votes as the assortative case, signs flipped on non-ties.
    assert out.labels[0] == 1
    assert out.labels[6] == -1
    assert out.labels[4] == 1 and out.labels[5] == -1


def test_bad_step_votes_only_on_fully_matched_core():
    """Bad votes count only neighbours matched to every child.

    Vertex 1 is matched to both non-anchor children through the anchor, so
    its star metagraph is connected and it is good.  Vertices 0 and 5 are
    matched nowhere; vertex 5 is adjacent to both of them in the anchor
    but only vertex 1 may vote.  Without the restriction the -1 of vertex
    0 would cancel that vote.
    """
    t = [(2, 3), (2, 4), (3, 4)]
    g1 = Graph(6, t + [(1, 2), (1, 3), (1, 4), (1, 5), (0, 5)])
    g2 = Graph(6, t + [(1, 2)])
    g3 = Graph(6, t + [(1, 3)])
    children = [g1, g2, g3]
    parent = Graph(6, g1.edges)
    patterns = np.zeros((parent.edge_count, 3), dtype=np.uint8)
    for row, (u, v) in enumerate(parent.edges):
        for j, child in enumerate(children):
            patterns[row, j] = child.has_edge(int(u), int(v))
    inst = CorrelatedInstance(
        params=Params(n=6, a=2.0, b=1.0, s=0.5, K=3, k=1),
        seed=0,
        parent=parent,
        sigma_star=np.ones(6, dtype=np.int8),
        pi_star=[np.arange(6, dtype=np.int64) for _ in range(3)],
        edge_patterns=patterns,
    )
    assert list(inst.children) == children
    fam = all_pairwise_matchings(inst, 1)
    classes = classify_good_bad(fam)
    assert classes.good == frozenset({1, 2, 3, 4})
    assert classes.bad == frozenset({0, 5})
    assert classes.partitions[5] == (frozenset({0}), frozenset({1, 2}))

    prov = np.full(6, PROVENANCE_GOOD, dtype=np.uint8)
    prov[[0, 5]] = PROVENANCE_INITIAL
    current = estimate([-1, 1, 1, 1, -1, -1], prov)
    out = label_bad_vertices(inst, fam, current)
    assert out.labels[5] == 1
    # Vertex 0's only neighbour is outside the matched core: tie, keep.
    assert out.labels[0] == -1
    assert out.labels.tolist() == [-1, 1, 1, 1, -1, 1]
    bad_set = frozenset(np.flatnonzero(out.provenance == PROVENANCE_BAD).tolist())
    assert bad_set == frozenset({0, 5})


def reference_bad_step(inst, fam, current, classes):
    """The per-vertex bad step the vectorised one replaced, kept verbatim."""
    est = current.copy()
    if not classes.bad:
        return est
    n = inst.n
    assortative = inst.params.a >= inst.params.b
    in_member = np.ones(n, dtype=bool)
    for j in range(1, inst.K):
        in_member &= fam.member_mask(0, j)
    maps = [fam.matchings[(0, j)].as_array(n) if j else None for j in range(inst.K)]
    current_labels = current.labels
    anchor = inst.children[0]
    for v in sorted(classes.bad):
        phi = [j for j in range(1, inst.K) if fam.member_mask(0, j)[v]]
        total = 0
        for u in anchor.neighbors(v):
            if not in_member[u]:
                continue
            survives = True
            for j in phi:
                x = maps[j][v]
                y = maps[j][u]
                if x >= 0 and y >= 0 and inst.children[j].has_edge(int(x), int(y)):
                    survives = False
                    break
            if survives:
                total += int(current_labels[u])
        if total > 0:
            label = 1 if assortative else -1
        elif total < 0:
            label = -1 if assortative else 1
        else:
            label = int(current_labels[v])
        est.labels[v] = label
        est.provenance[v] = PROVENANCE_BAD
    return est


@pytest.mark.parametrize("n", [300, 2000])
@pytest.mark.parametrize("s", [0.15, 0.25])
@pytest.mark.parametrize("K", [2, 3, 4])
def test_bad_step_matches_per_vertex_reference(n, s, K):
    bad_total = 0
    for seed in range(3):
        inst = sample_instance(Params(n=n, a=9.0, b=1.0, s=s, K=K, k=1), seed)
        fam = all_pairwise_matchings(inst, 1)
        classes = classify_good_bad(fam)
        labels = np.random.default_rng(seed).choice(np.array([-1, 1], dtype=np.int8), n)
        current = estimate(labels)
        out = label_bad_vertices(inst, fam, current, classes=classes)
        ref = reference_bad_step(inst, fam, current, classes)
        assert out.labels.tolist() == ref.labels.tolist()
        assert out.provenance.tolist() == ref.provenance.tolist()
        bad_total += len(classes.bad)
    assert bad_total > 0


def test_disagreeing_family_is_rejected():
    """A matching off the true permutation cannot be read through the codes.

    At n = 7 the exhaustive matcher picks, among equally large cores, a
    bijection other than the truth.  A family built from it by hand is
    refused by both relabelling steps, by the whole pipeline and by the
    exact matching estimator.
    """
    inst = sample_instance(Params(n=7, a=1.9, b=0.8, s=0.7, K=3, k=1), 23)
    matchings = {
        (i, j): kcore_matching_bruteforce(inst.children[i], inst.children[j], 1)
        for i in range(3)
        for j in range(i + 1, 3)
    }
    fam = MatchingFamily(
        n=7,
        K=3,
        k=1,
        matchings=matchings,
        anchor_masks={
            (i, j): (mu.as_array(7) >= 0)[inst.pi_star[i]] for (i, j), mu in matchings.items()
        },
    )
    assert not _agrees_with_truth(fam, inst)
    classes = classify_good_bad(fam)
    assert classes.good and classes.bad
    current = estimate(np.random.default_rng(23).choice(np.array([-1, 1], dtype=np.int8), 7))
    with pytest.raises(ValueError):
        label_good_vertices(inst, fam, current)
    with pytest.raises(ValueError):
        label_bad_vertices(inst, fam, current)
    with pytest.raises(ValueError):
        full_recovery(inst, eps=0.01, family=fam)
    with pytest.raises(ValueError, match="true permutation"):
        exact_matching_estimator(inst, 1, family=fam)


# -- full pipeline ------------------------------------------------------------


def test_full_recovery_success_at_full_retention():
    succ = 0
    for seed in range(10):
        inst = sample_instance(Params(n=300, a=18.0, b=2.0, s=1.0, K=3, k=13), seed)
        est = full_recovery(inst)
        succ += int(overlap(inst.sigma_star, est) == 1.0)
    assert succ >= 9


def test_full_recovery_disassortative_mirror():
    # The same pipeline with a < b flips to minority votes end to end.
    for a, b in [(18.0, 2.0), (2.0, 18.0)]:
        succ = 0
        for seed in range(5):
            inst = sample_instance(Params(n=500, a=a, b=b, s=1.0, K=3, k=13), seed)
            est = full_recovery(inst)
            succ += int(overlap(inst.sigma_star, est) == 1.0)
        assert succ >= 4, (a, b)


def test_full_recovery_provenance_totality():
    inst = sample_instance(Params(n=400, a=9.0, b=1.0, s=0.4, K=3, k=1), 3)
    fam = all_pairwise_matchings(inst, 1)
    classes = classify_good_bad(fam)
    est = full_recovery(inst, family=fam)
    assert set(np.unique(est.labels)) <= {-1, 1}
    assert not np.any(est.provenance == PROVENANCE_INITIAL)
    good_set = frozenset(np.flatnonzero(est.provenance == PROVENANCE_GOOD).tolist())
    bad_set = frozenset(np.flatnonzero(est.provenance == PROVENANCE_BAD).tolist())
    assert good_set == classes.good
    assert bad_set == classes.bad


def test_full_recovery_rejects_family_built_otherwise():
    inst = sample_instance(Params(n=400, a=9.0, b=1.0, s=0.4, K=3, k=1), 3)
    fam = all_pairwise_matchings(inst, 1)
    with pytest.raises(ValueError):
        full_recovery(inst, k=13, family=fam)


def test_full_recovery_k1_reduction():
    params = Params(n=300, a=9.0, b=1.0, s=0.8, K=1, k=1)
    inst = sample_instance(params, 7)
    est = full_recovery(inst)
    init = almost_exact_label(
        inst.children[0], 0.8 * 9.0, 0.8 * 1.0, params.eps, seed=inst.seed
    )
    fam = all_pairwise_matchings(inst, 1)
    manual = label_good_vertices(inst, fam, init)
    assert np.array_equal(est.labels, manual.labels)
    assert overlap(inst.sigma_star, est) > 0.9


def test_full_recovery_degraded_instance():
    inst = sample_instance(Params(n=30, a=0.0, b=0.0, s=0.5, K=3, k=1), 0)
    est = full_recovery(inst)
    assert est.degraded
    assert np.all(est.labels == 1)
    assert np.all(est.provenance == PROVENANCE_BAD)


def test_pipeline_outputs_are_pinned():
    """Classification, recovery and estimator outputs may not drift.

    One digest over K = 1..5, both regimes and four seeds per cell.  It
    covers the bad set, the bipartitions, the final labels with their
    provenance and diagnostics, and the estimator verdict with its
    permutations.  Recorded before the per-family pattern table replaced
    the per-stage metagraph loops.
    """
    h = hashlib.sha256()
    for K in range(1, 6):
        for s in (0.25, 0.4, 0.6):
            for seed in range(4):
                inst = sample_instance(Params(n=600, a=9.0, b=1.0, s=s, K=K, k=1), seed)
                fam = all_pairwise_matchings(inst, 1)
                classes = classify_good_bad(fam)
                final = full_recovery(inst, family=fam)
                est = exact_matching_estimator(inst, 1, family=fam)
                perms = est.permutations
                record = (
                    sorted(classes.bad),
                    sorted(
                        (v, sorted(comp), sorted(rest))
                        for v, (comp, rest) in classes.partitions.items()
                    ),
                    final.labels.tolist(),
                    final.provenance.tolist(),
                    final.degraded,
                    final.good_disagreements,
                    est.abstained,
                    est.correct,
                    est.bad_count,
                    None if perms is None else [p.tolist() for p in perms],
                )
                h.update(repr(record).encode())
    assert h.hexdigest() == (
        "2cbd0dc83de5db930adea2880cc6e5e12ba218ac9750049f05b5a0fe97078942"
    )
