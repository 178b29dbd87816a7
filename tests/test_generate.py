"""Sampling: both constructions, the union split, and the balance check."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from graph_algebra import _pullback_union

from csbm.generate import (
    CorrelatedInstance,
    Params,
    balance_diagnostic,
    sample_instance,
    sample_instance_partition,
    sample_parent,
    split_union_graph,
    union_split_weights,
)
from csbm.graphs import Graph, _image_keys
from csbm.matching import all_pairwise_matchings


def test_params_validation():
    with pytest.raises(ValueError):
        Params(n=0, a=1.0, b=1.0, s=0.5)
    with pytest.raises(ValueError):
        Params(n=10, a=-1.0, b=1.0, s=0.5)
    with pytest.raises(ValueError):
        Params(n=10, a=1.0, b=1.0, s=1.5)
    with pytest.raises(ValueError):
        Params(n=10, a=1.0, b=1.0, s=0.5, K=0)
    with pytest.raises(ValueError):
        Params(n=10, a=1.0, b=1.0, s=0.5, k=0)
    with pytest.raises(ValueError):
        Params(n=10, a=1.0, b=1.0, s=0.5, eps=0.0)


def test_params_rejects_probabilities_above_one():
    # p = a ln(n)/n = 10 ln(3)/3 > 1 must be a hard error, not a clamp.
    with pytest.raises(ValueError):
        Params(n=3, a=10.0, b=0.1, s=0.5)


def test_params_edge_probabilities():
    p = Params(n=100, a=4.0, b=1.0, s=0.5)
    assert p.p == pytest.approx(4.0 * math.log(100) / 100)
    assert p.q == pytest.approx(1.0 * math.log(100) / 100)


def test_params_from_edge_probs_round_trip():
    p = Params.from_edge_probs(n=40, p=0.7, q=0.3, s=0.4, K=3)
    assert p.p == pytest.approx(0.7, abs=1e-12)
    assert p.q == pytest.approx(0.3, abs=1e-12)
    assert p.p <= 0.7
    assert p.q <= 0.3


# -- parent sampling ----------------------------------------------------------


def test_parent_extremes():
    empty, labels = sample_parent(Params(n=20, a=0.0, b=0.0, s=0.5), 0)
    assert empty.edge_count == 0
    assert set(np.unique(labels)) <= {-1, 1}

    n = 10
    full_coef = n / math.log(n)  # makes p = q = 1
    complete, _ = sample_parent(
        Params(n=n, a=full_coef, b=full_coef, s=0.5), 1
    )
    assert complete.edge_count == n * (n - 1) // 2


def test_parent_intra_edge_frequency():
    # Empirical intra-community edge frequency within 3 standard errors.
    params = Params(n=10**4, a=18.0, b=2.0, s=0.5)
    g, sigma = sample_parent(params, 0)
    n_plus = int((sigma > 0).sum())
    n_minus = params.n - n_plus
    intra_pairs = n_plus * (n_plus - 1) // 2 + n_minus * (n_minus - 1) // 2
    intra_edges = int((sigma[g.edges[:, 0]] == sigma[g.edges[:, 1]]).sum())
    freq = intra_edges / intra_pairs
    se = math.sqrt(params.p * (1 - params.p) / intra_pairs)
    assert abs(freq - params.p) < 3 * se


def test_parent_label_law():
    _, sigma = sample_parent(Params(n=4000, a=1.0, b=1.0, s=0.5), 3)
    # i.i.d. uniform signs: the sum is well within 4 sqrt(n).
    assert abs(int(sigma.sum())) < 4 * math.sqrt(4000)


def test_parent_determinism():
    params = Params(n=200, a=5.0, b=1.0, s=0.5)
    g1, s1 = sample_parent(params, 9)
    g2, s2 = sample_parent(params, 9)
    g3, s3 = sample_parent(params, 10)
    assert g1 == g2 and np.array_equal(s1, s2)
    assert g1 != g3 or not np.array_equal(s1, s3)


# -- subsampling construction -------------------------------------------------


def test_instance_retention_extremes():
    params = Params(n=60, a=6.0, b=2.0, s=1.0, K=3)
    inst = sample_instance(params, 4)
    for j in range(3):
        assert inst.child_edges_in_parent_labels(j).shape == inst.parent.edges.shape
        assert np.array_equal(
            inst.child_edges_in_parent_labels(j), inst.parent.edges
        )
    zero = sample_instance(Params(n=60, a=6.0, b=2.0, s=0.0, K=3), 4)
    assert all(c.edge_count == 0 for c in zero.children)


def test_children_are_masked_relabelled_parent():
    # Child j's edges are exactly the parent edges with pattern bit j, pushed
    # through pi_star[j].  This grounds every pattern-based observation used
    # by the statistical comparisons.
    params = Params(n=80, a=7.0, b=2.0, s=0.6, K=3)
    inst = sample_instance(params, 11)
    assert np.array_equal(inst.pi_star[0], np.arange(80))
    for j in range(3):
        kept = inst.parent.edges[inst.edge_patterns[:, j] == 1]
        pi = inst.pi_star[j]
        mapped = np.sort(pi[kept], axis=1)
        expected = {(int(u), int(v)) for u, v in mapped}
        assert inst.children[j].edge_set() == expected
        back = inst.child_edges_in_parent_labels(j)
        assert {(int(u), int(v)) for u, v in back} == {
            (int(u), int(v)) for u, v in kept
        }


def test_permutations_are_valid_and_distinct():
    params = Params(n=50, a=4.0, b=1.0, s=0.5, K=4)
    inst = sample_instance(params, 2)
    for j in range(1, 4):
        assert sorted(inst.pi_star[j].tolist()) == list(range(50))
        inv = inst.inverse_pi(j)
        assert np.array_equal(inv[inst.pi_star[j]], np.arange(50))
    assert not np.array_equal(inst.pi_star[1], inst.pi_star[2])
    mu12 = inst.true_pairwise_permutation(1, 2)
    assert np.array_equal(mu12, inst.pi_star[2][inst.inverse_pi(1)])


def test_pattern_marginal_frequency():
    # P(pattern = (1,0,0)) = s(1-s)^2 = 0.125 at s = 0.5.
    params = Params(n=2000, a=18.0, b=2.0, s=0.5, K=3)
    inst = sample_instance(params, 0)
    pats = inst.edge_patterns
    m = pats.shape[0]
    freq = float(
        ((pats[:, 0] == 1) & (pats[:, 1] == 0) & (pats[:, 2] == 0)).mean()
    )
    se = math.sqrt(0.125 * 0.875 / m)
    assert abs(freq - 0.125) < 3 * se


def test_child_marginal_intra_frequency():
    # Each child restricted to intra pairs is an SBM edge draw at rate p*s,
    # in its own labelling for the relabelled children.
    params = Params(n=2000, a=18.0, b=2.0, s=0.5, K=3)
    inst = sample_instance(params, 0)
    sigma = inst.sigma_star
    n_plus = int((sigma > 0).sum())
    intra_pairs = (
        n_plus * (n_plus - 1) // 2
        + (params.n - n_plus) * (params.n - n_plus - 1) // 2
    )
    target = params.p * params.s
    se = math.sqrt(target * (1 - target) / intra_pairs)
    for j in (0, 1, 2):
        child_sigma = np.empty(params.n, dtype=sigma.dtype)
        child_sigma[inst.pi_star[j]] = sigma
        e = inst.children[j].edges
        freq = float((child_sigma[e[:, 0]] == child_sigma[e[:, 1]]).sum()) / intra_pairs
        assert abs(freq - target) < 4 * se


def test_instance_determinism():
    params = Params(n=120, a=6.0, b=1.0, s=0.4, K=3)
    a = sample_instance(params, 77)
    b = sample_instance(params, 77)
    assert a.parent == b.parent
    assert np.array_equal(a.sigma_star, b.sigma_star)
    assert np.array_equal(a.edge_patterns, b.edge_patterns)
    for j in range(3):
        assert a.children[j] == b.children[j]
        assert np.array_equal(a.pi_star[j], b.pi_star[j])


# -- the edge table and the derived children ---------------------------------


def reference_child_graphs(parent, patterns, perms):
    """The eager child construction the derived children replaced, kept verbatim."""
    # Each pi is a permutation, so distinct parent keys map to distinct keys.
    n = parent.n
    children = []
    for j, pi in enumerate(perms):
        kept = parent.edges[patterns[:, j].astype(bool)]
        keys = _image_keys(n, kept[:, 0], kept[:, 1], pi)[1]
        children.append(Graph._from_keys(n, np.sort(keys)))
    return children


@pytest.mark.parametrize("sampler", [sample_instance, sample_instance_partition])
@pytest.mark.parametrize("s, K", [(0.0, 2), (0.35, 1), (0.35, 3), (0.6, 5), (1.0, 4)])
def test_derived_children_equal_eager_construction(sampler, s, K):
    for seed in range(3):
        inst = sampler(Params(n=150, a=8.0, b=2.0, s=s, K=K), seed)
        ref = reference_child_graphs(inst.parent, inst.edge_patterns, inst.pi_star)
        assert list(inst.children) == ref
        for j in range(K):
            back = _pullback_union([ref[j]], [inst.pi_star[j]]).edges
            assert np.array_equal(inst.child_edges_in_parent_labels(j), back)


def test_children_are_built_on_first_access():
    inst = sample_instance(Params(n=100, a=6.0, b=2.0, s=0.5, K=4), 3)
    children = inst.children
    assert children._graphs == [None] * 4
    third = children[2]
    assert [g is not None for g in children._graphs] == [False, False, True, False]
    assert children[2] is third and children[-2] is third
    assert children[1:3] == [children[1], third]
    assert len(children) == 4
    with pytest.raises(IndexError):
        children[4]
    with pytest.raises(TypeError):
        children[0] = third


def test_edge_codes_pack_the_retention_bits():
    for K, dtype in [(1, np.uint8), (3, np.uint8), (8, np.uint8), (9, np.uint16)]:
        inst = sample_instance(Params(n=60, a=6.0, b=2.0, s=0.5, K=K), 2)
        codes = inst.edge_codes
        assert codes.dtype == dtype
        assert not codes.flags.writeable
        weights = np.array([1 << j for j in range(K)], dtype=np.int64)
        assert codes.tolist() == (inst.edge_patterns.astype(np.int64) @ weights).tolist()


def instance_fields(**changes):
    inst = sample_instance(Params(n=40, a=6.0, b=2.0, s=0.5, K=3), 1)
    fields = dict(
        params=inst.params,
        seed=inst.seed,
        parent=inst.parent,
        sigma_star=inst.sigma_star,
        pi_star=inst.pi_star,
        edge_patterns=inst.edge_patterns,
    )
    fields.update(changes)
    return fields


def test_instance_accepts_its_own_fields():
    inst = CorrelatedInstance(**instance_fields())
    assert inst.edge_codes.shape == (inst.parent.edge_count,)


def test_instance_rejects_misshapen_edge_patterns():
    patterns = instance_fields()["edge_patterns"]
    for bad in (patterns[:-1], patterns[:, :2], patterns.reshape(-1)):
        with pytest.raises(ValueError, match="shape"):
            CorrelatedInstance(**instance_fields(edge_patterns=bad))


def test_instance_rejects_non_binary_edge_patterns():
    patterns = instance_fields()["edge_patterns"].copy()
    patterns[0, 1] = 2
    with pytest.raises(ValueError, match="0 and 1"):
        CorrelatedInstance(**instance_fields(edge_patterns=patterns))


def test_instance_rejects_pi_star_that_is_not_k_permutations():
    pi = instance_fields()["pi_star"]
    repeated = pi[2].copy()
    repeated[0] = repeated[1]
    for bad in (
        pi[:2],
        pi + [pi[1]],
        [pi[0], pi[1], repeated],
        [pi[0], pi[1], pi[2][:-1]],
        [pi[0], pi[1], pi[2] + 1],
        [pi[0], pi[1], pi[2].astype(np.float64)],
    ):
        with pytest.raises(ValueError, match="permutation"):
            CorrelatedInstance(**instance_fields(pi_star=bad))


def test_instance_rejects_non_identity_anchor_permutation():
    pi = instance_fields()["pi_star"]
    with pytest.raises(ValueError, match="identity"):
        CorrelatedInstance(**instance_fields(pi_star=[pi[1], pi[1], pi[2]]))


def test_instance_stores_list_permutations_as_int64_arrays():
    fields = instance_fields()
    reference = CorrelatedInstance(**fields)
    # Arrays that already are int64 pass through uncopied.
    assert all(a is b for a, b in zip(reference.pi_star, fields["pi_star"]))
    inst = CorrelatedInstance(**instance_fields(pi_star=[pi.tolist() for pi in fields["pi_star"]]))
    assert all(pi.dtype == np.int64 for pi in inst.pi_star)
    assert list(inst.children) == list(reference.children)
    fam, ref_fam = all_pairwise_matchings(inst, 1), all_pairwise_matchings(reference, 1)
    assert fam.matchings == ref_fam.matchings
    for pair, mask in ref_fam.anchor_masks.items():
        assert fam.anchor_masks[pair].tolist() == mask.tolist()
    for j in range(inst.K):
        assert inst.inverse_pi(j).tolist() == reference.inverse_pi(j).tolist()


def test_instance_rejects_malformed_sigma_star():
    sigma = instance_fields()["sigma_star"]
    for bad in (
        sigma[:10],
        sigma.reshape(4, 10),
        sigma * 0.5,
        np.zeros_like(sigma),
        np.where(sigma > 0, 2, -1),
    ):
        with pytest.raises(ValueError, match="sigma_star"):
            CorrelatedInstance(**instance_fields(sigma_star=bad))
    inst = CorrelatedInstance(**instance_fields(sigma_star=sigma.astype(np.float64).tolist()))
    assert inst.n == sigma.shape[0]


def test_instance_takes_no_inverse_permutation_cache():
    fields = instance_fields()
    with pytest.raises(TypeError, match="_inverse_perms"):
        CorrelatedInstance(**fields, _inverse_perms=[None, None, fields["pi_star"][2]])
    inst = CorrelatedInstance(**fields)
    for j, pi in enumerate(fields["pi_star"]):
        assert inst.inverse_pi(j)[pi].tolist() == list(range(inst.n))


# -- partition construction ---------------------------------------------------


def test_partition_records_classes():
    params = Params(n=30, a=3.0, b=1.0, s=0.5, K=3)
    inst = sample_instance_partition(params, 5)
    assert inst.pair_classes is not None
    assert inst.pair_classes.shape == (30 * 29 // 2,)
    # Patterns on parent edges agree with the recorded class bits.
    e = inst.parent.edges
    idx = e[:, 0] * 30 - e[:, 0] * (e[:, 0] + 1) // 2 + (e[:, 1] - e[:, 0] - 1)
    for j in range(3):
        bits = (inst.pair_classes[idx] >> j) & 1
        assert np.array_equal(bits.astype(np.uint8), inst.edge_patterns[:, j])


def test_partition_full_retention_uses_single_class():
    inst = sample_instance_partition(Params(n=20, a=2.0, b=1.0, s=1.0, K=3), 1)
    assert set(np.unique(inst.pair_classes)) == {7}
    inst0 = sample_instance_partition(Params(n=20, a=2.0, b=1.0, s=0.0, K=3), 1)
    assert set(np.unique(inst0.pair_classes)) == {0}


def test_constructions_agree_on_pair_law():
    # For a fixed pair, the joint membership triple (in G1, in G2, in G3,
    # all viewed in parent labels) must have the same law under both
    # constructions.  Coarse two-sample check; the fine one runs in the
    # acceptance suite.
    n = 16
    a_coef = 0.7 * n / math.log(n)
    params = Params(n=n, a=a_coef, b=0.4 * a_coef, s=0.4, K=3)

    def observe(inst):
        bits = []
        for j in range(3):
            pj = inst.pi_star[j]
            bits.append(int(inst.children[j].has_edge(int(pj[0]), int(pj[1]))))
        return tuple(bits)

    draws = 4000
    subsample = Counter(observe(sample_instance(params, seed)) for seed in range(draws))
    partition = Counter(
        observe(sample_instance_partition(params, 10**6 + seed))
        for seed in range(draws)
    )
    keys = set(subsample) | set(partition)
    tv = 0.5 * sum(
        abs(subsample[k] / draws - partition[k] / draws) for k in keys
    )
    assert tv < 0.05


# -- union split --------------------------------------------------------------


def test_union_split_weights_frozen():
    w = union_split_weights(0.5, 2)
    assert w == {
        (1, 0): pytest.approx(1 / 3),
        (0, 1): pytest.approx(1 / 3),
        (1, 1): pytest.approx(1 / 3),
    }
    assert sum(w.values()) == pytest.approx(1.0)
    single = union_split_weights(0.3, 1)
    assert single == {(1,): pytest.approx(1.0)}
    with pytest.raises(ValueError):
        union_split_weights(0.0, 2)
    with pytest.raises(ValueError):
        union_split_weights(1.0, 2)


def test_split_union_graph_partitions_edges():
    rng = np.random.default_rng(5)
    edges = [(u, v) for u in range(200) for v in range(u + 1, 200) if rng.random() < 0.1]
    h = Graph(200, edges)
    parts = split_union_graph(h, 0.5, 3, 99)
    assert len(parts) == 2
    covered = set()
    for part in parts:
        assert part.edge_set() <= h.edge_set()
        covered |= part.edge_set()
    assert covered == h.edge_set()
    # Pattern frequencies: each of (1,0), (0,1), (1,1) has weight 1/3.
    in2, in3 = parts[0].edge_set(), parts[1].edge_set()
    counts = Counter(
        (int(e in in2), int(e in in3)) for e in h.edge_set()
    )
    se = math.sqrt((1 / 3) * (2 / 3) / h.edge_count)
    for key in [(1, 0), (0, 1), (1, 1)]:
        assert abs(counts[key] / h.edge_count - 1 / 3) < 4 * se


def test_split_union_graph_degenerate_cases():
    h = Graph(10, [(0, 1), (2, 3)])
    only = split_union_graph(h, 0.4, 2, 0)
    assert len(only) == 1
    assert only[0].edge_set() == h.edge_set()
    empty = split_union_graph(Graph(10), 0.4, 4, 0)
    assert all(part.edge_count == 0 for part in empty)
    with pytest.raises(ValueError):
        split_union_graph(h, 0.4, 1, 0)


# -- balance diagnostic -------------------------------------------------------


def test_balance_requires_partition_record():
    inst = sample_instance(Params(n=20, a=2.0, b=1.0, s=0.5, K=3), 0)
    with pytest.raises(ValueError):
        balance_diagnostic(inst)


def test_balance_small_instance_passes():
    # Four vertices, split labels, retention small enough that every pair
    # falls in the all-absent class whose window is wide.
    params = Params(n=4, a=0.5, b=0.5, s=0.1, K=3, k=1)
    inst = sample_instance_partition(params, 18)
    assert sorted(inst.sigma_star.tolist()) == [-1, -1, 1, 1]
    ok, report = balance_diagnostic(inst)
    assert ok
    assert report.passed and report.community_ok
    assert report.violation_count == 0


def test_balance_detects_unbalanced_communities():
    params = Params(n=100, a=0.0, b=0.0, s=0.5, K=3)
    inst = sample_instance_partition(params, 0)
    doctored = dataclasses.replace(
        inst, sigma_star=np.ones(100, dtype=np.int8)
    )
    ok, report = balance_diagnostic(doctored)
    assert not ok
    assert not report.community_ok
    assert report.community_sizes == (100, 0)


def test_balance_detects_pair_count_violations():
    params = Params(n=100, a=0.0, b=0.0, s=0.5, K=3)
    inst = sample_instance_partition(params, 0)
    # Force every pair containing vertex 0 into the all-present class: the
    # count 99 blows past the window w_7 (|side| + n^(3/4)) ~ 9.
    classes = np.zeros_like(inst.pair_classes)
    classes[:99] = 7
    sigma = np.array([1, -1] * 50, dtype=np.int8)
    doctored = dataclasses.replace(inst, sigma_star=sigma, pair_classes=classes)
    ok, report = balance_diagnostic(doctored)
    assert not ok
    assert report.community_ok
    assert report.violation_count > 0
    assert 0 < len(report.examples) <= 20
    vertex, class_code, side, count, lo, hi = report.examples[0]
    assert side in ("same", "opp")
    assert lo <= hi
    assert count < lo or count > hi


def test_balance_typical_instances_pass():
    # The regularity event has high probability at n = 10^4; these seeds are
    # fixed, so the outcome is deterministic.
    params = Params(n=10**4, a=0.5, b=0.5, s=0.5, K=3)
    passes = 0
    for seed in range(5):
        ok, _ = balance_diagnostic(sample_instance_partition(params, seed))
        passes += int(ok)
    assert passes == 5
