"""Sampling: the union-first sampler against the partition construction, the union
split and the balance check of ``reference``."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
import graph_algebra
import reference
from conftest import edge_set, kept_by
from graph_algebra import _pullback_union, split_union_graph
from reference import (
    balance_diagnostic,
    from_edge_probs,
    parent_and_labels,
    sample_instance_partition,
    union_split_weights,
)

from csbm import generate
from csbm.generate import CorrelatedInstance, Params, sample_instance
from csbm.graphs import Graph, _image_keys
from csbm.matching import all_pairwise_matchings
from csbm.seeds import ROLE_SUBSAMPLE, ROLE_UNION_SPLIT, stream


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
    for fractional in ({"n": 10.5}, {"K": 2.5}, {"k": 1.5}, {"K": True}, {"k": True}):
        with pytest.raises(ValueError, match="integer"):
            Params(**{"n": 10, "a": 1.0, "b": 1.0, "s": 0.5, **fractional})
    assert Params(n=10.0, a=1.0, b=1.0, s=0.5, K=np.int64(2)).K == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("a", math.nan), ("a", math.inf), ("b", math.nan), ("b", -math.inf),
        ("eps", math.nan), ("eps", math.inf),
        ("a", True), ("s", True), ("eps", True), ("a", "9"), ("s", "0.4"),
    ],
)
def test_params_rejects_non_finite_coefficients(field, value):
    # NaN fails every comparison, so a check written as "x < 0" lets it in.
    with pytest.raises(ValueError, match=f"^{field} "):
        Params(**{"n": 10, "a": 1.0, "b": 1.0, "s": 0.5, field: value})


def test_params_rejects_more_than_64_children():
    # Retention codes hold one bit per child in at most 64 bits.
    assert Params(n=10, a=1.0, b=1.0, s=0.5, K=64).K == 64
    with pytest.raises(ValueError, match="64 children"):
        Params(n=10, a=1.0, b=1.0, s=0.5, K=65)


def test_params_rejects_probabilities_above_one():
    # p = a ln(n)/n = 10 ln(3)/3 > 1 must be a hard error, not a clamp.
    with pytest.raises(ValueError):
        Params(n=3, a=10.0, b=0.1, s=0.5)


def test_params_edge_probabilities():
    p = Params(n=100, a=4.0, b=1.0, s=0.5)
    assert p.p == pytest.approx(4.0 * math.log(100) / 100)
    assert p.q == pytest.approx(1.0 * math.log(100) / 100)


def test_params_from_edge_probs_round_trip():
    p = from_edge_probs(n=40, p=0.7, q=0.3, s=0.4, K=3)
    assert p.p == pytest.approx(0.7, abs=1e-12)
    assert p.q == pytest.approx(0.3, abs=1e-12)
    assert p.p <= 0.7
    assert p.q <= 0.3


# -- parent sampling ----------------------------------------------------------


def test_parent_extremes():
    empty, labels = parent_and_labels(Params(n=20, a=0.0, b=0.0, s=0.5), 0)
    assert empty.edge_count == 0
    assert set(np.unique(labels)) <= {-1, 1}

    n = 10
    full_coef = n / math.log(n)  # makes p = q = 1
    complete, _ = parent_and_labels(
        Params(n=n, a=full_coef, b=full_coef, s=0.5), 1
    )
    assert complete.edge_count == n * (n - 1) // 2


def test_parent_intra_edge_frequency():
    # Empirical intra-community edge frequency within 3 standard errors.
    params = Params(n=10**4, a=18.0, b=2.0, s=0.5)
    g, sigma = parent_and_labels(params, 0)
    n_plus = int((sigma > 0).sum())
    n_minus = params.n - n_plus
    intra_pairs = n_plus * (n_plus - 1) // 2 + n_minus * (n_minus - 1) // 2
    intra_edges = int((sigma[g.edges[:, 0]] == sigma[g.edges[:, 1]]).sum())
    freq = intra_edges / intra_pairs
    se = math.sqrt(params.p * (1 - params.p) / intra_pairs)
    assert abs(freq - params.p) < 3 * se


def test_parent_label_law():
    _, sigma = parent_and_labels(Params(n=4000, a=1.0, b=1.0, s=0.5), 3)
    # i.i.d. uniform signs: the sum is well within 4 sqrt(n).
    assert abs(int(sigma.sum())) < 4 * math.sqrt(4000)


def test_parent_determinism():
    params = Params(n=200, a=5.0, b=1.0, s=0.5)
    g1, s1 = parent_and_labels(params, 9)
    g2, s2 = parent_and_labels(params, 9)
    g3, s3 = parent_and_labels(params, 10)
    assert g1 == g2 and np.array_equal(s1, s2)
    assert g1 != g3 or not np.array_equal(s1, s3)


def sampler_params():
    """Empty, sparse, a != b either way, and dense parents over small to medium n."""
    for n in (1, 2, 3, 7, 50, 301, 2000):
        yield Params(n=n, a=0.0, b=0.0, s=0.5)
        for a, b in ((9.0, 1.0), (1.0, 9.0), (3.0, 0.0), (0.0, 3.0)):
            if n == 1 or max(a, b) * math.log(n) / n <= 1.0:
                yield Params(n=n, a=a, b=b, s=0.5)
        if 2 <= n <= 301:
            yield from_edge_probs(n=n, p=0.999, q=0.97, s=0.5)


def test_parent_sampler_matches_pairwise_unpacking():
    # The packed-key sampler at full retention, where the union is the
    # parent, against the one that unpacked each hit into a vertex pair and
    # canonicalised them through Graph(n, edges).
    cases = 0
    for params in sampler_params():
        for seed in (0, 1):
            g, sigma = parent_and_labels(params, seed)
            ref, ref_sigma = graph_algebra.sample_parent(params, seed)
            assert sigma.dtype == ref_sigma.dtype and sigma.tolist() == ref_sigma.tolist()
            assert g.n == ref.n and type(g.n) is int
            assert g.packed_keys().dtype == np.int64
            assert np.array_equal(g.packed_keys(), ref.packed_keys())
            assert g.edges.dtype == ref.edges.dtype
            assert np.array_equal(g.edges, ref.edges)
            assert not g.packed_keys().flags.writeable and not g.edges.flags.writeable
            cases += 1
    assert cases >= 60


# -- subsampling construction -------------------------------------------------


def test_instance_retention_extremes():
    params = Params(n=60, a=6.0, b=2.0, s=1.0, K=3)
    inst = sample_instance(params, 4)
    assert inst.edge_codes.tolist() == [7] * inst.parent.edge_count
    for j in range(3):
        assert inst.children[j].edge_count == inst.parent.edge_count
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
        kept = inst.parent.edges[kept_by(inst, j)]
        pi = inst.pi_star[j]
        mapped = np.sort(pi[kept], axis=1)
        expected = {(int(u), int(v)) for u, v in mapped}
        assert edge_set(inst.children[j]) == expected


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
    # Given that some child keeps an edge, P(pattern = (1,0,0)) is
    # s(1-s)^2 / (1 - (1-s)^3) = 0.125 / 0.875 at s = 0.5.
    params = Params(n=2000, a=18.0, b=2.0, s=0.5, K=3)
    inst = sample_instance(params, 0)
    m = inst.parent.edge_count
    freq = float((inst.edge_codes == 0b001).mean())
    target = 0.125 / 0.875
    se = math.sqrt(target * (1 - target) / m)
    assert abs(freq - target) < 3 * se


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
    assert np.array_equal(a.edge_codes, b.edge_codes)
    for j in range(3):
        assert a.children[j] == b.children[j]
        assert np.array_equal(a.pi_star[j], b.pi_star[j])


# -- the edge table and the derived children ---------------------------------


def reference_child_graphs(parent, codes, perms):
    """The eager child construction the derived children replaced."""
    # Each pi is a permutation, so distinct parent keys map to distinct keys.
    n = parent.n
    children = []
    for j, pi in enumerate(perms):
        kept = parent.edges[(codes >> j) & 1 == 1]
        keys = _image_keys(n, kept[:, 0], kept[:, 1], pi)[1]
        children.append(Graph._from_keys(n, np.sort(keys)))
    return children


def partition_instance(params, seed):
    return sample_instance_partition(params, seed)[0]


@pytest.mark.parametrize(
    "sampler", [sample_instance, pytest.param(partition_instance, id="sample_instance_partition")]
)
@pytest.mark.parametrize("s, K", [(0.0, 2), (0.35, 1), (0.35, 3), (0.6, 5), (1.0, 4)])
def test_derived_children_equal_eager_construction(sampler, s, K):
    for seed in range(3):
        inst = sampler(Params(n=150, a=8.0, b=2.0, s=s, K=K), seed)
        ref = reference_child_graphs(inst.parent, inst.edge_codes, inst.pi_star)
        assert list(inst.children) == ref
        for j in range(K):
            back = _pullback_union([ref[j]], [inst.pi_star[j]]).edges
            assert np.array_equal(inst.parent.edges[kept_by(inst, j)], back)


def test_children_are_built_on_first_access():
    inst = sample_instance(Params(n=100, a=6.0, b=2.0, s=0.5, K=4), 3)
    assert "anchor" not in inst.__dict__ and "children" not in inst.__dict__
    anchor = inst.anchor
    assert "children" not in inst.__dict__
    children = inst.children
    assert children[0] is anchor
    assert inst.children is children and len(children) == 4
    with pytest.raises(IndexError):
        children[4]
    with pytest.raises(TypeError):
        children[0] = anchor


def packed_one_draw(params, seed, m):
    """The retention bits of one ``random((m, K))`` draw, packed per edge row."""
    kept = stream(seed, ROLE_SUBSAMPLE).random((m, params.K)) < params.s
    return kept.astype(np.int64) @ (1 << np.arange(params.K, dtype=np.int64))


def test_edge_codes_pack_the_retention_bits():
    # The retention-draw sampler the pins recorded before the union-first one.
    for K, dtype in [(1, np.uint8), (3, np.uint8), (8, np.uint8), (9, np.uint16)]:
        params = Params(n=60, a=6.0, b=2.0, s=0.5, K=K)
        parent, _, codes = graph_algebra.retention_draw(params, 2)
        assert codes.dtype == dtype
        assert codes.tolist() == packed_one_draw(params, 2, parent.edge_count).tolist()
        inst = graph_algebra.sample_instance(params, 2)
        assert inst.edge_codes.dtype == dtype
        assert not inst.edge_codes.flags.writeable


@pytest.mark.parametrize("K", [1, 3, 9])
def test_union_edges_are_the_kept_parent_rows(K):
    # The retention draw gives code 0 to the parent edges no child keeps;
    # its instance holds exactly the other rows, with their codes.
    params = Params(n=300, a=9.0, b=1.0, s=0.3, K=K)
    parent, _, codes = graph_algebra.retention_draw(params, 5)
    kept = np.flatnonzero(codes != 0)
    assert 0 < kept.size < parent.edge_count
    inst = graph_algebra.sample_instance(params, 5)
    assert inst.parent.edges.tolist() == parent.edges[kept].tolist()
    assert inst.edge_codes.dtype == codes.dtype
    assert inst.edge_codes.tolist() == codes[kept].tolist()


@pytest.mark.parametrize(
    "sampler, K",
    [
        (sample_instance, 1),
        (sample_instance, 3),
        (sample_instance, 9),
        pytest.param(partition_instance, 3, id="sample_instance_partition-3"),
    ],
)
def test_samplers_store_only_union_edges(sampler, K):
    inst = sampler(Params(n=300, a=9.0, b=1.0, s=0.3, K=K), 5)
    assert inst.edge_codes.size == inst.parent.edge_count > 0
    assert np.count_nonzero(inst.edge_codes) == inst.edge_codes.size
    # The stages read these endpoint rows beside the codes, one row per edge.
    u, v = inst.parent.edges.T
    assert u.tolist() == inst.parent.edges[:, 0].tolist()
    assert v.tolist() == inst.parent.edges[:, 1].tolist()
    assert (u < v).all()
    for arr in (u, v):
        assert arr.flags.c_contiguous and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_union_edges_of_an_instance_no_child_keeps():
    inst = sample_instance(Params(n=80, a=9.0, b=1.0, s=0.0, K=2), 1)
    u, v = inst.parent.edges.T
    assert [u.size, v.size, inst.edge_codes.size] == [0, 0, 0]


@pytest.mark.parametrize("rows, K", [(3, 3), (5, 2), (1, 4), (10**6, 3)])
def test_retention_draw_in_row_chunks_equals_one_draw(monkeypatch, rows, K):
    # The retention-draw sampler, whose chunked draw the old pins depend on.
    params = Params(n=200, a=9.0, b=1.0, s=0.4, K=K)
    monkeypatch.setattr(graph_algebra, "_RETENTION_CHUNK_ROWS", rows)
    parent, _, codes = graph_algebra.retention_draw(params, 8)
    m = parent.edge_count
    assert rows in (1, 10**6) or m % rows  # a ragged last chunk
    assert codes.dtype == np.uint8
    assert codes.tolist() == packed_one_draw(params, 8, m).tolist()


def test_instances_and_families_compare_by_identity():
    params = Params(n=120, a=9.0, b=1.0, s=0.5, K=3, k=1)
    inst, twin = sample_instance(params, 1), sample_instance(params, 1)
    assert inst == inst and not inst != inst
    assert inst != twin and not inst == twin
    fam, fam_twin = all_pairwise_matchings(inst, 1), all_pairwise_matchings(inst, 1)
    assert fam == fam and fam != fam_twin
    assert inst in [twin, inst] and fam not in [fam_twin]


def instance_fields(**changes):
    inst = sample_instance(Params(n=40, a=6.0, b=2.0, s=0.5, K=3), 1)
    fields = dict(
        params=inst.params,
        seed=inst.seed,
        parent=inst.parent,
        sigma_star=inst.sigma_star,
        pi_star=inst.pi_star,
        edge_codes=inst.edge_codes,
    )
    fields.update(changes)
    return fields


def test_instance_accepts_its_own_fields():
    inst = CorrelatedInstance(**instance_fields())
    assert inst.edge_codes.shape == (inst.parent.edge_count,)


def test_instance_stores_narrow_read_only_codes_and_leaves_the_input_alone():
    codes = instance_fields()["edge_codes"].astype(np.int64)
    inst = CorrelatedInstance(**instance_fields(edge_codes=codes))
    assert inst.edge_codes.dtype == np.uint8 and not inst.edge_codes.flags.writeable
    assert inst.edge_codes.tolist() == codes.tolist()
    assert codes.flags.writeable


@pytest.mark.parametrize(
    "case", ["short", "column", "float", "negative", "zero", "two-to-the-K"]
)
def test_instance_rejects_malformed_edge_codes(case):
    codes = instance_fields()["edge_codes"].astype(np.int64)
    first = np.arange(codes.size) == 0
    bad = {
        "short": codes[:-1],
        "column": codes.reshape(-1, 1),
        "float": codes.astype(np.float64),
        "negative": np.where(first, -1, codes),
        # An edge no child keeps is not in the union.
        "zero": np.where(first, 0, codes),
        "two-to-the-K": np.where(first, 1 << 3, codes),
    }[case]
    with pytest.raises(ValueError, match="shape" if case in ("short", "column") else "integers"):
        CorrelatedInstance(**instance_fields(edge_codes=bad))


def test_instance_rejects_more_than_64_children():
    # Params itself refuses K = 65, so no instance can be built with it.
    with pytest.raises(ValueError, match="64 children"):
        params = dataclasses.replace(instance_fields()["params"], K=65)
        CorrelatedInstance(**instance_fields(params=params))


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
    inst, classes = sample_instance_partition(params, 5)
    assert classes.shape == (30 * 29 // 2,)
    # Each parent edge's retention code is its recorded pair class.
    e = inst.parent.edges
    idx = e[:, 0] * 30 - e[:, 0] * (e[:, 0] + 1) // 2 + (e[:, 1] - e[:, 0] - 1)
    assert inst.edge_codes.dtype == np.uint8
    assert np.array_equal(inst.edge_codes, classes[idx])


def test_partition_full_retention_uses_single_class():
    _, classes = sample_instance_partition(Params(n=20, a=2.0, b=1.0, s=1.0, K=3), 1)
    assert set(np.unique(classes)) == {7}
    _, classes0 = sample_instance_partition(Params(n=20, a=2.0, b=1.0, s=0.0, K=3), 1)
    assert set(np.unique(classes0)) == {0}


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
            bits.append(int(int(pj[1]) in inst.children[j].neighbors(int(pj[0]))))
        return tuple(bits)

    draws = 4000
    subsample = Counter(observe(sample_instance(params, seed)) for seed in range(draws))
    partition = Counter(
        observe(partition_instance(params, 10**6 + seed))
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
        assert edge_set(part) <= edge_set(h)
        covered |= edge_set(part)
    assert covered == edge_set(h)
    # Pattern frequencies: each of (1,0), (0,1), (1,1) has weight 1/3.
    in2, in3 = edge_set(parts[0]), edge_set(parts[1])
    counts = Counter(
        (int(e in in2), int(e in in3)) for e in edge_set(h)
    )
    se = math.sqrt((1 / 3) * (2 / 3) / h.edge_count)
    for key in [(1, 0), (0, 1), (1, 1)]:
        assert abs(counts[key] / h.edge_count - 1 / 3) < 4 * se


def test_split_union_graph_degenerate_cases():
    h = Graph(10, [(0, 1), (2, 3)])
    only = split_union_graph(h, 0.4, 2, 0)
    assert len(only) == 1
    assert edge_set(only[0]) == edge_set(h)
    empty = split_union_graph(Graph(10), 0.4, 4, 0)
    assert all(part.edge_count == 0 for part in empty)
    with pytest.raises(ValueError):
        split_union_graph(h, 0.4, 1, 0)


@pytest.mark.parametrize("K", [2, 3, 4, 5])
def test_split_union_graph_equals_the_binary_search_form(K):
    # Up to four bits the sampler's non-zero code draw takes one uniform per
    # edge from the table of all non-zero codes, as the split's binary
    # search does.
    rng = np.random.default_rng(K)
    edges = [(u, v) for u in range(300) for v in range(u + 1, 300) if rng.random() < 0.2]
    h = Graph(300, edges)
    for seed in range(4):
        codes = generate._draw_nonzero_codes(
            stream(seed, ROLE_UNION_SPLIT), h.edge_count, 0.3, K - 1
        )
        want = split_union_graph(h, 0.3, K, seed)
        assert len(want) == K - 1
        for j, w in enumerate(want):
            assert np.array_equal(h.packed_keys()[(codes >> j) & 1 == 1], w.packed_keys())


# -- the non-zero code draw ---------------------------------------------------

_LAW_DRAWS = 200_000


def _tv_bound(weights, draws):
    """Bound on the TV of ``draws`` empirical frequencies from ``weights``, failing w.p. < e^-10.

    E|freq - w| <= sqrt(w (1 - w) / draws) per cell, and one draw moves
    the TV by at most 1 / draws, so it exceeds its mean by 0.005 with
    probability at most exp(-2 draws 0.005^2).
    """
    w = np.asarray(weights)
    return 0.5 * float(np.sqrt(w * (1 - w) / draws).sum()) + 0.005


@pytest.mark.parametrize("K, s", [(1, 0.3), (3, 0.15), (3, 0.4), (10, 0.3)])
def test_nonzero_codes_follow_the_union_split_law(K, s):
    codes = generate._draw_nonzero_codes(np.random.default_rng(K), _LAW_DRAWS, s, K)
    weights = union_split_weights(s, K)
    want = [weights[tuple((c >> j) & 1 for j in range(K))] for c in range(1, 1 << K)]
    got = np.bincount(codes, minlength=1 << K) / _LAW_DRAWS
    assert got[0] == 0 and got.size == 1 << K
    tv = 0.5 * float(np.abs(got[1:] - want).sum())
    assert tv <= _tv_bound(want, _LAW_DRAWS)


def test_nonzero_codes_at_64_bits_have_the_lowest_bit_and_bit_laws():
    # Given a non-zero code, its lowest set bit j has P(j) = (1 - s)^j s / f
    # and every bit is set with probability s / f, f = 1 - (1 - s)^64.
    s, K = 0.1, 64
    f = 1 - (1 - s) ** K
    codes = generate._draw_nonzero_codes(np.random.default_rng(64), _LAW_DRAWS, s, K)
    assert codes.dtype == np.uint64 and codes.all()
    lowest_bit = codes & (~codes + np.uint64(1))
    lowest = np.log2(lowest_bit.astype(np.float64)).astype(np.int64)
    assert np.array_equal(np.uint64(1) << lowest.astype(np.uint64), lowest_bit)
    want = [(1 - s) ** j * s / f for j in range(K)]
    got = np.bincount(lowest, minlength=K) / _LAW_DRAWS
    assert 0.5 * float(np.abs(got - want).sum()) <= _tv_bound(want, _LAW_DRAWS)
    bits = (codes[:, None] >> np.arange(K, dtype=np.uint64)) & np.uint64(1)
    freq = bits.mean(axis=0)
    se = math.sqrt(s / f * (1 - s / f) / _LAW_DRAWS)
    # 64 bits at 4.5 standard errors each: all pass with probability > 0.999.
    assert np.abs(freq - s / f).max() < 4.5 * se


@pytest.mark.parametrize("K, dtype", [(8, np.uint8), (9, np.uint16), (64, np.uint64)])
def test_nonzero_codes_come_in_the_narrowest_dtype(K, dtype):
    codes = generate._draw_nonzero_codes(np.random.default_rng(0), _LAW_DRAWS, 0.3, K)
    assert codes.dtype == dtype and codes.all()
    assert K == 64 or int(codes.max()) < 1 << K
    inst = sample_instance(Params(n=60, a=6.0, b=2.0, s=0.3, K=K), 1)
    assert inst.edge_codes.dtype == dtype and inst.edge_codes.all()


def test_edge_codes_are_one_nonzero_draw_per_union_edge():
    for K in (1, 3, 6):
        params = Params(n=300, a=9.0, b=1.0, s=0.3, K=K)
        inst = sample_instance(params, 2)
        m = inst.parent.edge_count
        want = generate._draw_nonzero_codes(stream(2, ROLE_SUBSAMPLE), m, params.s, K)
        assert not inst.edge_codes.flags.writeable
        assert inst.edge_codes.tolist() == want.tolist()


def test_union_edge_counts_match_the_union_rates():
    # A pair is a union edge w.p. p f inside a community and q f across.
    params = Params(n=2000, a=18.0, b=2.0, s=0.3, K=3)
    f = 1 - (1 - params.s) ** params.K
    inst = sample_instance(params, 4)
    sigma = inst.sigma_star
    n_plus = int((sigma > 0).sum())
    n_minus = params.n - n_plus
    e = inst.parent.edges
    intra = int((sigma[e[:, 0]] == sigma[e[:, 1]]).sum())
    for count, pairs, rate in (
        (intra, n_plus * (n_plus - 1) // 2 + n_minus * (n_minus - 1) // 2, params.p * f),
        (inst.parent.edge_count - intra, n_plus * n_minus, params.q * f),
    ):
        assert pairs >= 10**5
        assert abs(count - pairs * rate) < 4 * math.sqrt(pairs * rate * (1 - rate))


@pytest.mark.parametrize("K", [1, 3, 5])
def test_union_first_sampler_keeps_labels_and_permutations(K):
    for seed in range(3):
        params = Params(n=500, a=9.0, b=1.0, s=0.4, K=K)
        inst = sample_instance(params, seed)
        ref = graph_algebra.sample_instance(params, seed)
        assert inst.sigma_star.tolist() == ref.sigma_star.tolist()
        assert all(np.array_equal(a, b) for a, b in zip(inst.pi_star, ref.pi_star, strict=True))


# -- balance diagnostic -------------------------------------------------------


def test_balance_small_instance_passes():
    # Four vertices, split labels, retention small enough that every pair
    # falls in the all-absent class whose window is wide.
    params = Params(n=4, a=0.5, b=0.5, s=0.1, K=3, k=1)
    inst, classes = sample_instance_partition(params, 18)
    assert sorted(inst.sigma_star.tolist()) == [-1, -1, 1, 1]
    ok, report = balance_diagnostic(inst, classes)
    assert ok
    assert report.passed and report.community_ok
    assert report.violation_count == 0


def test_balance_detects_unbalanced_communities():
    params = Params(n=100, a=0.0, b=0.0, s=0.5, K=3)
    inst, classes = sample_instance_partition(params, 0)
    doctored = dataclasses.replace(
        inst, sigma_star=np.ones(100, dtype=np.int8)
    )
    ok, report = balance_diagnostic(doctored, classes)
    assert not ok
    assert not report.community_ok
    assert report.community_sizes == (100, 0)


def test_balance_detects_pair_count_violations():
    params = Params(n=100, a=0.0, b=0.0, s=0.5, K=3)
    inst, classes = sample_instance_partition(params, 0)
    # Force every pair containing vertex 0 into the all-present class: the
    # count 99 blows past the window w_7 (|side| + n^(3/4)) ~ 9.
    classes = np.zeros_like(classes)
    classes[:99] = 7
    sigma = np.array([1, -1] * 50, dtype=np.int8)
    doctored = dataclasses.replace(inst, sigma_star=sigma)
    ok, report = balance_diagnostic(doctored, classes)
    assert not ok
    assert report.community_ok
    assert report.violation_count > 0
    assert 0 < len(report.examples) <= 20
    vertex, class_code, side, count, lo, hi = report.examples[0]
    assert side in ("same", "opp")
    assert lo <= hi
    assert count < lo or count > hi


@pytest.mark.parametrize("chunk", [None, 1, 7])
@pytest.mark.parametrize("n", [2, 3, 50, 301])
@pytest.mark.parametrize("K", [1, 3])
def test_pair_class_counts_match_reference(monkeypatch, n, K, chunk):
    # The vectorised count against the per-row loop it replaced, also with
    # chunks cut mid-triangle.
    if chunk is not None:
        monkeypatch.setattr(reference, "_COUNT_CHUNK", chunk)
    rng = np.random.default_rng(n * 10 + K)
    classes = rng.integers(0, 1 << K, size=n * (n - 1) // 2).astype(np.uint8)
    sigma = rng.choice(np.array([-1, 1], dtype=np.int8), n)
    got = reference._pair_class_counts(classes, sigma, n, 1 << K)
    want = graph_algebra._pair_class_counts(classes, sigma, n, 1 << K)
    assert got.dtype == np.int64 and got.shape == (n, 1 << K, 2)
    assert np.array_equal(got, want)


class _FixedUniforms:
    """Stands in for a Generator whose ``random`` hands out fixed values in order."""

    def __init__(self, values: np.ndarray):
        self._values = values
        self._pos = 0

    def random(self, size: int) -> np.ndarray:
        out = self._values[self._pos : self._pos + size]
        self._pos += size
        return out


@pytest.mark.parametrize("s, K", [(0.5, 3), (0.15, 3), (0.4, 1), (0.7, 5)])
def test_draw_codes_equal_the_binary_search_form(monkeypatch, s, K):
    weights = generate._pattern_weights(s, K)
    # A seeded stream drawn across several chunks, then uniforms placed on
    # every inner edge of the cumulative table and one ulp either side.
    monkeypatch.setattr(generate, "_CODE_CHUNK", 1000)
    got = generate._draw_codes(np.random.default_rng(K), 4567, weights)
    want = graph_algebra._draw_codes(np.random.default_rng(K), 4567, weights)
    assert got.dtype == np.uint8 and np.array_equal(got, want)
    edges = np.cumsum(weights)[:-1]
    u = np.concatenate(
        [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), [0.0, np.nextafter(1.0, 0.0)]]
    )
    got = generate._draw_codes(_FixedUniforms(u), u.size, weights)
    want = graph_algebra._draw_codes(_FixedUniforms(u), u.size, weights)
    assert np.array_equal(got, want)
    assert got.max() == (1 << K) - 1


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("table", ["nonzero", "full"])
def test_chunked_code_draws_equal_one_search_over_one_stream(monkeypatch, table, K):
    # Chunks of 1000 uniforms, the last one partial, give the codes of one
    # binary search over the whole stream, drawn again from the same seed.
    s = 0.35
    if table == "nonzero":
        weights = np.array(generate._nonzero_weights(s, K))
    else:
        weights = generate._pattern_weights(s, K)
    monkeypatch.setattr(generate, "_CODE_CHUNK", 1000)
    got = generate._draw_codes(stream(K, ROLE_UNION_SPLIT), 2503, weights)
    u = stream(K, ROLE_UNION_SPLIT).random(2503)
    want = np.searchsorted(np.cumsum(weights)[:-1], u, side="right")
    assert np.array_equal(got, want)


def test_balance_typical_instances_pass():
    # The regularity event has high probability at n = 10^4; these seeds are
    # fixed, so the outcome is deterministic.
    params = Params(n=10**4, a=0.5, b=0.5, s=0.5, K=3)
    passes = 0
    for seed in range(5):
        ok, _ = balance_diagnostic(*sample_instance_partition(params, seed))
        passes += int(ok)
    assert passes == 5
