"""Pairwise k-core matchings, metagraphs, and the exact matching estimator."""

import itertools

import networkx as nx
import numpy as np
import pytest
from conftest import erdos_renyi, kcore_oracle
from graph_algebra import _anchor_paths, _compose_array_along_path

from csbm.generate import Params, sample_instance
from csbm.graphs import Graph, PartialMatching
from csbm.matching import (
    MatchingFamily,
    _patterns,
    all_pairwise_matchings,
    classify_good_bad,
    exact_matching_estimator,
    kcore_matching_bruteforce,
    kcore_matching_seeded,
)


def bruteforce_oracle(g: Graph, h: Graph, k: int):
    """Independent reference: scan permutations in lexicographic order."""
    best_size = -1
    best_perm = None
    best_core = None
    for perm in itertools.permutations(range(g.n)):
        inter = Graph(
            g.n,
            [
                (u, v)
                for u, v in g.edge_set()
                if h.has_edge(perm[u], perm[v])
            ],
        )
        core = kcore_oracle(inter, k)
        if len(core) > best_size:
            best_size = len(core)
            best_perm = perm
            best_core = core
    return best_perm, best_core


def relabel(g: Graph, pi) -> Graph:
    return Graph(g.n, [(int(pi[u]), int(pi[v])) for u, v in g.edge_set()])


# -- brute-force matcher ------------------------------------------------------


def test_bruteforce_triangle_identity():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    mu = kcore_matching_bruteforce(tri, tri, 2)
    assert mu.domain == frozenset({0, 1, 2})
    assert all(mu[v] == v for v in range(3))


def test_bruteforce_empty_graph():
    mu = kcore_matching_bruteforce(Graph(4), Graph(4), 1)
    assert len(mu) == 0


def test_bruteforce_single_edge_prefers_identity():
    e = Graph(2, [(0, 1)])
    mu = kcore_matching_bruteforce(e, e, 1)
    assert mu.domain == frozenset({0, 1})
    assert mu[0] == 0 and mu[1] == 1


def test_bruteforce_size_guard():
    with pytest.raises(ValueError):
        kcore_matching_bruteforce(Graph(10), Graph(10), 1)


def test_bruteforce_matches_exhaustive_oracle():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        g = erdos_renyi(n, 0.5, rng)
        h = erdos_renyi(n, 0.5, rng)
        for k in (1, 2):
            mu = kcore_matching_bruteforce(g, h, k)
            perm, core = bruteforce_oracle(g, h, k)
            assert mu.domain == core
            for v in core:
                assert mu[v] == perm[v]


# -- seeded matcher -----------------------------------------------------------


def test_seeded_empty_intersection():
    g = Graph(4, [(0, 1)])
    h = Graph(4, [(2, 3)])
    mu = kcore_matching_seeded(g, h, 1, np.arange(4))
    assert len(mu) == 0


def test_seeded_complete_graph():
    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    mu = kcore_matching_seeded(k5, k5, 4, np.arange(5))
    assert mu.domain == frozenset(range(5))
    assert all(mu[v] == v for v in range(5))


def test_seeded_triangle_pendant():
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    pi = np.array([2, 0, 3, 1])
    h = relabel(g, pi)
    mu = kcore_matching_seeded(g, h, 2, pi)
    assert mu.domain == frozenset({0, 1, 2})
    assert all(mu[v] == int(pi[v]) for v in mu.domain)


def test_seeded_requires_full_permutation():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        kcore_matching_seeded(g, g, 1, np.array([0, 0, 2]))


def test_seeded_correct_on_domain_and_dominated():
    # Both invariants at once on small correlated instances: the seeded
    # matcher always agrees with ground truth on its domain, and the brute
    # force maximizer matches at least as many vertices.
    params = Params(n=7, a=2.5, b=0.8, s=0.7, K=2, k=1)
    for seed in range(25):
        inst = sample_instance(params, seed)
        true_pi = inst.true_pairwise_permutation(0, 1)
        seeded = kcore_matching_seeded(
            inst.children[0], inst.children[1], 1, true_pi
        )
        for v, image in seeded.items():
            assert image == int(true_pi[v])
        brute = kcore_matching_bruteforce(inst.children[0], inst.children[1], 1)
        assert len(brute) >= len(seeded)


@pytest.mark.parametrize(("k", "s"), [(1, 0.3), (3, 0.4), (6, 0.5)])
def test_seeded_matches_networkx_core_of_set_intersection(k, s):
    # Retention grows with k so that every core is a large strict subset.
    inst = sample_instance(Params(n=2000, a=9.0, b=1.0, s=s, K=3, k=k), 40 + k)
    for i, j in itertools.combinations(range(3), 2):
        pi = inst.true_pairwise_permutation(i, j).tolist()
        target = inst.children[j].edge_set()
        inter = [
            (u, v)
            for u, v in inst.children[i].edge_set()
            if (min(pi[u], pi[v]), max(pi[u], pi[v])) in target
        ]
        ref = nx.Graph()
        ref.add_edges_from(inter)
        core = set(nx.k_core(ref, k).nodes)
        mu = kcore_matching_seeded(inst.children[i], inst.children[j], k, pi)
        assert 0 < len(core) < inst.n
        assert dict(mu.items()) == {v: pi[v] for v in core}


# -- matching families --------------------------------------------------------


def test_family_k1_is_empty():
    inst = sample_instance(Params(n=12, a=2.0, b=1.0, s=0.5, K=1), 0)
    fam = all_pairwise_matchings(inst, 1)
    assert fam.pairs() == []


def test_family_k2_equals_single_pairwise_call():
    inst = sample_instance(Params(n=30, a=4.0, b=1.0, s=0.8, K=2), 3)
    fam = all_pairwise_matchings(inst, 1)
    assert fam.pairs() == [(0, 1)]
    direct = kcore_matching_seeded(
        inst.children[0],
        inst.children[1],
        1,
        inst.true_pairwise_permutation(0, 1),
    )
    assert fam.matchings[(0, 1)] == direct


def test_family_full_retention_gives_full_matchings():
    params = Params(n=25, a=5.0, b=2.0, s=1.0, K=3)
    inst = None
    for seed in range(50):
        cand = sample_instance(params, seed)
        if int(cand.parent.degrees().min()) >= 1:
            inst = cand
            break
    assert inst is not None
    fam = all_pairwise_matchings(inst, 1)
    for i, j in fam.pairs():
        assert fam.member_mask(i, j).all()
        mu = fam.matchings[(i, j)]
        assert len(mu) == params.n
        true_pi = inst.true_pairwise_permutation(i, j)
        assert all(mu[v] == int(true_pi[v]) for v in range(params.n))


def test_family_masks_are_anchored():
    # The (i, j) mask marks anchor labels, not graph-i labels: a vertex is
    # flagged exactly when its graph-i copy sits in the matching domain.
    inst = sample_instance(Params(n=40, a=5.0, b=1.0, s=0.6, K=3), 7)
    fam = all_pairwise_matchings(inst, 1)
    for i, j in fam.pairs():
        mask = fam.member_mask(i, j)
        dom = fam.matchings[(i, j)].domain
        for v in range(inst.n):
            copy_in_i = int(inst.pi_star[i][v])
            assert mask[v] == (copy_in_i in dom)


# -- matched-pair patterns and classification --------------------------------


def crafted_family(n, K, matchings, masks):
    """Family with explicit anchored masks for hand tests."""
    return MatchingFamily(
        n=n,
        K=K,
        k=1,
        matchings=matchings,
        anchor_masks={key: np.array(val, dtype=bool) for key, val in masks.items()},
    )


def three_pair_family(n, masks, matchings=None):
    pairs = [(0, 1), (0, 2), (1, 2)]
    if matchings is None:
        matchings = {p: PartialMatching({}) for p in pairs}
    return crafted_family(n, 3, matchings, masks)


def only_pattern(fam):
    (pattern,) = _patterns(fam)
    return pattern


def test_metagraph_complete_when_fully_matched():
    fam = three_pair_family(
        2,
        {
            (0, 1): [True, True],
            (0, 2): [True, True],
            (1, 2): [True, True],
        },
    )
    pattern = only_pattern(fam)
    assert pattern.members.tolist() == [0, 1]
    assert pattern.pairs == ((0, 1), (0, 2), (1, 2))
    assert classify_good_bad(fam).good == frozenset({0, 1})


def test_metagraph_isolated_anchor_is_disconnected():
    # Matched only by the (1, 2) pair: the anchor node has no edges.
    fam = three_pair_family(
        1,
        {
            (0, 1): [False],
            (0, 2): [False],
            (1, 2): [True],
        },
    )
    assert only_pattern(fam).reached == frozenset({0})
    classes = classify_good_bad(fam)
    assert classes.bad == frozenset({0})
    assert classes.partitions[0][0] == frozenset({0})


def test_metagraph_path_is_connected():
    # Matched by (0, 1) and (0, 2) only: a path through the anchor node.
    fam = three_pair_family(
        1,
        {
            (0, 1): [True],
            (0, 2): [True],
            (1, 2): [False],
        },
    )
    pattern = only_pattern(fam)
    assert pattern.pairs == ((0, 1), (0, 2))
    assert pattern.reached == frozenset({0, 1, 2})
    assert classify_good_bad(fam).good == frozenset({0})


def test_patterns_are_cached_and_in_code_order():
    inst = sample_instance(Params(n=200, a=9.0, b=1.0, s=0.3, K=4, k=1), 2)
    fam = all_pairwise_matchings(inst, 1)
    table = _patterns(fam)
    assert _patterns(fam) is table
    members = np.concatenate([p.members for p in table])
    assert np.array_equal(np.sort(members), np.arange(inst.n))
    pairs = fam.pairs()
    codes = [sum(1 << pairs.index(pair) for pair in p.pairs) for p in table]
    assert codes == sorted(set(codes))
    for p in table:
        assert np.all(np.diff(p.members) > 0)
        for pair in pairs:
            assert (fam.anchor_masks[pair][p.members] == (pair in p.pairs)).all()


@pytest.mark.parametrize("K", [12, 13])
def test_patterns_keep_every_pair_past_64(K):
    # 66 and 78 pairs: more pairs than an int64 code has bits.
    inst = sample_instance(Params(n=300, a=9.0, b=1.0, s=0.5, K=K, k=1), 0)
    fam = all_pairwise_matchings(inst, 1)
    pairs = fam.pairs()
    assert len(pairs) > 64
    table = _patterns(fam)
    members = np.concatenate([p.members for p in table])
    assert np.array_equal(np.sort(members), np.arange(inst.n))
    codes = []
    for p in table:
        assert np.all(np.diff(p.members) > 0)
        for v in p.members.tolist():
            assert p.pairs == tuple(pair for pair in pairs if fam.anchor_masks[pair][v])
        codes.append(sum(1 << pairs.index(pair) for pair in p.pairs))
    assert codes == sorted(set(codes))
    assert any(max(pairs.index(pair) for pair in p.pairs) >= 64 for p in table if p.pairs)


def all_simple_paths(pairs, src, dst):
    paths = []

    def walk(node, seen, acc):
        if node == dst:
            paths.append(tuple(acc))
            return
        for a, b in pairs:
            for u, w in ((a, b), (b, a)):
                if u == node and w not in seen:
                    walk(w, seen | {w}, acc + [w])

    walk(src, {src}, [src])
    return paths


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_pattern_paths_match_exhaustive_oracle(K):
    # One anchored vertex per edge set: vertex v is matched by the t-th pair
    # exactly when bit t of v is set, so the table holds every metagraph on
    # K nodes, vertex v alone in the pattern of code v.  Each pattern's
    # reached set is the anchor's component, and its vertex is good exactly
    # when that component spans all K nodes.
    pairs = list(itertools.combinations(range(K), 2))
    n = 1 << len(pairs)
    codes = np.arange(n)
    fam = crafted_family(
        n,
        K,
        {p: PartialMatching({}) for p in pairs},
        {p: (codes >> t) & 1 for t, p in enumerate(pairs)},
    )
    table = _patterns(fam)
    classes = classify_good_bad(fam)
    assert [p.members.tolist() for p in table] == [[v] for v in range(n)]
    for v, pattern in enumerate(table):
        edges = [p for t, p in enumerate(pairs) if v >> t & 1]
        assert pattern.pairs == tuple(edges)
        metagraph = nx.Graph(edges)
        metagraph.add_nodes_from(range(K))
        assert pattern.reached == frozenset(nx.node_connected_component(metagraph, 0))
        assert (v in classes.good) == (len(pattern.reached) == K) == nx.is_connected(metagraph)


def test_classify_k2_good_iff_matched():
    inst = sample_instance(Params(n=30, a=3.0, b=1.0, s=0.5, K=2), 5)
    fam = all_pairwise_matchings(inst, 1)
    classes = classify_good_bad(fam)
    mask = fam.member_mask(0, 1)
    assert classes.good == frozenset(np.flatnonzero(mask).tolist())
    assert classes.bad == frozenset(np.flatnonzero(~mask).tolist())


def test_classify_records_bipartition():
    # Unmatched by both pairs at the anchor: {0} splits from {1, 2}.
    fam = three_pair_family(
        2,
        {
            (0, 1): [False, True],
            (0, 2): [False, True],
            (1, 2): [True, True],
        },
    )
    classes = classify_good_bad(fam)
    assert classes.bad == frozenset({0})
    assert classes.good == frozenset({1})
    comp, rest = classes.partitions[0]
    assert comp == frozenset({0})
    assert rest == frozenset({1, 2})


def test_classify_is_cached_on_the_family():
    inst = sample_instance(Params(n=200, a=9.0, b=1.0, s=0.4, K=3, k=1), 5)
    fam = all_pairwise_matchings(inst, 1)
    assert classify_good_bad(fam) is classify_good_bad(fam)
    assert classify_good_bad(all_pairwise_matchings(inst, 1)) is not classify_good_bad(fam)


def test_classify_ignores_insertion_order():
    inst = sample_instance(Params(n=25, a=3.0, b=1.0, s=0.4, K=3), 9)
    fam = all_pairwise_matchings(inst, 1)
    reversed_fam = MatchingFamily(
        n=fam.n,
        K=fam.K,
        k=fam.k,
        matchings=dict(reversed(list(fam.matchings.items()))),
        anchor_masks=dict(reversed(list(fam.anchor_masks.items()))),
    )
    a = classify_good_bad(fam)
    b = classify_good_bad(reversed_fam)
    assert a.good == b.good and a.bad == b.bad and a.partitions == b.partitions


# -- path composition ---------------------------------------------------------


def test_path_composition_is_path_independent():
    # Under seeded matchings every mu restricts the ground truth, so every
    # simple path from the anchor maps a good pattern's members to the same
    # images: their true copies.  This is why the estimator may return
    # pi_star itself once every vertex is good.
    params = Params(n=60, a=6.0, b=1.5, s=0.7, K=5, k=1)
    inst = sample_instance(params, 13)
    fam = all_pairwise_matchings(inst, 1)
    good = [p for p in _patterns(fam) if len(p.reached) == 5]
    checked = 0
    for pattern in good[:12]:
        shortest = _anchor_paths(5, pattern.pairs)
        for j in range(1, 5):
            paths = all_simple_paths(pattern.pairs, 0, j)
            assert shortest[j] in paths
            for path in paths:
                composed = _compose_array_along_path(fam, path)[pattern.members]
                assert np.array_equal(composed, inst.pi_star[j][pattern.members])
                checked += 1
    assert checked > 0


# -- exact matching estimator -------------------------------------------------


def find_seed(params, predicate, limit=200):
    for seed in range(limit):
        inst = sample_instance(params, seed)
        if predicate(inst):
            return inst
    raise AssertionError("no seed satisfied the predicate")


def test_estimator_full_retention_recovers_truth():
    params = Params(n=25, a=5.0, b=2.0, s=1.0, K=3)
    inst = find_seed(params, lambda i: int(i.parent.degrees().min()) >= 1)
    est = exact_matching_estimator(inst, 1)
    assert not est.abstained
    assert est.success
    assert est.bad_count == 0
    for j in range(1, 3):
        assert np.array_equal(est.permutations[j - 1], inst.pi_star[j])


def test_estimator_abstains_on_bad_vertices():
    params = Params(n=40, a=3.0, b=1.0, s=0.3, K=3)
    inst = find_seed(
        params,
        lambda i: len(classify_good_bad(all_pairwise_matchings(i, 1)).bad) > 0,
    )
    est = exact_matching_estimator(inst, 1)
    assert est.abstained
    assert est.permutations is None
    assert est.correct is None
    assert not est.success
    assert est.bad_count > 0


def test_estimator_k1_trivially_succeeds():
    inst = sample_instance(Params(n=10, a=2.0, b=1.0, s=0.5, K=1), 0)
    est = exact_matching_estimator(inst, 1)
    assert est.success
    assert est.permutations == []


def test_estimator_accepts_prebuilt_family():
    params = Params(n=30, a=5.0, b=1.0, s=0.9, K=3)
    inst = sample_instance(params, 21)
    fam = all_pairwise_matchings(inst, 1)
    a = exact_matching_estimator(inst, 1)
    b = exact_matching_estimator(inst, 1, family=fam)
    assert a.abstained == b.abstained and a.bad_count == b.bad_count
    if not a.abstained:
        for x, y in zip(a.permutations, b.permutations):
            assert np.array_equal(x, y)


def test_estimator_rejects_family_built_otherwise():
    # At k = 13 this instance abstains with every vertex bad; a k = 1 family
    # would report a perfect match instead.
    inst = sample_instance(Params(n=3000, a=9.0, b=1.0, s=0.4, K=3), 0)
    fam = all_pairwise_matchings(inst, 1)
    assert exact_matching_estimator(inst, 13).bad_count == inst.n
    with pytest.raises(ValueError):
        exact_matching_estimator(inst, 13, family=fam)
