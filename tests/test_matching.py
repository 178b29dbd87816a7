"""Pairwise k-core matchings, metagraphs, and the exact matching estimator."""

import itertools

import networkx as nx
import numpy as np
import pytest
from conftest import edge_set, erdos_renyi, kcore_oracle
from graph_algebra import (
    _anchor_paths,
    _compose_array_along_path,
    anchor_component,
    bipartition,
    frozenset_classes,
    kcore_matching_bruteforce,
    kcore_matching_seeded,
    mask_patterns,
)

from csbm import graphs, matching
from csbm.generate import Params, _code_dtype, sample_instance
from csbm.graphs import Graph
from csbm.matching import (
    MatchingFamily,
    all_pairwise_matchings,
    classify_good_bad,
    exact_matching_estimator,
)


def bruteforce_oracle(g: Graph, h: Graph, k: int):
    """Independent reference: scan permutations in lexicographic order."""
    best_size = -1
    best_perm = None
    best_core = None
    h_edges = edge_set(h)
    for perm in itertools.permutations(range(g.n)):
        inter = Graph(
            g.n,
            [
                (u, v)
                for u, v in g.edges.tolist()
                if (min(perm[u], perm[v]), max(perm[u], perm[v])) in h_edges
            ],
        )
        core = kcore_oracle(inter, k)
        if len(core) > best_size:
            best_size = len(core)
            best_perm = perm
            best_core = core
    return best_perm, best_core


def relabel(g: Graph, pi) -> Graph:
    return Graph(g.n, [(int(pi[u]), int(pi[v])) for u, v in g.edges.tolist()])


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
        target = edge_set(inst.children[j])
        inter = [
            (u, v)
            for u, v in edge_set(inst.children[i])
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


def test_family_builds_no_graph_and_no_adjacency(monkeypatch):
    inst = sample_instance(Params(n=400, a=9.0, b=1.0, s=0.5, K=3), 2)
    inst.parent.edges

    def no_adjacency(*args):
        raise AssertionError("an adjacency was built")

    def no_graph(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graphs, "_adjacency_csr", no_adjacency)
    monkeypatch.setattr(Graph, "_set_keys", no_graph)
    # The peel counts degrees over the intersection's edges, round by
    # round, at any k.
    one, two, three = (all_pairwise_matchings(inst, k) for k in (1, 2, 3))
    monkeypatch.undo()
    for (i, j), mask in three.anchor_masks.items():
        mu = kcore_matching_seeded(
            inst.children[i], inst.children[j], 3, inst.true_pairwise_permutation(i, j)
        )
        assert three.matchings[(i, j)] == mu
        assert mask.sum() < two.anchor_masks[(i, j)].sum() <= one.anchor_masks[(i, j)].sum()


def test_family_full_retention_gives_full_matchings():
    params = Params(n=25, a=5.0, b=2.0, s=1.0, K=3)
    inst = None
    for seed in range(50):
        cand = sample_instance(params, seed)
        if np.unique(cand.parent.edges).size == cand.n:
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


def test_family_matchings_are_built_once_from_the_masks():
    inst = sample_instance(Params(n=60, a=5.0, b=1.0, s=0.6, K=3), 4)
    fam = all_pairwise_matchings(inst, 1)
    assert "matchings" not in fam.__dict__
    assert fam.pairs() == [(0, 1), (0, 2), (1, 2)]
    matchings = fam.matchings
    assert fam.matchings is matchings
    assert list(matchings) == fam.pairs()
    for (i, j), mu in matchings.items():
        arr = mu.as_array(inst.n)
        mask = fam.anchor_masks[(i, j)]
        assert np.array_equal(arr[inst.pi_star[i][mask]], inst.pi_star[j][mask])
        assert len(mu) == mask.sum()


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


def crafted_family(n, K, masks):
    """Family with explicit anchored masks and identity relabellings for hand tests."""
    return MatchingFamily(
        n=n,
        K=K,
        k=1,
        anchor_masks={key: np.array(val, dtype=bool) for key, val in masks.items()},
        pi_star=[np.arange(n, dtype=np.int64)] * K,
    )


def three_pair_family(n, masks):
    return crafted_family(n, 3, masks)


def test_metagraph_complete_when_fully_matched():
    fam = three_pair_family(
        2,
        {
            (0, 1): [True, True],
            (0, 2): [True, True],
            (1, 2): [True, True],
        },
    )
    classes = classify_good_bad(fam)
    assert classes.reached.tolist() == [0b111, 0b111]
    assert classes.good.tolist() == [0, 1]


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
    classes = classify_good_bad(fam)
    assert classes.reached.tolist() == [0b001]
    assert classes.bad.tolist() == [0]
    assert bipartition(classes, 3, 0)[0] == frozenset({0})


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
    classes = classify_good_bad(fam)
    assert classes.reached.tolist() == [0b111]
    assert classes.good.tolist() == [0]


def code(nodes):
    return sum(1 << i for i in nodes)


@pytest.mark.parametrize("K", [12, 13])
def test_patterns_keep_every_pair_past_64(K):
    # 66 and 78 pairs: more pairs than an int64 code has bits.  Every
    # vertex's reached code is the anchor's component over all its pairs.
    inst = sample_instance(Params(n=300, a=9.0, b=1.0, s=0.5, K=K, k=1), 0)
    fam = all_pairwise_matchings(inst, 1)
    pairs = fam.pairs()
    assert len(pairs) > 64
    reached = classify_good_bad(fam).reached
    groups = mask_patterns(fam)
    for matched, members in groups.items():
        assert reached[members].tolist() == [code(anchor_component(K, matched))] * len(members)
    assert any(pairs.index(pair) >= 64 for matched in groups for pair in matched)


def test_reached_follows_a_path_against_the_pair_order():
    # Vertex 0's metagraph is the path 0 - 12 - 11 - ... - 1.  Its links
    # come in reverse pair order, so each sweep over the pairs reaches one
    # more node, and (11, 12) is the last of the 78 pairs, past the 64th.
    # Vertex 1 lacks the (5, 6) link: its anchor reaches 12 down to 6, while
    # 1 - 2 - ... - 5 stays a separate component.
    K = 13
    path = [(0, 12)] + [(j - 1, j) for j in range(12, 1, -1)]
    masks = {pair: [pair in path, pair in path and pair != (5, 6)]
             for pair in itertools.combinations(range(K), 2)}
    fam = crafted_family(2, K, masks)
    assert fam.pairs().index((11, 12)) == 77
    classes = classify_good_bad(fam)
    assert classes.reached.tolist() == [(1 << K) - 1, code([0, *range(6, K)])]
    assert classes.good.tolist() == [0] and classes.bad.tolist() == [1]


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
    # exactly when bit t of v is set, so the family holds every metagraph on
    # K nodes.  Each vertex's reached code is the anchor's component, and
    # the vertex is good exactly when that component spans all K nodes.
    pairs = list(itertools.combinations(range(K), 2))
    n = 1 << len(pairs)
    codes = np.arange(n)
    fam = crafted_family(n, K, {p: (codes >> t) & 1 for t, p in enumerate(pairs)})
    classes = classify_good_bad(fam)
    for v in range(n):
        edges = [p for t, p in enumerate(pairs) if v >> t & 1]
        metagraph = nx.Graph(edges)
        metagraph.add_nodes_from(range(K))
        component = nx.node_connected_component(metagraph, 0)
        assert int(classes.reached[v]) == code(component)
        assert (v in classes.good) == (len(component) == K) == nx.is_connected(metagraph)


def test_classify_k2_good_iff_matched():
    inst = sample_instance(Params(n=30, a=3.0, b=1.0, s=0.5, K=2), 5)
    fam = all_pairwise_matchings(inst, 1)
    classes = classify_good_bad(fam)
    mask = fam.member_mask(0, 1)
    assert classes.good.tolist() == np.flatnonzero(mask).tolist()
    assert classes.bad.tolist() == np.flatnonzero(~mask).tolist()


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
    assert classes.bad.tolist() == [0]
    assert classes.good.tolist() == [1]
    comp, rest = bipartition(classes, 3, 0)
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
        anchor_masks=dict(reversed(list(fam.anchor_masks.items()))),
        pi_star=inst.pi_star,
    )
    a = classify_good_bad(fam)
    b = classify_good_bad(reversed_fam)
    for name in ("good", "bad", "reached"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


CLASSIFY_GRID = [
    (K, s, n, seed)
    for K in (1, 2, 3, 4, 5)
    for s in (0.15, 0.4)
    for n in (300, 2000)
    for seed in range(4)
] + [(12, 0.5, 300, 0)]


@pytest.mark.parametrize("K, s, n, seed", CLASSIFY_GRID)
def test_classify_arrays_match_frozenset_split(K, s, n, seed):
    # The last cell is the K = 12 family of test_patterns_keep_every_pair_past_64.
    inst = sample_instance(Params(n=n, a=9.0, b=1.0, s=s, K=K, k=1), seed)
    fam = all_pairwise_matchings(inst, 1)
    classes = classify_good_bad(fam)
    good, bad, partitions = frozenset_classes(fam)
    assert classes.good.tolist() == sorted(good)
    assert classes.bad.tolist() == sorted(bad)
    assert {v: bipartition(classes, K, v) for v in classes.bad.tolist()} == partitions
    for arr in (classes.good, classes.bad, classes.reached):
        assert not arr.flags.writeable
    assert classes.good.dtype == classes.bad.dtype == np.int64
    assert classes.reached.shape == (n,) and classes.reached.dtype == _code_dtype(K)


# -- path composition ---------------------------------------------------------


def test_path_composition_is_path_independent():
    # Under seeded matchings every mu restricts the ground truth, so every
    # simple path from the anchor maps a good pattern's members to the same
    # images: their true copies.  This is why the estimator may return
    # pi_star itself once every vertex is good.
    params = Params(n=60, a=6.0, b=1.5, s=0.7, K=5, k=1)
    inst = sample_instance(params, 13)
    fam = all_pairwise_matchings(inst, 1)
    checked = 0
    for pairs, members in mask_patterns(fam).items():
        if len(anchor_component(5, pairs)) < 5:
            continue
        shortest = _anchor_paths(5, pairs)
        for j in range(1, 5):
            paths = all_simple_paths(pairs, 0, j)
            assert shortest[j] in paths
            for path in paths:
                composed = _compose_array_along_path(fam, path)[members]
                assert np.array_equal(composed, inst.pi_star[j][members])
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
    inst = find_seed(params, lambda i: np.unique(i.parent.edges).size == i.n)
    fam = all_pairwise_matchings(inst, 1)
    est = exact_matching_estimator(inst, 1, fam)
    assert not est.abstained
    assert est.success
    assert len(classify_good_bad(fam).bad) == 0
    # The family's anchor maps send every vertex to its true copy.
    for j in range(1, 3):
        to_j = fam.matchings[(0, j)].as_array(inst.n)
        assert np.array_equal(to_j[inst.pi_star[0]], inst.pi_star[j])


def test_estimator_abstains_on_bad_vertices():
    params = Params(n=40, a=3.0, b=1.0, s=0.3, K=3)
    inst = find_seed(
        params,
        lambda i: len(classify_good_bad(all_pairwise_matchings(i, 1)).bad) > 0,
    )
    est = exact_matching_estimator(inst, 1, all_pairwise_matchings(inst, 1))
    assert est.abstained
    assert not est.success


def test_estimator_k1_trivially_succeeds():
    inst = sample_instance(Params(n=10, a=2.0, b=1.0, s=0.5, K=1), 0)
    est = exact_matching_estimator(inst, 1, all_pairwise_matchings(inst, 1))
    assert not est.abstained
    assert est.success


def test_estimator_rejects_family_built_otherwise():
    # At k = 13 this instance abstains with every vertex bad; a k = 1 family
    # would report a perfect match instead.
    inst = sample_instance(Params(n=3000, a=9.0, b=1.0, s=0.4, K=3), 0)
    fam = all_pairwise_matchings(inst, 1)
    own = all_pairwise_matchings(inst, 13)
    assert exact_matching_estimator(inst, 13, own).abstained
    assert len(classify_good_bad(own).bad) == inst.n
    with pytest.raises(ValueError):
        exact_matching_estimator(inst, 13, family=fam)


@pytest.mark.parametrize("k", [0, 1.5])
def test_family_rejects_bad_core_order(k):
    inst = sample_instance(Params(n=100, a=9.0, b=1.0, s=0.5, K=3), 0)
    with pytest.raises(ValueError):
        all_pairwise_matchings(inst, k)
