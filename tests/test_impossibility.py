"""Singleton sets, majority statistic, and the estimator-failure witness."""

import numpy as np
import pytest
from conftest import kept_by, retention_codes
from graph_algebra import witness_pick

from csbm.generate import CorrelatedInstance, Params, sample_instance
from csbm.graphs import Graph
from csbm.impossibility import map_failure_witness


def crafted(children, a, b, sigma):
    """Instance with identity relabellings built from explicit children."""
    n = children[0].n
    seen = sorted({tuple(sorted(map(int, e))) for g in children for e in g.edges})
    parent = Graph(n, seen or None)
    inst = CorrelatedInstance(
        params=Params(n=n, a=a, b=b, s=0.5, K=len(children), k=1),
        seed=0,
        parent=parent,
        sigma_star=np.asarray(sigma, dtype=np.int8),
        pi_star=[np.arange(n, dtype=np.int64) for _ in children],
        edge_codes=retention_codes(parent, children),
    )
    assert list(inst.children) == list(children)
    return inst


def singleton_oracle(inst):
    """Re-derive both sets clause by clause with adjacency matrices."""
    n = inst.n
    A = np.zeros((n, n), dtype=bool)
    for u, v in inst.children[0].edges:
        A[u, v] = A[v, u] = True
    D = np.zeros((n, n), dtype=bool)
    for j in range(1, inst.K):
        for u, v in inst.parent.edges[kept_by(inst, j)]:
            D[u, v] = D[v, u] = True
    r_star = {i for i in range(n) if not np.any(A[i] & D[i])}
    in_r = np.zeros(n, dtype=bool)
    in_r[list(r_star)] = True
    h_nbhd = {int(j) for i in r_star for j in np.flatnonzero(D[i])}
    s_star = set()
    for i in r_star:
        nbrs = set(np.flatnonzero(A[i]).tolist())
        if nbrs & r_star:
            continue
        if nbrs & h_nbhd:
            continue
        s_star.add(i)
    return frozenset(r_star), frozenset(s_star)


def test_rejects_single_graph():
    inst = sample_instance(Params(n=30, a=4.0, b=1.0, s=0.5, K=1, k=1), 0)
    with pytest.raises(ValueError):
        map_failure_witness(inst)


def test_hand_case_isolated_pair():
    # One anchor edge, nothing in the other child: every vertex is a
    # singleton of the intersection, but the edge's endpoints fail the
    # within-set isolation clause.
    inst = crafted([Graph(4, [(0, 1)]), Graph(4)], 2.0, 1.0, [1, 1, 1, -1])
    rep = map_failure_witness(inst)
    assert rep.r_star.tolist() == [0, 1, 2, 3]
    assert rep.s_star.tolist() == [2, 3]
    assert rep.maj.tolist() == [0, 0]
    # Equal majorities: no strict crossing.
    assert rep.witness_found is False
    assert rep.witness_pair is None


def hand_six():
    g1 = Graph(6, [(0, 2), (0, 3), (0, 5)])
    h = Graph(6, [(0, 3), (1, 4)])
    return g1, h, [1, 1, 1, -1, -1, -1]


def test_hand_case_six_vertices():
    g1, h, sig = hand_six()
    inst = crafted([g1, h], 2.0, 1.0, sig)
    rep = map_failure_witness(inst)
    # Edge (0,3) is shared, so 0 and 3 are touched; the rest are
    # singletons.  The h-edge (1,4) joins two singletons, but their own
    # anchor neighbourhoods are empty so the exclusion clauses pass, and
    # vertices 2 and 5 are adjacent only to 0, which is neither a
    # singleton nor h-adjacent to one.
    assert rep.r_star.tolist() == [1, 2, 4, 5]
    assert rep.s_star.tolist() == [1, 2, 4, 5]
    assert rep.maj.tolist() == [0, 1, 0, 1]
    # Plus vertex 1 has majority 0 < majority 1 of minus vertex 5.
    assert rep.witness_found is True
    assert rep.witness_pair == (1, 5)


def test_hand_case_reversed_direction():
    g1, h, sig = hand_six()
    rep = map_failure_witness(crafted([g1, h], 1.0, 2.0, sig))
    assert rep.witness_found is True
    assert rep.witness_pair == (2, 4)


def test_equal_intensities_leave_verdict_open():
    g1, h, sig = hand_six()
    rep = map_failure_witness(crafted([g1, h], 2.0, 2.0, sig))
    assert rep.witness_found is None
    assert rep.witness_pair is None
    assert rep.maj.tolist() == [0, 1, 0, 1]


def test_empty_and_singleton_sets_give_no_witness():
    shared = [(0, 1)]
    rep = map_failure_witness(
        crafted([Graph(2, shared), Graph(2, shared)], 2.0, 1.0, [1, -1])
    )
    assert rep.s_star.tolist() == []
    assert rep.witness_found is False
    rep = map_failure_witness(
        crafted([Graph(3, shared), Graph(3, shared)], 2.0, 1.0, [1, 1, 1])
    )
    assert rep.s_star.tolist() == [2]
    assert rep.witness_found is False


def test_one_sided_set_gives_no_witness():
    # Both surviving singletons sit in the plus community.
    inst = crafted([Graph(3, [(0, 1)]), Graph(3, [(0, 1)])], 2.0, 1.0, [1, 1, 1])
    rep = map_failure_witness(inst)
    assert rep.witness_found is False


def test_empty_anchor_keeps_every_vertex():
    inst = crafted([Graph(5), Graph(5, [(0, 1), (2, 3)])], 2.0, 1.0, [1] * 5)
    rep = map_failure_witness(inst)
    assert rep.r_star.tolist() == list(range(5))
    assert rep.s_star.tolist() == list(range(5))


def test_full_retention_has_no_singletons():
    # With all edges shared, the intersection is the parent, which is
    # connected at these intensities.
    inst = sample_instance(Params(n=500, a=9.0, b=1.0, s=1.0, K=3, k=13), 0)
    rep = map_failure_witness(inst)
    assert rep.r_star.size == 0
    assert rep.s_star.size == 0


def test_sets_match_definition_oracle():
    for seed in range(25):
        inst = sample_instance(Params(n=60, a=3.0, b=1.0, s=0.3, K=3, k=1), seed)
        rep = map_failure_witness(inst)
        r_ref, s_ref = singleton_oracle(inst)
        assert rep.r_star.tolist() == sorted(r_ref), seed
        assert rep.s_star.tolist() == sorted(s_ref), seed


def test_sampled_structure_and_witness_pairs():
    pair_count = 0
    for seed in range(20):
        inst = sample_instance(Params(n=2000, a=9.0, b=1.0, s=0.15, K=3, k=13), seed)
        rep = map_failure_witness(inst)
        assert np.isin(rep.s_star, rep.r_star).all()
        members = np.zeros(2000, dtype=bool)
        members[rep.s_star] = True
        e = inst.children[0].edges
        if e.size:
            assert not np.any(members[e[:, 0]] & members[e[:, 1]])
        assert rep.maj.shape == rep.s_star.shape
        if rep.witness_pair is not None:
            i, j = rep.witness_pair
            pair_count += 1
            assert rep.witness_found is True
            assert i in rep.s_star and j in rep.s_star
            assert inst.sigma_star[i] > 0 > inst.sigma_star[j]
            maj = dict(zip(rep.s_star.tolist(), rep.maj.tolist()))
            assert maj[i] < maj[j]
    assert pair_count >= 1


def test_witness_report_is_deterministic():
    inst = sample_instance(Params(n=400, a=9.0, b=1.0, s=0.2, K=3, k=1), 5)
    first, second = map_failure_witness(inst), map_failure_witness(inst)
    for name in ("r_star", "s_star", "maj"):
        assert getattr(first, name).tolist() == getattr(second, name).tolist()
    assert (first.witness_found, first.witness_pair) == (
        second.witness_found, second.witness_pair
    )


def test_witness_rates_track_retention():
    low = high = 0
    for seed in range(10):
        inst = sample_instance(Params(n=5000, a=9.0, b=1.0, s=0.15, K=3, k=13), seed)
        low += int(bool(map_failure_witness(inst).witness_found))
        inst = sample_instance(Params(n=5000, a=9.0, b=1.0, s=0.6, K=3, k=13), seed)
        high += int(bool(map_failure_witness(inst).witness_found))
    # Far below the all-graphs threshold the crossing shows up regularly;
    # well above it the singleton sets are empty and it never does.
    assert low >= 1
    assert high == 0


def test_witness_majorities_equal_the_full_child1_majorities():
    # The witness sums child-1 labels only over edges with an end in S*;
    # a pass over every child-1 edge must give the same majorities there.
    nonempty = 0
    for K in (2, 3):
        for seed in range(6):
            inst = sample_instance(Params(n=2000, a=9.0, b=1.0, s=0.15, K=K, k=1), seed)
            report = map_failure_witness(inst)
            e = inst.anchor.edges
            full = np.zeros(inst.n, dtype=np.int64)
            np.add.at(full, e[:, 0], inst.sigma_star[e[:, 1]])
            np.add.at(full, e[:, 1], inst.sigma_star[e[:, 0]])
            assert report.maj.tolist() == full[report.s_star].tolist()
            nonempty += bool(report.s_star.size)
    assert nonempty >= 10


def leaves_with_majorities(signs, majorities, a, b):
    """Crafted instance whose ``S*`` is one leaf per entry, with that sign and majority.

    Three plus hubs and three minus hubs, paired by edges both children
    keep, sit outside ``R*`` and are the only child-2 ends, so every leaf
    is in ``S*``; a leaf of majority m has child-1 edges to |m| hubs of
    m's sign.
    """
    hubs, n = 6, 6 + len(signs)
    shared = [(t, t + 3) for t in range(3)]
    edges = list(shared)
    for leaf, m in enumerate(majorities, start=hubs):
        edges += [(hub + (0 if m > 0 else 3), leaf) for hub in range(abs(m))]
    sigma = [1, 1, 1, -1, -1, -1, *signs]
    return crafted([Graph(n, edges), Graph(n, shared)], a, b, sigma)


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (1.0, 2.0)])
def test_witness_pick_matches_the_list_and_min_rule_on_ties(a, b):
    rng = np.random.default_rng(0)
    found = 0
    for _ in range(200):
        size = int(rng.integers(1, 9))
        signs = rng.choice([-1, 1], size=size).tolist()
        majorities = rng.integers(-2, 3, size=size).tolist()
        inst = leaves_with_majorities(signs, majorities, a, b)
        rep = map_failure_witness(inst)
        assert rep.s_star.tolist() == list(range(6, 6 + size))
        assert rep.maj.tolist() == majorities
        assert (rep.witness_found, rep.witness_pair) == witness_pick(inst, rep)
        found += bool(rep.witness_found)
    assert found >= 20


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("s", [0.15, 0.25])
def test_witness_pick_matches_the_list_and_min_rule_on_samples(K, s):
    for a, b in [(9.0, 1.0), (1.0, 9.0)]:
        for seed in range(6):
            inst = sample_instance(Params(n=2000, a=a, b=b, s=s, K=K, k=1), seed)
            rep = map_failure_witness(inst)
            assert (rep.witness_found, rep.witness_pair) == witness_pick(inst, rep)
