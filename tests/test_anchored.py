"""The anchored kernels against the graph-algebra path they replace.

Seeded families agree with the ground truth, so the pairwise matcher, the
good step, the bad step and the singleton sets all run on the parent's
edges and the per-edge retention codes.  Each is compared here, label for
label and mask for mask, with the path that maps the child graphs through
the matchings: per-pair ``kcore_matching_seeded``, the recovery steps with
the agreement check forced off, and the singleton sets as they were
computed from the pulled-back union of children 2..K.
"""

import functools

import numpy as np
import pytest

from csbm import recovery
from csbm.generate import Params, sample_instance
from csbm.graphs import _member, _pullback_union
from csbm.impossibility import singleton_sets
from csbm.matching import (
    _agrees_with_truth,
    all_pairwise_matchings,
    classify_good_bad,
    kcore_matching_seeded,
)
from csbm.recovery import LabelEstimate, label_bad_vertices, label_good_vertices

GRID = [
    (n, s, K)
    for n in (300, 2000)
    for s in (0.15, 0.4, 0.6)
    for K in (2, 3, 4, 5)
]
# (seed, core order) per grid cell; the third seed also peels deeper cores.
SEEDS = [(0, 1), (1, 1), (2, 3)]


@functools.lru_cache(maxsize=None)
def instances(n, s, K):
    out = []
    for seed, k in SEEDS:
        inst = sample_instance(Params(n=n, a=9.0, b=1.0, s=s, K=K, k=k), seed)
        fam = all_pairwise_matchings(inst, k)
        labels = np.random.default_rng(seed).choice(np.array([-1, 1], dtype=np.int8), n)
        init = LabelEstimate(labels=labels, provenance=np.zeros(n, dtype=np.uint8))
        out.append((inst, fam, init))
    return out


def graph_algebra(monkeypatch):
    """Send the recovery steps down the child-graph path."""
    monkeypatch.setattr(recovery, "_agrees_with_truth", lambda fam, inst: False)


def assert_same_estimate(a, b):
    assert a.labels.tolist() == b.labels.tolist()
    assert a.provenance.tolist() == b.provenance.tolist()
    assert a.good_disagreements == b.good_disagreements


@pytest.mark.parametrize("n, s, K", GRID)
def test_family_matches_per_pair_seeded_matcher(n, s, K):
    for inst, fam, _ in instances(n, s, K):
        assert _agrees_with_truth(fam, inst)
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
def test_good_step_matches_graph_algebra(n, s, K, monkeypatch):
    anchored = [label_good_vertices(inst, fam, init) for inst, fam, init in instances(n, s, K)]
    graph_algebra(monkeypatch)
    for out, (inst, fam, init) in zip(anchored, instances(n, s, K)):
        assert_same_estimate(out, label_good_vertices(inst, fam, init))


@pytest.mark.parametrize("n, s, K", GRID)
def test_bad_step_matches_graph_algebra(n, s, K, monkeypatch):
    cases = instances(n, s, K)
    anchored = [label_bad_vertices(inst, fam, init) for inst, fam, init in cases]
    graph_algebra(monkeypatch)
    for out, (inst, fam, init) in zip(anchored, cases):
        assert_same_estimate(out, label_bad_vertices(inst, fam, init))
    if s == 0.15:
        assert any(classify_good_bad(fam).bad for _, fam, _ in cases)


def reference_singleton_sets(inst):
    """R* and S* from the pulled-back union of children 2..K, as computed before."""
    n = inst.n
    g1 = inst.children[0]
    h = _pullback_union(inst.children[1:], inst.pi_star[1:])
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
    return (
        frozenset(int(i) for i in np.flatnonzero(r_mask)),
        frozenset(int(i) for i in np.flatnonzero(s_mask)),
    )


@pytest.mark.parametrize("n, s, K", GRID)
def test_singleton_sets_match_pulled_back_union(n, s, K):
    for inst, _, _ in instances(n, s, K):
        report = singleton_sets(inst)
        assert (report.r_star, report.s_star) == reference_singleton_sets(inst)
