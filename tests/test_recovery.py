"""Initial labelling, good/bad refinement steps, and overlap scoring."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from conftest import retention_codes
from graph_algebra import bipartition
from reference import parent_and_labels
from scipy.sparse import csr_matrix

from csbm import generate, recovery
from csbm.generate import CorrelatedInstance, Params, sample_instance
from csbm.graphs import Graph, _neighbour_sums
from csbm.harness import run_trial
from csbm.matching import (
    all_pairwise_matchings,
    classify_good_bad,
    exact_matching_estimator,
)
from csbm.recovery import (
    LabelEstimate,
    almost_exact_label,
    label_bad_vertices,
    label_good_vertices,
    overlap,
)
from csbm.seeds import ROLE_EDGE_HOLDOUT, stream
from csbm.thresholds import chernoff_hellinger, connectivity_param


def two_cliques(half: int) -> tuple[Graph, np.ndarray]:
    n = 2 * half
    edges = [(u, v) for u in range(half) for v in range(u + 1, half)]
    edges += [(u, v) for u in range(half, n) for v in range(u + 1, n)]
    return Graph(n, edges), np.array([1] * half + [-1] * half, dtype=np.int8)


def estimate(labels):
    return LabelEstimate(labels=np.asarray(labels, dtype=np.int8))


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


@pytest.mark.parametrize(
    "truth, labels, name",
    [
        ([1, 1], [3, 3], "estimate"),
        ([1, -1], [True, False], "estimate"),
        ([1, -1], [1, 0], "estimate"),
        ([2, -1], [1, -1], "sigma_star"),
        ([True, True], [1, 1], "sigma_star"),
    ],
)
def test_overlap_rejects_entries_other_than_signs(truth, labels, name):
    # Any other entry could push the score outside [0, 1]: [1, 1] against
    # [3, 3] would score 3.0.
    with pytest.raises(ValueError, match=f"^{name} "):
        overlap(np.array(truth), labels)


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
        almost_exact_label(g, -1.0, 0.5, seed=0)
    with pytest.raises(ValueError):
        almost_exact_label(g, 1.0, 0.5, eps=0.0, seed=0)
    # The seed is required: the labelling is drawn from the trial's seed.
    with pytest.raises(TypeError):
        almost_exact_label(g, 4.0, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda x: chernoff_hellinger(x, 1.0), id="chernoff_hellinger-a"),
        pytest.param(lambda x: chernoff_hellinger(1.0, x), id="chernoff_hellinger-b"),
        pytest.param(lambda x: connectivity_param(x, 1.0), id="connectivity_param-a"),
        pytest.param(lambda x: connectivity_param(1.0, x), id="connectivity_param-b"),
        pytest.param(
            lambda x: almost_exact_label(two_cliques(3)[0], x, 1.0, seed=0), id="init-a_eff"
        ),
        pytest.param(
            lambda x: almost_exact_label(two_cliques(3)[0], 1.0, x, seed=0), id="init-b_eff"
        ),
        pytest.param(
            lambda x: almost_exact_label(two_cliques(3)[0], 9.0, 1.0, eps=x, seed=0),
            id="init-eps",
        ),
    ],
)
def test_non_finite_coefficients_are_rejected(call, value):
    # NaN fails every comparison, so a check written as "x < 0" lets it in.
    with pytest.raises(ValueError, match="finite"):
        call(value)


@pytest.mark.parametrize("value", [True, "2"])
@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("a", lambda x: chernoff_hellinger(x, 0.0), id="chernoff_hellinger-a"),
        pytest.param("b", lambda x: chernoff_hellinger(1.0, x), id="chernoff_hellinger-b"),
        pytest.param("a", lambda x: connectivity_param(x, 1.0), id="connectivity_param-a"),
        pytest.param("b", lambda x: connectivity_param(1.0, x), id="connectivity_param-b"),
        pytest.param(
            "a_eff", lambda x: almost_exact_label(two_cliques(3)[0], x, 0.5, seed=0),
            id="init-a_eff",
        ),
        pytest.param(
            "b_eff", lambda x: almost_exact_label(two_cliques(3)[0], 1.0, x, seed=0),
            id="init-b_eff",
        ),
        pytest.param(
            "eps", lambda x: almost_exact_label(two_cliques(3)[0], 1.0, 0.5, x, seed=0),
            id="init-eps",
        ),
    ],
)
def test_bool_or_string_coefficients_are_rejected_by_name(name, call, value):
    # A bool used to count as 0 or 1: chernoff_hellinger(True, 0.0) gave 0.5,
    # and eps=True only warned.  A string raised TypeError.
    with pytest.raises(ValueError, match=f"^{name} "):
        call(value)


def test_init_warns_on_loose_eps():
    g, _ = two_cliques(4)
    with pytest.warns(UserWarning):
        almost_exact_label(g, 7.2, 0.8, eps=0.3, seed=0)


def test_init_accuracy_at_reference_point():
    # Effective intensities 7.2 / 0.8 sit above the one-graph threshold;
    # the labelling should be nearly exact.
    overlaps = []
    for seed in range(20):
        g, sigma = parent_and_labels(Params(n=4000, a=7.2, b=0.8, s=1.0), seed)
        est = almost_exact_label(g, 7.2, 0.8, seed=seed)
        overlaps.append(overlap(sigma, est))
    assert float(np.mean(overlaps)) >= 0.95


@pytest.mark.parametrize("n, s", [(300, 0.4), (3000, 0.15), (3000, 0.6)])
def test_refinement_votes_equal_the_adjacency_matvec(n, s):
    # The held-out half of an anchor, as the init splits it, with random ±1
    # weights and with all ones (the degrees).
    inst = sample_instance(Params(n=n, a=9.0, b=1.0, s=s, K=2), 4)
    g = inst.children[0]
    hold = stream(inst.seed, ROLE_EDGE_HOLDOUT).random(g.edge_count) < 0.5
    refine = g.edges.take(np.flatnonzero(~hold), axis=0)
    signs = np.random.default_rng(n).choice(np.array([-1.0, 1.0]), n)
    rows = np.concatenate([refine[:, 1], refine[:, 0]])
    cols = np.concatenate([refine[:, 0], refine[:, 1]])
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    for values in (signs, np.ones(n)):
        got = _neighbour_sums(n, refine[:, 0], refine[:, 1], values)
        want = adj @ values
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    degrees = _neighbour_sums(n, refine[:, 0], refine[:, 1])
    assert degrees.dtype == np.int64
    assert degrees.tolist() == np.diff(adj.indptr).tolist()
    assert _neighbour_sums(n, refine[:0, 0], refine[:0, 1], signs).tolist() == [0.0] * n


def test_init_builds_no_adjacency():
    # The matvec and the refinement read endpoint columns decoded from the
    # keys: no (m, 2) edge array is built.
    assert not hasattr(recovery, "_adjacency_csr")
    g, sigma = parent_and_labels(Params(n=2000, a=7.2, b=0.8, s=1.0), 3)
    est = almost_exact_label(g, 7.2, 0.8, seed=3)
    assert not est.degraded and overlap(sigma, est) > 0.9
    assert "edges" not in g.__dict__


def two_sides(half: int) -> tuple[Graph, np.ndarray]:
    n = 2 * half
    edges = [(u, v) for u in range(half) for v in range(half, n)]
    return Graph(n, edges), np.array([1] * half + [-1] * half, dtype=np.int8)


def test_init_separates_a_complete_bipartite_graph():
    # Disassortative: the community vector is the smallest eigenvector of
    # the centred adjacency, and the refinement takes minorities.
    g, truth = two_sides(10)
    est = almost_exact_label(g, 0.0, 5.0, seed=1)
    assert not est.degraded
    assert overlap(truth, est) == 1.0


def test_init_takes_the_extreme_eigenvalue_on_the_community_side():
    inst = sample_instance(Params(n=600, a=1.0, b=9.0, s=1.0, K=1), 2)
    g = inst.children[0]
    hold = stream(inst.seed, ROLE_EDGE_HOLDOUT).random(g.edge_count) < 0.5
    lo, hi = recovery._edge_columns(g, hold)
    low = recovery._lanczos_top_vector(600, lo, hi, inst.seed, False)
    high = recovery._lanczos_top_vector(600, lo, hi, inst.seed, True)
    assert overlap(inst.sigma_star, np.where(low >= 0, 1, -1)) > 0.9
    assert overlap(inst.sigma_star, np.where(high >= 0, 1, -1)) < 0.5


def test_init_degrades_when_the_budget_is_spent(monkeypatch):
    g, _ = parent_and_labels(Params(n=2000, a=7.2, b=0.8, s=1.0), 3)
    assert not almost_exact_label(g, 7.2, 0.8, seed=3).degraded
    monkeypatch.setattr(recovery, "_LANCZOS_BUDGET", 2)
    est = almost_exact_label(g, 7.2, 0.8, seed=3)
    assert est.degraded
    assert np.all(est.labels == 1)


def test_init_degrades_without_spectral_edges():
    # One edge: whichever half it lands in, the other half is empty.
    empty = np.zeros(0, dtype=np.int64)
    assert recovery._lanczos_top_vector(5, empty, empty, 0, True) is None
    g = Graph(5, [(0, 1)])
    for seed in range(8):
        in_spectral = bool(stream(seed, ROLE_EDGE_HOLDOUT).random(1)[0] < 0.5)
        est = almost_exact_label(g, 4.0, 1.0, seed=seed)
        assert est.degraded == (not in_spectral)


def _dense_centred(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    adj = np.zeros((n, n))
    adj[lo, hi] = adj[hi, lo] = 1.0
    density = 2.0 * lo.size / (n * (n - 1))
    return adj - density * (np.ones((n, n)) - np.eye(n))


def test_lanczos_vector_matches_a_dense_eigensolver():
    # Oracle: np.linalg.eigh of the dense centred matrix of the spectral
    # half.  Where the extreme eigenvalue is clearly separated (relative gap
    # at least 0.1), the Ritz vector must point the same way.
    checked = total = 0
    for a, b in [(9.0, 1.0), (1.0, 9.0)]:
        for s in (1.0, 0.4, 0.15):
            for n in (100, 300):
                for seed in range(6):
                    inst = sample_instance(Params(n=n, a=a, b=b, s=s, K=1), seed)
                    g = inst.children[0]
                    hold = stream(inst.seed, ROLE_EDGE_HOLDOUT).random(g.edge_count) < 0.5
                    lo, hi = recovery._edge_columns(g, hold)
                    values, vectors = np.linalg.eigh(_dense_centred(n, lo, hi))
                    first, second = (-1, -2) if a >= b else (0, 1)
                    total += 1
                    gap = abs(values[first] - values[second]) / abs(values[first])
                    if gap < 0.1:
                        continue
                    checked += 1
                    x = recovery._lanczos_top_vector(n, lo, hi, inst.seed, a >= b)
                    cos = abs(x @ vectors[:, first]) / np.linalg.norm(x)
                    assert cos >= 1 - 1e-6, (a, b, s, n, seed)
    assert checked >= total // 2


@pytest.mark.parametrize("a, b, s", [(9.0, 1.0, 0.15), (4.0, 1.0, 0.15), (6.0, 2.0, 0.35)])
def test_default_eps_does_not_warn_at_the_reference_points(a, b, s):
    params = Params(n=300, a=a, b=b, s=s, K=1)
    inst = sample_instance(params, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        almost_exact_label(inst.children[0], s * a, s * b, params.eps, seed=inst.seed)
        almost_exact_label(inst.children[0], s * a, s * b, seed=inst.seed)


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
        edge_codes=np.ones(g.edge_count, dtype=np.uint8),
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
    params = Params(n=7, a=a, b=b, s=0.5, K=3, k=1)
    inst = CorrelatedInstance(
        params=params,
        seed=0,
        parent=parent,
        sigma_star=np.ones(7, dtype=np.int8),
        pi_star=[np.arange(7, dtype=np.int64) for _ in range(3)],
        edge_codes=retention_codes(parent, children),
    )
    assert list(inst.children) == children
    return inst


def test_crafted_k3_classification():
    inst = crafted_k3_instance()
    fam = all_pairwise_matchings(inst, 1)
    classes = classify_good_bad(fam)
    assert classes.good.tolist() == [1, 2, 3]
    assert classes.bad.tolist() == [0, 4, 5, 6]
    assert bipartition(classes, 3, 0) == (frozenset({0, 1}), frozenset({2}))


# -- good step ----------------------------------------------------------------


def test_good_step_k1_simultaneous_majority():
    inst = crafted_k1_instance(2.0, 1.0, [(0, 1)])
    fam = all_pairwise_matchings(inst, 1)
    init = estimate([1, -1, 1, -1])
    out = label_good_vertices(inst, fam, init)
    # 0 and 1 vote on each other's *initial* labels and swap; the isolated
    # vertices tie and keep their initial labels.
    assert out.labels.tolist() == [-1, 1, 1, -1]
    assert classify_good_bad(fam).good.tolist() == [0, 1, 2, 3]


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
    # The good vertices are the matched triangle; the bad ones are untouched.
    classes = classify_good_bad(fam)
    assert classes.good.tolist() == [1, 2, 3]
    assert out.labels[classes.bad].tolist() == init.labels[classes.bad].tolist()


@pytest.mark.parametrize("K", [2, 3, 4])
def test_votes_in_small_chunks_equal_one_shot_votes(monkeypatch, K):
    inst = sample_instance(Params(n=400, a=9.0, b=1.0, s=0.4, K=K, k=1), 3)
    fam = all_pairwise_matchings(inst, 1)
    rng = np.random.default_rng(K)
    values = rng.choice(np.array([-1.0, 1.0]), inst.n)
    case = rng.integers(0, 8, inst.n).astype(np.uint8)
    labels = values.astype(np.int8)
    init = LabelEstimate(labels=labels)

    def votes():
        if K == 3:
            return np.stack(recovery._case_votes(inst, case, values))
        return recovery._superset_votes(inst, fam, values)

    one_shot, one_shot_est = votes(), label_good_vertices(inst, fam, init)
    assert inst.parent.edge_count > 50 * 7 and inst.parent.edge_count % 7
    monkeypatch.setattr(recovery, "_VOTE_CHUNK", 7)
    chunked, chunked_est = votes(), label_good_vertices(inst, fam, init)
    assert chunked.dtype == one_shot.dtype and chunked.tobytes() == one_shot.tobytes()
    assert chunked_est.labels.tolist() == one_shot_est.labels.tolist()
    assert chunked_est.good_disagreements == one_shot_est.good_disagreements


# -- bad step -----------------------------------------------------------------


def test_bad_step_difference_graph_cases():
    inst = crafted_k3_instance()
    fam = all_pairwise_matchings(inst, 1)
    current = estimate([1, 1, 1, -1, 1, -1, -1])
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
    classes = classify_good_bad(fam)
    assert classes.bad.tolist() == [0, 4, 5, 6]
    assert classes.good.tolist() == [1, 2, 3]


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
    inst = CorrelatedInstance(
        params=Params(n=6, a=2.0, b=1.0, s=0.5, K=3, k=1),
        seed=0,
        parent=parent,
        sigma_star=np.ones(6, dtype=np.int8),
        pi_star=[np.arange(6, dtype=np.int64) for _ in range(3)],
        edge_codes=retention_codes(parent, children),
    )
    assert list(inst.children) == children
    fam = all_pairwise_matchings(inst, 1)
    classes = classify_good_bad(fam)
    assert classes.good.tolist() == [1, 2, 3, 4]
    assert classes.bad.tolist() == [0, 5]
    assert bipartition(classes, 3, 5) == (frozenset({0}), frozenset({1, 2}))

    current = estimate([-1, 1, 1, 1, -1, -1])
    out = label_bad_vertices(inst, fam, current)
    assert out.labels[5] == 1
    # Vertex 0's only neighbour is outside the matched core: tie, keep.
    assert out.labels[0] == -1
    assert out.labels.tolist() == [-1, 1, 1, 1, -1, 1]


def reference_bad_step(inst, fam, current, classes):
    """The per-vertex bad step the vectorised one replaced, verbatim but for its neighbour lookup."""
    est = current.copy()
    if not classes.bad.size:
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
                if x >= 0 and y >= 0 and int(y) in inst.children[j].neighbors(int(x)):
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
        assert out.labels[classes.good].tolist() == labels[classes.good].tolist()
        bad_total += len(classes.bad)
    assert bad_total > 0


# -- full pipeline ------------------------------------------------------------


def recover_by_stages(inst: CorrelatedInstance, fam) -> LabelEstimate:
    """Init, classify, good and bad in run_trial's order, through ``recovery.almost_exact_label``."""
    params = inst.params
    init = recovery.almost_exact_label(
        inst.anchor, params.s * params.a, params.s * params.b, params.eps, seed=inst.seed
    )
    classes = classify_good_bad(fam)
    good = label_good_vertices(inst, fam, init, classes=classes)
    return label_bad_vertices(inst, fam, good, classes=classes)


def test_full_recovery_success_at_full_retention():
    params = Params(n=300, a=18.0, b=2.0, s=1.0, K=3, k=13)
    succ = 0
    for seed in range(10):
        succ += int(run_trial(params, seed, ("recover",)).overlap == 1.0)
    assert succ >= 9


def test_full_recovery_disassortative_mirror():
    # The same pipeline with a < b flips to minority votes end to end.
    for a, b in [(18.0, 2.0), (2.0, 18.0)]:
        succ = 0
        for seed in range(5):
            params = Params(n=500, a=a, b=b, s=1.0, K=3, k=13)
            succ += int(run_trial(params, seed, ("recover",)).overlap == 1.0)
        assert succ >= 4, (a, b)


def test_full_recovery_provenance_totality():
    # Every vertex is relabelled by exactly one step: the good step writes
    # the good vertices (at K = 3 its three case sets, which together are
    # exactly the good vertices) and the bad step the bad ones.
    inst = sample_instance(Params(n=400, a=9.0, b=1.0, s=0.4, K=3, k=1), 3)
    fam = all_pairwise_matchings(inst, 1)
    classes = classify_good_bad(fam)
    est = recover_by_stages(inst, fam)
    assert set(np.unique(est.labels)) <= {-1, 1}
    assert np.union1d(classes.good, classes.bad).tolist() == list(range(inst.n))
    assert np.intersect1d(classes.good, classes.bad).size == 0
    m01, m02, m12 = fam.member_mask(0, 1), fam.member_mask(0, 2), fam.member_mask(1, 2)
    cases = (m02 & m12) | (m01 & m12) | (m01 & m02)
    assert np.flatnonzero(cases).tolist() == classes.good.tolist()


@pytest.mark.parametrize("K", [2, 3, 4])
def test_trial_stages_read_the_family_masks_only(K):
    # No stage after matching reads a map: the family's matchings dict is
    # never built.
    inst = sample_instance(Params(n=400, a=9.0, b=1.0, s=0.25, K=K, k=1), 3)
    fam = all_pairwise_matchings(inst, 1)
    init = almost_exact_label(inst.children[0], 0.25 * 9.0, 0.25 * 1.0, seed=inst.seed)
    classes = classify_good_bad(fam)
    assert classes.bad.size
    good = label_good_vertices(inst, fam, init, classes=classes)
    label_bad_vertices(inst, fam, good, classes=classes)
    exact_matching_estimator(inst, 1, family=fam)
    assert "matchings" not in fam.__dict__


def test_full_recovery_k1_reduction():
    # At K = 1 the family is empty, every vertex is good and the bad step
    # writes nothing: the trial is the init plus one refinement on the child.
    params = Params(n=300, a=9.0, b=1.0, s=0.8, K=1, k=1)
    inst = sample_instance(params, 7)
    fam = all_pairwise_matchings(inst, 1)
    assert classify_good_bad(fam).bad.size == 0
    init = almost_exact_label(
        inst.children[0], 0.8 * 9.0, 0.8 * 1.0, params.eps, seed=inst.seed
    )
    manual = label_good_vertices(inst, fam, init)
    est = recover_by_stages(inst, fam)
    assert np.array_equal(est.labels, manual.labels)
    assert run_trial(params, 7, ("recover",)).overlap == overlap(inst.sigma_star, est)
    assert overlap(inst.sigma_star, est) > 0.9


def test_full_recovery_degraded_instance():
    inst = sample_instance(Params(n=30, a=0.0, b=0.0, s=0.5, K=3, k=1), 0)
    fam = all_pairwise_matchings(inst, 1)
    est = recover_by_stages(inst, fam)
    assert est.degraded
    assert np.all(est.labels == 1)
    assert classify_good_bad(fam).bad.tolist() == list(range(inst.n))


def _pinned_pipeline_digest() -> str:
    """sha256 over the pipeline outputs of K = 1..5, both regimes and four seeds per cell.

    It covers the bad set, the bipartitions, the final labels with the
    step that wrote each and the diagnostics, and the estimator verdict
    with its permutations.  The estimate keeps no per-vertex record of the
    writing step, so the record's one (1 for the good step, 2 for the bad
    step) is rebuilt from the good/bad split, which it always equalled.
    The estimator now returns only the verdict, so the record's other
    estimator fields are rebuilt as the estimator once filled them: the
    true permutations and ``correct`` True when it does not abstain, and
    the bad-vertex count.
    """
    h = hashlib.sha256()
    for K in range(1, 6):
        for s in (0.25, 0.4, 0.6):
            for seed in range(4):
                params = Params(n=600, a=9.0, b=1.0, s=s, K=K, k=1)
                inst = generate.sample_instance(params, seed)
                fam = all_pairwise_matchings(inst, 1)
                classes = classify_good_bad(fam)
                final = recover_by_stages(inst, fam)
                est = exact_matching_estimator(inst, 1, family=fam)
                perms = None if est.abstained else inst.pi_star[1:]
                bad = classes.bad.tolist()
                splits = [bipartition(classes, K, v) for v in bad]
                written_by = np.zeros(inst.n, dtype=np.uint8)
                written_by[classes.good] = 1
                written_by[classes.bad] = 2
                record = (
                    bad,
                    [(v, sorted(comp), sorted(rest)) for v, (comp, rest) in zip(bad, splits)],
                    final.labels.tolist(),
                    written_by.tolist(),
                    final.degraded,
                    final.good_disagreements,
                    est.abstained,
                    None if est.abstained else True,
                    len(classes.bad),
                    None if perms is None else [p.tolist() for p in perms],
                )
                h.update(repr(record).encode())
    return h.hexdigest()


def test_pipeline_outputs_are_pinned(power_init, retained_sampler):
    """Classification, recovery and estimator outputs may not drift.

    Recorded before the per-family pattern table replaced the per-stage
    metagraph loops, with the power-iteration init and the retention-draw
    sampler, which run here in place of the Lanczos init and the
    union-first sampler so that the digest still covers every other stage.
    """
    assert _pinned_pipeline_digest() == (
        "2cbd0dc83de5db930adea2880cc6e5e12ba218ac9750049f05b5a0fe97078942"
    )


def test_pipeline_outputs_are_pinned_with_lanczos_init(retained_sampler):
    """The same outputs with the package's own init, recorded when Lanczos replaced power iteration."""
    assert _pinned_pipeline_digest() == (
        "d75b279f2c2d77eca24af9df848811fb226016fe33a5e7ee35d3839aeb3752e5"
    )


def test_pipeline_outputs_are_pinned_with_union_first_sampling():
    """The same outputs with the package's own init and sampler, recorded union-first."""
    assert _pinned_pipeline_digest() == (
        "97b812e8cb1dab1bffbe24dc5018f6c23a2c00542c8ece75b9ff32e181a3913c"
    )
