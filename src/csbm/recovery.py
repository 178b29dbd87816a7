"""The community-recovery pipeline.

Recovery runs in three stages.  First the anchor child alone is labelled
almost exactly: a spectral initialisation (Lanczos for the extreme
eigenpair of the centred adjacency of half the edges, on the side the
community structure sets, then sign rounding) followed by one majority
refinement round on the held-out half.  Lanczos stops once the Ritz pair's
residual is within ``_LANCZOS_TOL`` of its value, or gives up after
``_LANCZOS_BUDGET`` matvecs and flags the labelling degraded: a numerical
failure, reported apart from the statistical kind.  Both halves are read
as endpoint columns decoded from the anchor's keys; no adjacency matrix is
built.  Second, every *good* vertex (one whose pairwise-matching metagraph
is connected) is relabelled by the majority of its neighbourhood in the
union of all K children, restricted to the set its metagraph's matchings
all match.  Third, every *bad* vertex is relabelled on a difference
graph: the anchor child minus the children its metagraph still links it
to, restricted to the fully-matched vertex set, voting with the labels the
good step produced.

A family stores only its matched sets, and each of its maps is the
ground-truth permutation on its set, so each child pulled back to anchor
labels is the set of union edges whose retention code has that child's
bit.  The union and difference graphs are therefore union edges selected
by retention codes and matched-set masks: both relabelling steps read the
family's anchored masks only, never its maps.

Each step makes one pass over the instance's union edges (the edges some
child keeps), read as the endpoint columns ``inst.parent.edges.T`` beside
their retention codes ``inst.edge_codes``.  In the good step a vertex v
of metagraph pattern P votes inside the set every pair of P matches,
which holds a vertex w exactly when w's pattern contains P; so for K
other than 3 every union arc v -> w is kept or dropped by comparing the
two pattern codes, and one bincount gives every vertex's vote.  At K = 3 each vertex carries one bit
per case, and one bincount per value of the two ends' shared case bits
gives all three cases.  The pass goes over slices of the union edges, so
its temporaries stay small however large the union.  Votes are sums of ±1,
exact in float64, so the order of summation does not change them.

Majorities are taken when the intra-community coefficient dominates
(``a >= b``) and minorities otherwise; every tie keeps the incoming label.
Votes never include the vertex's own label.  No per-vertex record of the
step that wrote a label is kept: after the bad step it is the family's
good/bad split, the good step having written the good vertices and the bad
step the bad ones.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .generate import CorrelatedInstance, Params
from .graphs import Graph, _neighbour_sums, _require_real
from .matching import MatchingFamily, VertexClass, classify_good_bad
from .seeds import ROLE_EDGE_HOLDOUT, ROLE_INIT_VECTOR, stream
from .thresholds import chernoff_hellinger

__all__ = [
    "LabelEstimate",
    "almost_exact_label",
    "label_good_vertices",
    "label_bad_vertices",
    "overlap",
]

# Lanczos steps (one matvec each) before the init gives up, and the
# relative residual at which its Ritz pair counts as converged.
_LANCZOS_BUDGET = 100
_LANCZOS_TOL = 1e-4
# Union arcs per vote bincount, so the good step's temporaries stay a few
# tens of MB however large the union.
_VOTE_CHUNK = 1 << 22


@dataclass
class LabelEstimate:
    """A ±1 labelling and the diagnostics of the stages that wrote it.

    ``degraded`` marks runs where the spectral initialisation failed and
    fell back to all +1.  ``good_disagreements`` is a diagnostic filled by
    the good step at K = 3: the number of triple-matched vertices whose
    three case votes disagree.  :meth:`copy` copies the labels.
    """

    labels: np.ndarray
    degraded: bool = False
    good_disagreements: int = 0

    def copy(self) -> "LabelEstimate":
        return replace(self, labels=self.labels.copy())


def almost_exact_label(
    g1: Graph,
    a_eff: float,
    b_eff: float,
    eps: float = Params.eps,
    *,
    seed: int,
) -> LabelEstimate:
    """Label one graph almost exactly by spectral init plus one refinement.

    ``a_eff`` and ``b_eff`` are the effective intra/inter coefficients of
    the graph being labelled (for a child of the correlated model, ``s * a``
    and ``s * b``); they choose between majority and minority refinement and
    feed the accuracy-target sanity check on ``eps``.  Both are finite and
    non-negative, and ``eps`` is finite and positive.  Half the edges (an
    independent Bernoulli split derived from ``seed``) go to the spectral
    stage, the other half to the refinement vote.  ``seed`` also draws the
    Lanczos start vector, so the labelling is a function of its inputs.

    The spectral stage runs Lanczos on the centred adjacency ``M`` of the
    spectral half (``M x = A x - d (sum(x) - x)``, ``d`` its edge density)
    from a Gaussian start vector: the plain three-term recurrence, no
    reorthogonalisation, with the Ritz pair taken from the tridiagonal
    matrix by ``np.linalg.eigh``.  The pair is the largest eigenvalue of
    ``M`` when ``a_eff >= b_eff`` and the smallest otherwise, the side the
    refinement's majority or minority rule reads.  It has converged once
    ``beta_m * |s_m| <= _LANCZOS_TOL * |theta|`` (``_LANCZOS_TOL`` = 1e-4;
    ``beta_m * |s_m|`` is the residual norm of the Ritz pair).  The matvec
    reads the spectral half's endpoint columns directly; no adjacency
    matrix is built.  The basis keeps one float64 row of length n per step,
    at most ``8 * n * (_LANCZOS_BUDGET + 1)`` bytes for the budget of 100
    steps, though only the rows used are touched.

    The result is flagged ``degraded``, with every label +1, when the graph
    or its spectral half has no edges or when the budget is spent before
    the Ritz pair converges: a numerical failure, told apart from a
    labelling that converged and is simply wrong.
    """
    a_eff, b_eff = _require_real("a_eff", a_eff, 0), _require_real("b_eff", b_eff, 0)
    eps = _require_real("eps", eps, positive=True)
    if a_eff > 0 and b_eff > 0 and a_eff != b_eff:
        bound = chernoff_hellinger(a_eff, b_eff) / (
            4.0 * abs(math.log(a_eff / b_eff))
        )
        if eps > bound:
            warnings.warn(
                f"eps={eps} exceeds the accuracy-target bound {bound:.6g} "
                "for these parameters; the almost-exact guarantee may not apply",
                stacklevel=2,
            )
    n = g1.n
    hold = stream(seed, ROLE_EDGE_HOLDOUT).random(g1.edge_count) < 0.5
    assortative = a_eff >= b_eff
    x = _lanczos_top_vector(n, *_edge_columns(g1, hold), seed, assortative)
    if x is None:
        return LabelEstimate(np.ones(n, dtype=np.int8), degraded=True)
    init = np.where(x >= 0, 1.0, -1.0)
    lo, hi = _edge_columns(g1, ~hold)
    labels = _majority_labels(_neighbour_sums(n, lo, hi, init), init, assortative)
    return LabelEstimate(labels)


def _edge_columns(g: Graph, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous ``lo`` and ``hi`` endpoint columns of the edges ``keep`` selects.

    Decoded from the selected keys, so the graph's (m, 2) edge array is
    never built, and contiguous, so no bincount that reads them copies them.
    """
    return np.divmod(g.packed_keys().take(np.flatnonzero(keep)), np.int64(g.n))


def _lanczos_top_vector(
    n: int, lo: np.ndarray, hi: np.ndarray, seed: int, assortative: bool
) -> np.ndarray | None:
    """Ritz vector of the centred adjacency's extreme eigenvalue, or None.

    See :func:`almost_exact_label` for the operator, the side rule and the
    stopping rule.  None means there are no edges or the budget ran out.
    """
    if lo.size == 0:
        return None
    density = 2.0 * lo.size / (n * (n - 1))
    basis = np.empty((_LANCZOS_BUDGET + 1, n))
    q = stream(seed, ROLE_INIT_VECTOR).standard_normal(n)
    nrm = np.linalg.norm(q)
    if nrm == 0.0:  # pragma: no cover - measure zero
        return None
    basis[0] = q / nrm
    alpha = np.zeros(_LANCZOS_BUDGET)
    beta = np.zeros(_LANCZOS_BUDGET)
    pick = -1 if assortative else 0
    for m in range(1, _LANCZOS_BUDGET + 1):
        q = basis[m - 1]
        w = _neighbour_sums(n, lo, hi, q) - density * (q.sum() - q)
        alpha[m - 1] = w @ q
        w -= alpha[m - 1] * q
        if m > 1:
            w -= beta[m - 2] * basis[m - 2]
        beta[m - 1] = np.linalg.norm(w)
        tri = np.diag(alpha[:m]) + np.diag(beta[: m - 1], 1) + np.diag(beta[: m - 1], -1)
        theta, vecs = np.linalg.eigh(tri)
        s = vecs[:, pick]
        if beta[m - 1] * abs(s[-1]) <= _LANCZOS_TOL * abs(theta[pick]):
            return s @ basis[:m]
        basis[m] = w / beta[m - 1]
    return None


def _majority_labels(votes: np.ndarray, incoming: np.ndarray, assortative: bool) -> np.ndarray:
    """Majority (or minority) call per vertex; zero votes keep the incoming label."""
    pos = 1 if assortative else -1
    return np.where(votes > 0, pos, np.where(votes < 0, -pos, incoming)).astype(np.int8)


def _union_chunks(inst: CorrelatedInstance):
    """The union edges' endpoint columns, in slices of at most ``_VOTE_CHUNK`` arcs."""
    u, v = inst.parent.edges.T
    for start in range(0, u.size, _VOTE_CHUNK):
        yield u[start : start + _VOTE_CHUNK], v[start : start + _VOTE_CHUNK]


def _superset_votes(
    inst: CorrelatedInstance, fam: MatchingFamily, values: np.ndarray
) -> np.ndarray:
    """Each vertex's union vote inside the set its own pattern's pairs all match.

    A vertex's pattern code has bit ``t % 8`` of byte ``t // 8`` set when
    the t-th pair of ``fam.pairs()`` matches it, so the code keeps one bit
    per pair however many pairs there are.  A vertex w lies in every
    matched set of v's pattern exactly when w's code holds every bit of
    v's, so each union arc v -> w counts for v when
    ``code[w] & code[v] == code[v]``: one pass over the union edges, one
    byte of the packed codes at a time.
    """
    masks = [fam.anchor_masks[pair] for pair in fam.pairs()]
    codes = np.packbits(masks or [np.zeros(inst.n, dtype=bool)], axis=0, bitorder="little")
    votes = np.zeros(inst.n)
    for u, v in _union_chunks(inst):
        fwd = rev = True
        for code in codes:
            cu, cv = code[u], code[v]
            shared = cu & cv
            fwd = fwd & (shared == cu)
            rev = rev & (shared == cv)
        votes += np.bincount(u[fwd], weights=values[v[fwd]], minlength=inst.n)
        votes += np.bincount(v[rev], weights=values[u[rev]], minlength=inst.n)
    return votes


def _case_votes(
    inst: CorrelatedInstance, case: np.ndarray, values: np.ndarray
) -> list[np.ndarray]:
    """Union votes for each K = 3 case, inside its matched set, from one pass.

    ``case`` holds one bit per case for each vertex.  A union arc v -> w
    counts for case c at v when both ends carry bit c, so the arcs are
    summed once per value of ``case[v] & case[w]`` and each case adds the
    columns holding its bit.
    """
    n = inst.n
    sums = np.zeros(8 * n)
    for u, v in _union_chunks(inst):
        shared = case[u] & case[v]
        sums += np.bincount(u * 8 + shared, weights=values[v], minlength=8 * n)
        sums += np.bincount(v * 8 + shared, weights=values[u], minlength=8 * n)
    sums = sums.reshape(n, 8)
    return [sums[:, [x for x in range(8) if x >> c & 1]].sum(axis=1) for c in range(3)]


def label_good_vertices(
    inst: CorrelatedInstance,
    fam: MatchingFamily,
    init: LabelEstimate,
    classes: VertexClass | None = None,
) -> LabelEstimate:
    """Relabel every good vertex by union-graph majority of the init labels.

    A vertex votes over its neighbourhood in the union of all K children,
    restricted to the set matched by every pair its group uses; the step
    reads only those masks and the union edges with their retention codes,
    in one pass.  All votes read the *initial* labels.  For K = 3 the
    groups are the classic three cases, each writing every vertex of its
    matched set, processed in order (via-3, via-2, direct) with last write
    winning on overlaps; the returned estimate carries the count of
    triple-matched vertices whose three case votes disagree.  For other K
    each good vertex's group is its metagraph pattern, and only good
    vertices are written.  Bad vertices are never written.
    """
    if classes is None:
        classes = classify_good_bad(fam)
    est = init.copy()
    assortative = inst.params.a >= inst.params.b
    init_values = init.labels.astype(np.float64)
    if inst.K != 3:
        idx = classes.good
        votes = _superset_votes(inst, fam, init_values)
        est.labels[idx] = _majority_labels(votes[idx], init.labels[idx], assortative)
        return est
    m01, m02, m12 = fam.member_mask(0, 1), fam.member_mask(0, 2), fam.member_mask(1, 2)
    # Via child 3, via child 2, then matched directly to both.
    case = np.zeros(inst.n, dtype=np.uint8)
    for c, mask in enumerate((m02 & m12, m01 & m12, m01 & m02)):
        case |= mask.astype(np.uint8) << c
    triple = np.flatnonzero(case == 7)
    case_labels = []
    for c, votes in enumerate(_case_votes(inst, case, init_values)):
        idx = np.flatnonzero(case & (1 << c))
        est.labels[idx] = _majority_labels(votes[idx], init.labels[idx], assortative)
        case_labels.append(_majority_labels(votes[triple], init.labels[triple], assortative))
    if triple.size:
        cases = np.stack(case_labels)
        est.good_disagreements = int(np.count_nonzero((cases != cases[0]).any(axis=0)))
    return est


def label_bad_vertices(
    inst: CorrelatedInstance,
    fam: MatchingFamily,
    current: LabelEstimate,
    classes: VertexClass | None = None,
) -> LabelEstimate:
    """Relabel every bad vertex on its difference graph.

    A bad vertex v still matched to children ``phi`` (metagraph edges at the
    anchor node) votes over its anchor-child neighbours inside the fully
    matched set, except that any anchor edge whose matched image is an edge
    of some child in ``phi`` is subtracted first.  Votes read the labels the
    good step produced; ties keep them.  Good vertices are never written.
    """
    if classes is None:
        classes = classify_good_bad(fam)
    est = current.copy()
    if not classes.bad.size:
        return est
    n = inst.n
    bad = np.zeros(n, dtype=bool)
    bad[classes.bad] = True
    # Bit j of ``vc`` marks the (0, j) matched set; a vertex in all of them
    # is fully matched.
    codes = inst.edge_codes
    dtype = codes.dtype
    vc = np.zeros(n, dtype=dtype)
    for j in range(1, inst.K):
        vc |= fam.member_mask(0, j).astype(dtype) << dtype.type(j)
    in_member = vc == dtype.type((1 << inst.K) - 2)
    # Orient each anchor edge (a union edge with code bit 0) from its bad
    # end to its fully matched end.  A fully matched vertex is good, so no
    # edge qualifies both ways round.
    lo, hi = inst.parent.edges.T
    in_anchor = (codes & 1) != 0
    fwd = in_anchor & bad[lo] & in_member[hi]
    rev = in_anchor & bad[hi] & in_member[lo]
    src = np.concatenate([lo[fwd], hi[rev]])
    dst = np.concatenate([hi[fwd], lo[rev]])
    # Child j is subtracted exactly when v is matched to it, which is when
    # both ends of the arc lie in the (0, j) matched set.  ``dst`` is fully
    # matched, so that is bit j of ``vc[src]``.  The arc's image is then a
    # child-j edge exactly when the retention code of its union edge has
    # bit j.
    alive = (vc[src] & np.concatenate([codes[fwd], codes[rev]])) == 0
    votes = np.bincount(src[alive], weights=current.labels[dst[alive]], minlength=n)
    idx = classes.bad
    assortative = inst.params.a >= inst.params.b
    est.labels[idx] = _majority_labels(votes[idx], current.labels[idx], assortative)
    return est


def overlap(sigma_star: np.ndarray, estimate) -> float:
    """Agreement score ``|sum sigma*(i) sigma_hat(i)| / n`` in [0, 1].

    Both label vectors have the same non-zero length and hold only -1 and
    +1; a bool entry is refused.
    """
    labels = estimate.labels if isinstance(estimate, LabelEstimate) else np.asarray(estimate)
    truth = np.asarray(sigma_star)
    if truth.shape != labels.shape:
        raise ValueError("label vectors have different lengths")
    n = len(truth)
    if n == 0:
        raise ValueError("empty label vectors")
    for name, values in (("sigma_star", truth), ("estimate", labels)):
        if values.dtype == bool or not ((values == 1) | (values == -1)).all():
            raise ValueError(f"{name} must hold only -1 and +1")
    total = int(np.dot(truth.astype(np.int64), labels.astype(np.int64)))
    return abs(total) / n
