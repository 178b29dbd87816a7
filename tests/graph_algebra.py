"""The mapped-graph kernels the trial pipeline ran before it read retention codes.

They map whole child graphs through dense matching arrays and are kept here,
verbatim, as the independent reference that the anchored kernels of
``csbm.recovery`` and ``csbm.generate`` are compared against.  The path
composition that ``csbm.matching`` used for the good step and the exact
matching estimator is kept here too: shortest anchor paths over a
metagraph's pairs, a family's matchings as dense arrays, and the walk that
composes them; and the good/bad split as frozensets plus a per-bad-vertex
dict of bipartitions, from each vertex's own matched pairs, grouped one
vertex at a time.  So are the parent sampler that unpacked each pair from
its triangle index, and the per-vertex pair count of the balance
diagnostic in ``reference``, as they were before they were vectorised, the
inverse-CDF code draw as it was before it counted comparisons, the union
split with its own binary search over the law ``reference`` gives, which
is the resampler acceptance criterion 4 checks the sampler against, and
the power-iteration initialisation that the Lanczos one replaced, with
which the pins recorded before it still hold, together with the
graph-hash seed it falls back to when it is given none.  So is the
sampler that drew the full parent and K retention uniforms per parent edge
before the union was drawn directly, keeping the edges some child keeps;
it runs here on the pairwise-unpacking parent sampler above, which gives
the same graph, and the pins recorded before the union-first sampler hold
with it.  The power-iteration init multiplies by the scipy float64 CSR
matrix that ``csbm.graphs`` built before its CSR became a pair of int64
arrays, kept here so that its summation order, and so the pins, stay as
they were.  So is the witness's
crossing-pair pick over Python lists of ``S*`` with keyed ``min`` calls,
which the ``argmin``/``argmax`` pick over index arrays replaced.

Last come the two matchers that only the tests call: the exhaustive
maximal k-core matching over every vertex bijection, and the seeded matcher
that keeps the ground-truth permutation on the k-core of two children's
intersection graph, which the pipeline's anchored family reproduces.
"""

import hashlib
import itertools
import math
import struct
import warnings
from collections import deque
from typing import Sequence

import numpy as np
from reference import union_split_weights
from scipy.sparse import csr_matrix

from csbm.generate import (
    _PAIR_CHUNK,
    CorrelatedInstance,
    Params,
    _bernoulli_index_sample,
    _code_dtype,
    _draw_permutations,
    _tri_row_starts,
)
from csbm.graphs import (
    Graph,
    PartialMatching,
    _core_mask,
    _image_keys,
    _matched_intersection_keys,
    _member,
    _neighbour_sums,
    _sorted_unique,
)
from csbm.recovery import LabelEstimate, _majority_labels
from csbm.seeds import (
    ROLE_EDGE_HOLDOUT,
    ROLE_INIT_VECTOR,
    ROLE_LABELS,
    ROLE_PARENT_EDGES,
    ROLE_SUBSAMPLE,
    ROLE_UNION_SPLIT,
    stream,
)
from csbm.thresholds import chernoff_hellinger


def _pullback_union(
    graphs: Sequence[Graph],
    maps: Sequence[np.ndarray],
    member: np.ndarray | None = None,
) -> Graph:
    """Union of ``graphs`` pulled back into one labelling, inside ``member``.

    ``maps[i]`` is a dense map from that labelling into ``graphs[i]``'s
    labels, -1 meaning unmatched; it must be injective on its matched
    entries.  An edge contributes when both endpoints have a preimage in
    the boolean ``member`` mask (all vertices when None).
    """
    n = graphs[0].n
    src = np.arange(n) if member is None else np.flatnonzero(member)
    blocks = []
    for g, f in zip(graphs, maps):
        back = np.full(n, -1, dtype=np.int64)
        matched = src[f[src] >= 0]
        back[f[matched]] = matched
        e = g.edges
        blocks.append(_image_keys(n, e[:, 0], e[:, 1], back)[1])
    return Graph._from_keys(n, _sorted_unique(np.concatenate(blocks)))


def _surviving(u: np.ndarray, v: np.ndarray, subtract) -> np.ndarray:
    """Mask of the pairs ``(u[i], v[i])`` whose image is an edge of no subtracted graph.

    ``subtract`` yields ``(h, to_h)`` pairs with ``to_h`` a dense map into
    ``h``'s labels (-1 unmatched).  A pair with an unmatched endpoint is
    never removed by that graph.
    """
    alive = np.ones(u.shape[0], dtype=bool)
    for h, to_h in subtract:
        ok, img = _image_keys(h.n, u, v, to_h)
        alive[np.flatnonzero(ok)[_member(h.packed_keys(), img)]] = False
    return alive


def _anchor_paths(
    K: int, pairs: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, ...] | None, ...]:
    """Shortest paths from the anchor to every node, by one breadth-first search.

    Neighbours are scanned in increasing order and each node keeps its first
    predecessor, which yields the lexicographically smallest node sequence
    among shortest paths.  Unreached nodes get None.
    """
    neighbours: list[list[int]] = [[] for _ in range(K)]
    for i, j in pairs:
        neighbours[i].append(j)
        neighbours[j].append(i)
    parent = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in sorted(neighbours[u]):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    paths: list[tuple[int, ...] | None] = []
    for j in range(K):
        if j not in parent:
            paths.append(None)
            continue
        path = [j]
        while path[-1] != 0:
            path.append(parent[path[-1]])
        paths.append(tuple(reversed(path)))
    return tuple(paths)


def map_array(fam, i: int, j: int) -> np.ndarray:
    """Dense lookup from graph-i labels to graph-j labels (-1 unmatched)."""
    if i == j:
        raise ValueError("i and j must differ")
    lo, hi = (i, j) if i < j else (j, i)
    arr = fam.matchings[(lo, hi)].as_array(fam.n)
    if (i, j) == (lo, hi):
        return arr
    inv = np.full(fam.n, -1, dtype=np.int64)
    dom = np.flatnonzero(arr >= 0)
    inv[arr[dom]] = dom
    return inv


def _compose_array_along_path(fam, path: tuple[int, ...]) -> np.ndarray:
    """Vectorised walk: anchor labels through ``path`` to its last graph.

    ``path`` starts at the anchor; each hop applies one pairwise matching,
    and a vertex that some hop leaves unmatched maps to -1.
    """
    x = np.arange(fam.n, dtype=np.int64)
    for a, b in zip(path, path[1:]):
        arr = map_array(fam, a, b)
        valid = x >= 0
        x = np.where(valid, arr[np.where(valid, x, 0)], -1)
    return x


def mask_patterns(fam) -> dict[tuple[tuple[int, int], ...], list[int]]:
    """The family's vertices grouped by the pairs that match them, one vertex at a time.

    Each key lists a pattern's pairs in ``fam.pairs()`` order; its value
    lists the pattern's vertices in ascending order.
    """
    pairs = fam.pairs()
    columns = [fam.anchor_masks[pair].tolist() for pair in pairs]
    groups: dict[tuple[tuple[int, int], ...], list[int]] = {}
    for v in range(fam.n):
        key = tuple(pair for pair, column in zip(pairs, columns) if column[v])
        groups.setdefault(key, []).append(v)
    return groups


def anchor_component(K: int, pairs: tuple[tuple[int, int], ...]) -> frozenset[int]:
    """The metagraph nodes that ``pairs`` connect to the anchor."""
    return frozenset(j for j, path in enumerate(_anchor_paths(K, pairs)) if path is not None)


def frozenset_classes(fam):
    """The good/bad split as frozensets and a per-bad-vertex dict, from :func:`mask_patterns`.

    Returns ``(good, bad, partitions)``; ``partitions[v]`` is the bad
    vertex's bipartition, the nodes its anchor reaches and the rest.
    """
    good: list[int] = []
    bad: list[int] = []
    partitions: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
    for pairs, members in mask_patterns(fam).items():
        reached = anchor_component(fam.K, pairs)
        if len(reached) == fam.K:
            good.extend(members)
        else:
            bad.extend(members)
            split = (reached, frozenset(range(fam.K)) - reached)
            partitions.update(dict.fromkeys(members, split))
    return frozenset(good), frozenset(bad), partitions


def bipartition(classes, K: int, v: int) -> tuple[frozenset[int], frozenset[int]]:
    """Vertex ``v``'s metagraph nodes split into the anchor's component and the rest."""
    code = int(classes.reached[v])
    comp = frozenset(i for i in range(K) if code >> i & 1)
    return comp, frozenset(range(K)) - comp


# -- the sampler and the balance count as they were before vectorising -------


def _unpack_triangle(flat: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Map flat upper-triangle indices to vertex pairs within ``members``."""
    m = len(members)
    starts = _tri_row_starts(m)
    row = np.searchsorted(starts, flat, side="right") - 1
    col = flat - starts[row] + row + 1
    return np.column_stack((members[row], members[col]))


def sample_parent(params: Params, seed: int) -> tuple[Graph, np.ndarray]:
    """Draw the parent graph and ground-truth labels.

    Returns ``(graph, sigma)`` with ``sigma`` an int8 vector of ±1.  Labels
    and edges come from separate seed roles, so the parent edge set is a
    deterministic function of ``(seed, labels)``.
    """
    n = params.n
    sigma = (stream(seed, ROLE_LABELS).integers(0, 2, size=n) * 2 - 1).astype(np.int8)
    rng = stream(seed, ROLE_PARENT_EDGES)
    plus = np.flatnonzero(sigma > 0)
    minus = np.flatnonzero(sigma < 0)
    np_, nm = len(plus), len(minus)
    blocks = []
    # Intra-community pairs: all pairs within V+, then all pairs within V-.
    cp = np_ * (np_ - 1) // 2
    cm = nm * (nm - 1) // 2
    hits = _bernoulli_index_sample(rng, cp + cm, params.p)
    if hits.size:
        in_plus = hits < cp
        if in_plus.any():
            blocks.append(_unpack_triangle(hits[in_plus], plus))
        if (~in_plus).any():
            blocks.append(_unpack_triangle(hits[~in_plus] - cp, minus))
    # Inter-community pairs, plus-major lexicographic order.
    hits = _bernoulli_index_sample(rng, np_ * nm, params.q)
    if hits.size:
        blocks.append(
            np.column_stack((plus[hits // nm], minus[hits % nm]))
        )
    edges = np.concatenate(blocks) if blocks else None
    return Graph(n, edges), sigma


# Parent edges per draw of retention uniforms; whole rows, so the draws
# are those of one ``random((m, K))`` call.
_RETENTION_CHUNK_ROWS = 1 << 16


def retention_draw(params: Params, seed: int) -> tuple[Graph, np.ndarray, np.ndarray]:
    """The full parent, its labels and the retention code drawn for each parent edge.

    Codes of 0, edges no child keeps, are included.
    """
    parent, sigma = sample_parent(params, seed)
    m = parent.edge_count
    rng = stream(seed, ROLE_SUBSAMPLE)
    dtype = _code_dtype(params.K)
    codes = np.zeros(m, dtype=dtype)
    for start in range(0, m, _RETENTION_CHUNK_ROWS):
        stop = min(start + _RETENTION_CHUNK_ROWS, m)
        kept = rng.random((stop - start, params.K)) < params.s
        chunk = codes[start:stop]
        for j in range(params.K):
            chunk |= kept[:, j].astype(dtype) << dtype.type(j)
    return parent, sigma, codes


def sample_instance(params: Params, seed: int) -> CorrelatedInstance:
    """Sample an instance via per-edge retention bits: the parent edges some child keeps."""
    parent, sigma, codes = retention_draw(params, seed)
    kept = np.flatnonzero(codes)
    return CorrelatedInstance(
        params=params,
        seed=seed,
        parent=Graph._from_keys(params.n, parent.packed_keys()[kept]),
        sigma_star=sigma,
        pi_star=_draw_permutations(params.n, params.K, seed),
        edge_codes=codes[kept],
    )


def _pair_class_counts(
    classes: np.ndarray, sigma: np.ndarray, n: int, num_classes: int
) -> np.ndarray:
    """Per-vertex pair counts by (class code, same/opposite community).

    Returns an ``(n, num_classes, 2)`` int64 array; index 1 of the last axis
    counts pairs whose other endpoint lies in the same community.
    """
    width = num_classes * 2
    acc = np.zeros(n * width, dtype=np.int64)
    same_side = (sigma > 0).astype(np.int64)
    pos = 0
    i = 0
    while i < n - 1:
        j = i
        total = 0
        while j < n - 1 and total + (n - 1 - j) <= _PAIR_CHUNK:
            total += n - 1 - j
            j += 1
        if j == i:
            j = i + 1
            total = n - 1 - i
        rows = np.arange(i, j, dtype=np.int64)
        i_idx = np.repeat(rows, n - 1 - rows)
        j_idx = np.concatenate([np.arange(r + 1, n, dtype=np.int64) for r in rows])
        cls = classes[pos : pos + total].astype(np.int64)
        same = (same_side[i_idx] == same_side[j_idx]).astype(np.int64)
        acc += np.bincount(i_idx * width + cls * 2 + same, minlength=n * width)
        acc += np.bincount(j_idx * width + cls * 2 + same, minlength=n * width)
        pos += total
        i = j
    return acc.reshape(n, num_classes, 2)


def _draw_codes(rng: np.random.Generator, count: int, weights: np.ndarray) -> np.ndarray:
    """Draw ``count`` i.i.d. codes from ``weights`` (chunked inverse CDF)."""
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    out = np.empty(count, dtype=np.uint8)
    for start in range(0, count, _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, count)
        u = rng.random(stop - start)
        out[start:stop] = np.searchsorted(cum, u, side="right").astype(np.uint8)
    return out


def split_union_graph(h: Graph, s: float, K: int, seed: int) -> list[Graph]:
    """Split a realised union graph back into ``K - 1`` children.

    Models ``h`` as the union of children ``2..K`` of a correlated family
    (all in the same labelling): every edge of ``h`` independently receives
    a non-zero presence pattern from :func:`union_split_weights` and is
    copied into the children whose bits are set.  With ``K = 2`` the single
    child equals ``h``.
    """
    if K < 2:
        raise ValueError("K must be at least 2 (h is a union of K-1 children)")
    num = K - 1
    weights = union_split_weights(s, num)
    # Codes 1..2^num-1 in ascending order; weight lookup by code.
    wvec = np.array(
        [weights[tuple((code >> j) & 1 for j in range(num))] for code in range(1, 1 << num)]
    )
    cum = np.cumsum(wvec)
    cum[-1] = 1.0
    rng = stream(seed, ROLE_UNION_SPLIT)
    u = rng.random(h.edge_count)
    codes = np.searchsorted(cum, u, side="right") + 1
    return [
        Graph._from_keys(h.n, h.packed_keys()[(codes >> j) & 1 == 1]) for j in range(num)
    ]


# -- the power-iteration initialisation --------------------------------------

def _adjacency_csr(n: int, edges: np.ndarray) -> csr_matrix:
    """Symmetric 0/1 adjacency of an edge array as a float64 CSR matrix.

    The edge rows must be in key order (``lo < hi``, sorted by ``lo`` then
    ``hi``), as :attr:`Graph.edges` and every row subset of it are.  The
    reverse arcs then go first: scipy's stable row sort leaves each row as
    its smaller neighbours ascending followed by its larger ones, already
    sorted and free of duplicates, so the canonicalising passes are skipped.
    """
    if len(edges) == 0:
        return csr_matrix((n, n))
    lo = edges[:, 0]
    hi = edges[:, 1]
    rows = np.concatenate([hi, lo])
    cols = np.concatenate([lo, hi])
    data = np.ones(len(rows), dtype=np.float64)
    return csr_matrix((data, (rows, cols)), shape=(n, n))


def _graph_seed(g: Graph) -> int:
    """Deterministic seed derived from the graph itself (size + edge bytes)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<q", g.n))
    h.update(np.ascontiguousarray(g.edges).tobytes())
    return int.from_bytes(h.digest(), "little")


_POWER_ITERATION_BUDGET = 200
_POWER_ITERATION_TOL = 1e-8


def almost_exact_label(
    g1: Graph,
    a_eff: float,
    b_eff: float,
    eps: float = 0.05,
    seed: int | None = None,
) -> LabelEstimate:
    """Label one graph almost exactly by spectral init plus one refinement.

    ``a_eff`` and ``b_eff`` are the effective intra/inter coefficients of
    the graph being labelled (for a child of the correlated model, ``s * a``
    and ``s * b``); they choose between majority and minority refinement and
    feed the accuracy-target sanity check on ``eps``.  Half the edges (an
    independent Bernoulli split derived from ``seed``) go to the spectral
    stage, the other half to the refinement vote.  If power iteration fails
    to converge within its budget the routine returns the all +1 labelling
    flagged degraded.  ``seed=None`` derives a seed from the graph bytes, so
    the labelling is still deterministic per input.
    """
    if a_eff < 0 or b_eff < 0:
        raise ValueError("a_eff and b_eff must be non-negative")
    if eps <= 0:
        raise ValueError("eps must be positive")
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
    if seed is None:
        seed = _graph_seed(g1)
    degraded = LabelEstimate(labels=np.ones(n, dtype=np.int8), degraded=True)
    if g1.edge_count == 0:
        return degraded
    hold = stream(seed, ROLE_EDGE_HOLDOUT).random(g1.edge_count) < 0.5
    spectral_edges = g1.edges.take(np.flatnonzero(hold), axis=0)
    refine_edges = g1.edges.take(np.flatnonzero(~hold), axis=0)
    adj = _adjacency_csr(n, spectral_edges)
    density = 2.0 * len(spectral_edges) / (n * (n - 1)) if n > 1 else 0.0
    rng = stream(seed, ROLE_INIT_VECTOR)
    x = rng.standard_normal(n)
    nrm = np.linalg.norm(x)
    if nrm == 0.0:  # pragma: no cover - measure zero
        return degraded
    x /= nrm
    converged = False
    for _ in range(_POWER_ITERATION_BUDGET):
        # Centered adjacency acting on x: A x - density * (J - I) x.
        y = adj @ x - density * (x.sum() - x)
        nrm = np.linalg.norm(y)
        if nrm < 1e-300:
            break
        y /= nrm
        residual = min(np.linalg.norm(y - x), np.linalg.norm(y + x))
        x = y
        if residual < _POWER_ITERATION_TOL:
            converged = True
            break
    if not converged:
        return degraded
    init = np.where(x >= 0, 1, -1).astype(np.int8)
    votes = _neighbour_sums(n, refine_edges[:, 0], refine_edges[:, 1], init.astype(np.float64))
    labels = _majority_labels(votes, init, a_eff >= b_eff)
    return LabelEstimate(labels=labels)


_BRUTE_FORCE_MAX_N = 9


def witness_pick(
    inst: CorrelatedInstance, report
) -> tuple[bool | None, tuple[int, int] | None]:
    """``(witness_found, witness_pair)`` picked over Python lists of ``S*``, as before index arrays."""
    members = report.s_star.tolist()
    maj = dict(zip(members, report.maj.tolist()))
    a, b = inst.params.a, inst.params.b
    witness_found: bool | None = None
    witness_pair: tuple[int, int] | None = None
    if a != b:
        plus = [i for i in members if inst.sigma_star[i] > 0]
        minus = [i for i in members if inst.sigma_star[i] < 0]
        if plus and minus:
            if a > b:
                i_star = min(plus, key=lambda i: (maj[i], i))
                j_star = min(minus, key=lambda i: (-maj[i], i))
                witness_found = maj[i_star] < maj[j_star]
            else:
                i_star = min(plus, key=lambda i: (-maj[i], i))
                j_star = min(minus, key=lambda i: (maj[i], i))
                witness_found = maj[i_star] > maj[j_star]
            if witness_found:
                witness_pair = (i_star, j_star)
        else:
            witness_found = False
    return witness_found, witness_pair


def kcore_matching_bruteforce(g: Graph, h: Graph, k: int) -> PartialMatching:
    """Exhaustive maximal k-core matching between ``g`` and ``h``.

    Tries every bijection ``pi`` of the vertex set, forms the graph of
    ``g``-edges whose images under ``pi`` are ``h``-edges, and keeps the
    ``pi`` whose k-core is largest; among maximisers the lexicographically
    smallest permutation wins.  Returns ``pi`` restricted to the winning
    core (empty when every core is empty).
    """
    if g.n != h.n:
        raise ValueError("graphs must have equal vertex counts")
    if k < 1:
        raise ValueError("k must be at least 1")
    n = g.n
    if n > _BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"brute-force matching enumerates n! bijections; n={n} exceeds "
            f"the guard {_BRUTE_FORCE_MAX_N}"
        )
    g_edges = [(int(u), int(v)) for u, v in g.edges]
    h_adj = [0] * n
    for u, v in h.edges:
        h_adj[int(u)] |= 1 << int(v)
        h_adj[int(v)] |= 1 << int(u)
    best_size = 0
    best_perm: tuple[int, ...] | None = None
    best_alive = 0
    for perm in itertools.permutations(range(n)):
        adj = [0] * n
        for u, v in g_edges:
            if h_adj[perm[u]] >> perm[v] & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        alive = (1 << n) - 1
        changed = True
        while changed:
            changed = False
            rem = alive
            while rem:
                low = rem & -rem
                rem ^= low
                v = low.bit_length() - 1
                if (adj[v] & alive).bit_count() < k:
                    alive ^= low
                    changed = True
        size = alive.bit_count()
        if size > best_size:
            best_size = size
            best_perm = perm
            best_alive = alive
            if size == n:
                break
    if best_perm is None:
        return PartialMatching({})
    return PartialMatching(
        {v: best_perm[v] for v in range(n) if best_alive >> v & 1}
    )


def kcore_matching_seeded(g: Graph, h: Graph, k: int, pi_true) -> PartialMatching:
    """Ground-truth permutation restricted to the intersection k-core.

    Evaluates the known permutation ``pi_true`` (an array mapping ``g``
    labels to ``h`` labels), forms the intersection graph of matched edges,
    and returns ``pi_true`` restricted to its k-core.  The pipeline's
    :func:`all_pairwise_matchings` computes the same matchings in anchor
    labels; in the feasible regime they agree with what the exhaustive
    search would return, with high probability.
    """
    if g.n != h.n:
        raise ValueError("graphs must have equal vertex counts")
    pi = np.asarray(pi_true, dtype=np.int64)
    if pi.shape != (g.n,) or not np.array_equal(np.sort(pi), np.arange(g.n)):
        raise ValueError("pi_true must be a full permutation of the vertex set")
    lo, hi = np.divmod(_matched_intersection_keys(g, h, pi), np.int64(g.n))
    core = _core_mask(g.n, lo, hi, k)
    return PartialMatching._from_array(np.where(core, pi, -1))
