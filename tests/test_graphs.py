"""Graph container, k-core peeling, the intersection graph and edge-list IO."""

import networkx as nx
import numpy as np
import pytest
from conftest import edge_set, erdos_renyi, kcore_oracle, read_edge_list
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from csbm import graphs
from csbm.graphs import (
    Graph,
    PartialMatching,
    _adjacency_csr,
    _neighbour_sums,
    intersection_graph,
    k_core,
    write_edge_list,
)


def test_edges_are_canonicalised():
    g = Graph(5, [(3, 1), (1, 3), (4, 0), (0, 4), (2, 1)])
    assert edge_set(g) == {(0, 4), (1, 2), (1, 3)}
    assert g.edge_count == 3
    assert g.edges.dtype == np.int64
    assert not g.edges.flags.writeable


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2.5, [(0, 1)])


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1, 2, 3)],
        [0, 1],
        np.array([[0, 1, 2], [3, 4, 0]]),
        np.zeros((2, 2, 2), dtype=np.int64),
    ],
)
def test_graph_rejects_edges_not_shaped_m_by_2(edges):
    with pytest.raises(ValueError, match="shaped"):
        Graph(5, edges)


@pytest.mark.parametrize(
    "edges", [np.array([[0.0, 1.7]]), [(0.5, 2)], np.array([[0, np.nan]]), np.array([[0, 1e30]])]
)
def test_graph_rejects_non_integer_endpoints(edges):
    with pytest.raises(ValueError, match="integers"):
        Graph(5, edges)


def test_graph_accepts_empty_and_integral_input():
    for empty in (None, [], (), np.empty((0, 2)), np.empty(0, dtype=np.int64)):
        assert Graph(5, empty).edges.shape == (0, 2)
    assert edge_set(Graph(5, np.array([[0.0, 1.0]]))) == {(0, 1)}
    assert edge_set(Graph(5, np.array([[3, 2]], dtype=np.uint8))) == {(2, 3)}


@settings(max_examples=200, deadline=None)
@example((5, []))
@given(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda p: p[0] != p[1]
                ),
                max_size=60,
            ),
        )
    )
)
def test_edges_match_numpy_canonical_form(case):
    n, pairs = case
    # Feed every pair twice, once reversed, so duplicates always occur.
    raw = np.array(pairs + [(v, u) for u, v in pairs], dtype=np.int64).reshape(-1, 2)
    expected = np.unique(np.sort(raw, axis=1), axis=0).reshape(-1, 2)
    g = Graph(n, raw)
    # Column-major, so the stages read each endpoint column without a copy.
    assert g.edges.dtype == np.int64 and g.edges.flags.f_contiguous
    assert all(col.flags.c_contiguous and not col.flags.writeable for col in g.edges.T)
    assert g.edges.tobytes() == expected.tobytes()
    assert g.packed_keys().tolist() == [u * n + v for u, v in expected.tolist()]


def test_vertex_queries_reject_out_of_range():
    h = Graph(3, [(2, 0)])
    # A negative index would wrap round to vertex 2; a fraction, a string or
    # a bool is not a vertex.
    for v in (3, -1, 1.5, "1", True):
        with pytest.raises(ValueError):
            h.neighbors(v)


def test_graph_rejects_vertex_count_beyond_packed_keys():
    largest = 3_037_000_499
    assert largest * largest < 2**63 <= (largest + 1) ** 2
    g = Graph(largest, [(largest - 2, largest - 1)])
    assert edge_set(g) == {(largest - 2, largest - 1)}
    with pytest.raises(ValueError):
        Graph(largest + 1)


def test_degrees_and_adjacency():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert g.neighbors(0) == {1, 2, 3}
    assert g.neighbors(2) == {0}
    assert [len(g.neighbors(v)) for v in range(4)] == [3, 1, 1, 1]
    assert graphs._neighbour_sums(4, g.edges[:, 0], g.edges[:, 1]).tolist() == [3, 1, 1, 1]
    assert 0 in g.neighbors(1)
    assert 2 not in g.neighbors(1)
    assert 2 not in g.neighbors(2)


def test_adjacency_rows_come_out_sorted_and_equal_the_coo_build():
    rng = np.random.default_rng(5)
    graphs = [erdos_renyi(n, p, rng) for n, p in [(1, 0.0), (12, 0.0), (12, 0.5), (300, 0.05)]]
    # The empty graph, and isolated vertices first, last and between edges.
    graphs += [Graph(0), Graph(9, [(2, 3), (3, 5), (2, 5)]), Graph(6, [(0, 1), (4, 1)])]
    for g in graphs:
        n = g.n
        indptr, indices = _adjacency_csr(n, g.packed_keys())
        u, v = g.edges[:, 0], g.edges[:, 1]
        rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
        ref = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        assert ref.has_canonical_format
        assert indptr.dtype == indices.dtype == np.int64
        assert np.array_equal(indptr, ref.indptr)
        assert np.array_equal(indices, ref.indices)


def test_contains_edges_bulk():
    g = Graph(6, [(0, 1), (2, 5), (3, 4)])
    pairs = np.array([[1, 0], [5, 2], [0, 2], [3, 4]])
    found = graphs._member(g.packed_keys(), graphs._pack(g.n, pairs))
    assert found.tolist() == [True, True, False, True]


@settings(max_examples=200, deadline=None)
@example((4, [], [(0, 1)]))
@example((4, [(0, 1)], []))
@example((1, [], []))
@given(
    st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda p: p[0] != p[1]
                ),
                max_size=60,
            ),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40),
        )
    )
)
def test_contains_edges_matches_set_membership(case):
    n, pairs, queries = case
    g = Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    edge_set = {(min(u, v), max(u, v)) for u, v in pairs}
    # Unsorted queries, each repeated and reversed; equal endpoints test False.
    queries = queries + [(v, u) for u, v in queries] + queries
    expected = [u != v and (min(u, v), max(u, v)) in edge_set for u, v in queries]
    keys = graphs._pack(n, np.array(queries, dtype=np.int64).reshape(-1, 2))
    found = graphs._member(g.packed_keys(), keys)
    assert found.dtype == bool
    assert found.tolist() == expected


def test_graph_equality_compares_n_and_edges():
    a = Graph(4, [(0, 1)])
    assert a == Graph(4, [(1, 0)])
    assert a != Graph(5, [(0, 1)])
    assert a != Graph(4, [(0, 2)])


# -- partial matchings -------------------------------------------------------


def test_matching_basics():
    mu = PartialMatching({0: 2, 1: 0, 3: 1})
    assert len(mu) == 3
    assert mu[3] == 1
    assert 2 not in mu
    assert mu.get(2) is None
    assert mu.domain == frozenset({0, 1, 3})
    assert list(mu.as_array(4)) == [2, 0, -1, 1]
    # Vertex 3 is matched, so a lookup of length 3 cannot hold the map.
    with pytest.raises(ValueError):
        mu.as_array(3)


def test_matching_rejects_collisions():
    with pytest.raises(ValueError):
        PartialMatching({0: 1, 2: 1})
    with pytest.raises(ValueError):
        PartialMatching([(0, 1), (0, 2)])


def reference_matching(pairs) -> dict[int, int]:
    """A plain-dict partial matching, raising where the class must raise."""
    ref: dict[int, int] = {}
    for u, v in pairs:
        if u < 0 or v < 0:
            raise ValueError("matched vertices must be non-negative")
        if u in ref:
            raise ValueError("a vertex is matched twice")
        ref[u] = v
    if len(set(ref.values())) != len(ref):
        raise ValueError("matching must be injective")
    return ref


# Valid matchings in shuffled order, or arbitrary pairs (mostly invalid).
matching_pairs = st.one_of(
    st.tuples(st.permutations(range(12)), st.sets(st.integers(0, 11))).flatmap(
        lambda t: st.permutations([(u, t[0][u]) for u in sorted(t[1])])
    ),
    st.lists(st.tuples(st.integers(-2, 11), st.integers(-2, 11)), max_size=8),
)


@settings(max_examples=300, deadline=None)
@example([(0, 1), (0, 2)], [])
@example([(3, -1)], [])
@example([(0, 4), (5, 1)], [(5, 1), (0, 4)])
@given(matching_pairs, matching_pairs)
def test_matching_agrees_with_dict_reference(pairs, other_pairs):
    try:
        ref = reference_matching(pairs)
    except ValueError:
        with pytest.raises(ValueError):
            PartialMatching(pairs)
        return
    mu = PartialMatching(pairs)
    assert len(mu) == len(ref)
    assert list(mu.items()) == sorted(ref.items())
    assert all(type(u) is int and type(v) is int for u, v in mu.items())
    assert mu.domain == frozenset(ref)
    # Non-integral labels are absent, as in the dict; integral floats and
    # numpy scalars look up their integer.
    for v in [*range(-3, 15), 0.7, -0.5, 2.5, 1.0, np.int64(3), np.float64(4.0)]:
        assert (v in mu) == (v in ref)
        assert mu.get(v) == ref.get(v)
        assert mu.get(v, -7) == ref.get(v, -7)
        if v in ref:
            assert mu[v] == ref[v]
        else:
            with pytest.raises(KeyError):
                mu[v]
    for n in range(15):
        if ref and max(ref) >= n:
            with pytest.raises(ValueError):
                mu.as_array(n)
        else:
            arr = mu.as_array(n)
            assert arr.dtype == np.int64
            assert arr.tolist() == [ref.get(v, -1) for v in range(n)]
    assert mu == PartialMatching(ref)
    assert mu != PartialMatching({**ref, 20: 20})
    try:
        other_ref = reference_matching(other_pairs)
    except ValueError:
        return
    assert (mu == PartialMatching(other_pairs)) == (ref == other_ref)


@settings(max_examples=100, deadline=None)
@given(st.permutations(range(10)), st.sets(st.integers(0, 9)))
def test_matching_constructors_agree_with_dict_reference(pi, domain):
    pi = list(pi)
    mu = PartialMatching.from_permutation(pi)
    assert mu == PartialMatching(dict(enumerate(pi)))
    # Restricting the permutation stores a shorter array; equality must
    # not depend on the stored length.
    sub = PartialMatching({v: pi[v] for v in domain})
    assert sub.as_array(10).tolist() == [pi[v] if v in domain else -1 for v in range(10)]
    assert (sub == mu) == (len(domain) == 10)
    with pytest.raises(ValueError):
        PartialMatching.from_permutation(pi[:-1] + [pi[0]])


def test_matching_from_permutation():
    pi = [2, 0, 1]
    mu = PartialMatching.from_permutation(pi)
    assert mu[0] == 2 and mu[1] == 0 and mu[2] == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: PartialMatching.from_permutation([1.9, 0.2]),
        lambda: PartialMatching.from_permutation(np.array([1.0, np.nan])),
        lambda: PartialMatching({0.7: 1}),
        lambda: PartialMatching([(0, 1.5)]),
    ],
    ids=["pi", "pi-nan", "mapping", "pairs"],
)
def test_matching_rejects_non_integer_vertices(build):
    with pytest.raises(ValueError, match="integers"):
        build()


def test_matching_from_permutation_rejects_nested_input():
    with pytest.raises(ValueError, match="one-dimensional"):
        PartialMatching.from_permutation([[1, 0], [3, 2]])
    assert PartialMatching.from_permutation(np.array([1.0, 0.0])).as_array(2).tolist() == [1, 0]


# -- k-core ------------------------------------------------------------------


def test_kcore_hand_examples():
    triangle_pendant = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    assert k_core(triangle_pendant, 1) == frozenset({0, 1, 2, 3})
    assert k_core(triangle_pendant, 2) == frozenset({0, 1, 2})
    assert k_core(triangle_pendant, 3) == frozenset()

    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert k_core(k4, 3) == frozenset(range(4))

    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert k_core(path, 2) == frozenset()


def test_kcore_cascade():
    # Removing the two leaves drops 2's degree below two, which then drops 1.
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (0, 5), (0, 2), (0, 4)])
    assert k_core(g, 2) == kcore_oracle(g, 2)


def test_kcore_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        k_core(Graph(5, [(0, 1)]), 0)
    with pytest.raises(ValueError):
        k_core(Graph(5, [(0, 1)]), 1.5)


def test_kcore_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(120):
        n = int(rng.integers(2, 11))
        g = erdos_renyi(n, float(rng.uniform(0.1, 0.8)), rng)
        for k in (1, 2, 3):
            assert k_core(g, k) == kcore_oracle(g, k)


@pytest.mark.parametrize("k", [1, 2, 3, 6, 13])
def test_kcore_matches_networkx(k):
    rng = np.random.default_rng(1000 + k)
    # Mean degrees of about 4, 8 and 12: cores from empty to nearly everything.
    for half_degree in (2, 4, 6):
        n = int(rng.integers(1800, 2200))
        pairs = rng.integers(0, n, size=(half_degree * n, 2))
        g = Graph(n, pairs[pairs[:, 0] != pairs[:, 1]])
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(g.edges.tolist())
        assert k_core(g, k) == frozenset(nx.k_core(ref, k).nodes)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("clique", [5, 0])
def test_kcore_matches_networkx_on_long_paths(monkeypatch, clique, k):
    # A 1000-vertex path, bare or hanging off a 5-clique: at k = 2 each
    # round peels only its loose end or ends, so the rounds number hundreds.
    n = clique + 1000
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges += [(v, v + 1) for v in range(max(clique - 1, 0), n - 1)]
    g = Graph(n, edges)
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from(edges)
    rounds = []

    def counting(n, lo, hi):
        rounds.append(lo.size)
        return _neighbour_sums(n, lo, hi)

    monkeypatch.setattr(graphs, "_neighbour_sums", counting)
    assert k_core(g, k) == frozenset(nx.k_core(ref, k).nodes)
    assert len(rounds) > (400 if k == 2 else 1)


def test_kcore_builds_no_adjacency(monkeypatch):
    def no_adjacency(n, keys):
        raise AssertionError("an adjacency was built")

    monkeypatch.setattr(graphs, "_adjacency_csr", no_adjacency)
    # The peel counts degrees over the edges left, round by round, at any k.
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert k_core(g, 1) == frozenset(range(5))
    assert k_core(Graph(4), 3) == frozenset()
    assert k_core(g, 2) == frozenset({0, 1, 2})
    assert k_core(g, 3) == frozenset()


# -- intersection graph ------------------------------------------------------


def test_intersection_graph_hand_example():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h = Graph(4, [(0, 3), (1, 2), (0, 2)])
    # mu maps g-labels to h-labels: 0->1, 1->2, 2->0, 3->3.
    mu = PartialMatching({0: 1, 1: 2, 2: 0, 3: 3})
    inter = intersection_graph(g, h, mu)
    # g-edge (0,1) -> image (1,2) in h: kept.  (1,2) -> (2,0) in h: kept.
    # (2,3) -> (0,3) in h: kept.
    assert edge_set(inter) == {(0, 1), (1, 2), (2, 3)}
    partial = PartialMatching({0: 1, 1: 2})
    assert intersection_graph(g, h, partial) == Graph(4, [(0, 1)])
    # Image 6 lies outside h, and the key 0 * 4 + 6 of (0, 6) is h's (1, 2).
    with pytest.raises(ValueError):
        intersection_graph(g, h, PartialMatching({0: 0, 1: 6}))


def test_intersection_random_agrees_with_naive():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        g = erdos_renyi(n, 0.5, rng)
        h = erdos_renyi(n, 0.5, rng)
        pi = rng.permutation(n)
        mu = PartialMatching.from_permutation(pi)
        expected = {
            (u, v)
            for u, v in edge_set(g)
            if int(pi[v]) in h.neighbors(int(pi[u]))
        }
        assert edge_set(intersection_graph(g, h, mu)) == expected


def reference_write_edge_list(g, path):
    """The per-edge writer the joined write replaced, kept verbatim."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.n} {g.edge_count}\n")
        for u, v in g.edges:
            fh.write(f"{int(u)} {int(v)}\n")


def test_edge_list_bytes_match_per_edge_writer(tmp_path):
    rng = np.random.default_rng(3)
    for g in (Graph(0), Graph(5), erdos_renyi(40, 0.3, rng), Graph(1000, [(998, 999), (0, 7)])):
        write_edge_list(g, tmp_path / "new.edges")
        reference_write_edge_list(g, tmp_path / "old.edges")
        assert (tmp_path / "new.edges").read_bytes() == (tmp_path / "old.edges").read_bytes()


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    g = erdos_renyi(9, 0.4, rng)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    h = read_edge_list(path)
    assert h.n == g.n
    assert edge_set(h) == edge_set(g)
    first = path.read_text().splitlines()[0]
    assert first == f"{g.n} {g.edge_count}"
