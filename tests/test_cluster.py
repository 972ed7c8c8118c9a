"""Tests for cluster construction, nullifiers, and the inseparability check."""

import numpy as np
import pytest

from cvmbqc import cluster as cluster_module
from cvmbqc.cluster import (
    ClusterGraph,
    cluster_unitary,
    default_two_node_q,
    generate_cluster,
    min_squeezing_threshold,
    nullifiers,
    unitary_to_symplectic,
    vlf_two_node_check,
)
from cvmbqc.quadrature import (
    embed,
    expr_covariance,
    is_symplectic,
    phase_rotation,
    symmetric_beam_splitter,
    x_quad,
    y_quad,
)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_graph(rng, n):
    adj = np.triu((rng.random((n, n)) < 0.5).astype(int), 1)
    return ClusterGraph(adj + adj.T)


class TestGraphValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            ClusterGraph(np.array([[0, 1], [0, 0]]))

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            ClusterGraph(np.array([[1, 0], [0, 0]]))

    def test_rejects_weights(self):
        with pytest.raises(ValueError, match="0 or 1"):
            ClusterGraph(np.array([[0, 2], [2, 0]]))

    def test_from_text_rows_and_semicolons(self):
        g1 = ClusterGraph.from_text("0 1\n1 0")
        g2 = ClusterGraph.from_text("0 1; 1 0")
        np.testing.assert_array_equal(g1.adjacency, g2.adjacency)


class TestSharedResults:
    """A graph cannot change, so what it keeps can be handed out shared."""

    def test_adjacency_is_read_only(self):
        graph = ClusterGraph.chain(3)
        with pytest.raises(ValueError, match="read-only"):
            graph.adjacency[0, 1] = 0

    def test_caller_array_is_copied(self):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        graph = ClusterGraph(adj)
        U = cluster_unitary(graph).copy()
        adj[0, 1] = adj[1, 0] = 0
        np.testing.assert_array_equal(graph.adjacency, ClusterGraph.chain(3).adjacency)
        assert np.array_equal(cluster_unitary(graph), U)
        assert nullifiers(graph)[0] == y_quad(0) - x_quad(1)

    def test_q_free_unitary_is_shared_and_read_only(self):
        graph = ClusterGraph.chain(3)
        U = cluster_unitary(graph)
        assert cluster_unitary(graph) is U
        with pytest.raises(ValueError, match="read-only"):
            U[0, 0] = 0

    def test_unitary_with_q_is_a_new_writeable_array(self):
        graph = ClusterGraph.chain(3)
        U = cluster_unitary(graph, np.eye(3))
        assert U is not cluster_unitary(graph, np.eye(3))
        U[0, 0] = 0
        assert cluster_unitary(graph)[0, 0] != 0

    def test_nullifiers_are_shared(self):
        graph = ClusterGraph.chain(3)
        assert nullifiers(graph) is nullifiers(graph)

    def test_graphs_compare_and_hash_by_identity(self):
        # each graph object keeps its own caches, so equality is identity
        graph = ClusterGraph.two_node()
        twin = ClusterGraph(graph.adjacency)
        assert graph == graph and not graph != graph
        assert graph != twin and not graph == twin
        assert {graph: 1, twin: 2}[graph] == 1
        assert len({graph, twin, graph}) == 2


class TestClusterUnitary:
    def test_two_node_with_default_q(self):
        U = cluster_unitary(ClusterGraph.two_node(), default_two_node_q())
        expected = np.array([[1, -1j], [1j, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(U, expected, atol=1e-14)

    def test_two_node_with_identity_q(self):
        U = cluster_unitary(ClusterGraph.two_node(), np.eye(2))
        expected = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
        np.testing.assert_allclose(U, expected, atol=1e-14)

    def test_edgeless_identity(self):
        U = cluster_unitary(ClusterGraph(np.zeros((3, 3), dtype=int)), np.eye(3))
        np.testing.assert_allclose(U, np.eye(3), atol=1e-14)

    def test_unitary_for_random_graphs(self):
        rng = np.random.default_rng(2)
        for n in range(1, 9):
            for _ in range(5):
                U = cluster_unitary(random_graph(rng, n), random_orthogonal(rng, n))
                assert np.max(np.abs(U @ U.conj().T - np.eye(n))) < 1e-12

    def test_rejects_non_orthogonal_q(self):
        with pytest.raises(ValueError, match="orthogonal"):
            cluster_unitary(ClusterGraph.two_node(), np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestUnitaryToSymplectic:
    def test_identity(self):
        np.testing.assert_array_equal(unitary_to_symplectic(np.eye(2)), np.eye(4))

    def test_single_mode_quarter_turn(self):
        S = unitary_to_symplectic(np.diag([1j, 1.0]))
        expected = embed(phase_rotation(np.pi / 2), [0], 2)
        np.testing.assert_allclose(S, expected, atol=1e-15)

    def test_two_node_factorization(self):
        # the two-node map splits into quarter-turn, beam splitter, back-turn
        U = cluster_unitary(ClusterGraph.two_node(), default_two_node_q())
        S = unitary_to_symplectic(U)
        factored = (embed(phase_rotation(-np.pi / 2), [0], 2)
                    @ symmetric_beam_splitter()
                    @ embed(phase_rotation(np.pi / 2), [0], 2))
        np.testing.assert_allclose(S, factored, atol=1e-14)

    def test_result_symplectic_and_orthogonal(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5):
            U = cluster_unitary(random_graph(rng, n), random_orthogonal(rng, n))
            S = unitary_to_symplectic(U)
            assert is_symplectic(S)
            np.testing.assert_allclose(S @ S.T, np.eye(2 * n), atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary_to_symplectic(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_matches_elementwise_definition(self):
        rng = np.random.default_rng(21)
        unitaries = [cluster_unitary(ClusterGraph.two_node(), default_two_node_q())]
        for n in (1, 2, 5, 40):
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            unitaries.append(np.linalg.qr(z)[0])
            unitaries.append(cluster_unitary(random_graph(rng, n), random_orthogonal(rng, n)))
        for U in unitaries:
            n = U.shape[0]
            expected = np.zeros((2 * n, 2 * n))
            for j in range(n):
                for k in range(n):
                    expected[2 * j, 2 * k] = U[j, k].real
                    expected[2 * j, 2 * k + 1] = -U[j, k].imag
                    expected[2 * j + 1, 2 * k] = U[j, k].imag
                    expected[2 * j + 1, 2 * k + 1] = U[j, k].real
            S = unitary_to_symplectic(U)
            assert np.array_equal(S, expected)
            assert np.array_equal(np.signbit(S), np.signbit(expected))


class TestNullifiers:
    def test_two_node(self):
        n1, n2 = nullifiers(ClusterGraph.two_node())
        assert n1 == y_quad(0) - x_quad(1)
        assert n2 == y_quad(1) - x_quad(0)

    def test_edgeless(self):
        exprs = nullifiers(ClusterGraph(np.zeros((3, 3), dtype=int)))
        assert list(exprs) == [y_quad(0), y_quad(1), y_quad(2)]

    def test_three_chain(self):
        n1, n2, n3 = nullifiers(ClusterGraph.chain(3))
        assert n1 == y_quad(0) - x_quad(1)
        assert n2 == y_quad(1) - x_quad(0) - x_quad(2)
        assert n3 == y_quad(2) - x_quad(1)


class TestSqueezingThreshold:
    def test_two_node_is_one_fourth(self):
        assert min_squeezing_threshold(ClusterGraph.two_node()) == 0.25

    def test_three_chain(self):
        assert min_squeezing_threshold(ClusterGraph.chain(3)) == pytest.approx(0.2)

    def test_four_star(self):
        assert min_squeezing_threshold(ClusterGraph.star(4)) == pytest.approx(1 / 6)

    def test_edgeless_undefined(self):
        with pytest.raises(ValueError, match="threshold undefined"):
            min_squeezing_threshold(ClusterGraph(np.zeros((2, 2), dtype=int)))


class TestGenerateCluster:
    def test_vacuum_sources_fail_criterion(self):
        state = generate_cluster([0.25, 0.25], ClusterGraph.two_node())
        res = vlf_two_node_check(state)
        assert res.nullifier_sum == pytest.approx(1.0, abs=1e-12)
        assert not res.entangled

    def test_sum_tracks_four_v(self):
        # abs tolerance 1e-10: cancellation residue scales with the
        # anti-squeezed variance 1/(16 v), large at the smallest v
        for v in (0.24, 0.125, 0.06, 0.01, 1e-6):
            state = generate_cluster([v, v], ClusterGraph.two_node())
            res = vlf_two_node_check(state)
            assert res.nullifier_sum == pytest.approx(4 * v, abs=1e-10)
            assert res.entangled == (v < 0.125)

    def test_boundary_is_strict(self):
        state = generate_cluster([0.125, 0.125], ClusterGraph.two_node())
        res = vlf_two_node_check(state)
        assert res.nullifier_sum == pytest.approx(0.5, abs=1e-14)
        assert not res.entangled

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError, match="positive"):
            generate_cluster([0.1, 0.0], ClusterGraph.two_node())

    def test_nullifier_variances_independent_of_q(self):
        # equally squeezed sources: any orthogonal freedom leaves the
        # nullifier variance vector unchanged
        rng = np.random.default_rng(4)
        for n in (2, 3, 5):
            graph = ClusterGraph.chain(n)
            v = 0.04
            exprs = nullifiers(graph)
            reference = None
            for _ in range(6):
                q = random_orthogonal(rng, n)
                state = generate_cluster([v] * n, graph, q)
                variances = np.diag(expr_covariance(exprs, state.cov))
                if reference is None:
                    reference = variances
                np.testing.assert_allclose(variances, reference, atol=1e-10)

    def test_nullifier_sum_monotone_in_source_variance(self):
        graph = ClusterGraph.chain(3)
        exprs = nullifiers(graph)

        def total(vs):
            state = generate_cluster(vs, graph, np.eye(3))
            return float(np.trace(expr_covariance(exprs, state.cov)))

        base = [0.05, 0.08, 0.03]
        t0 = total(base)
        for i in range(3):
            bumped = list(base)
            bumped[i] += 0.04
            assert total(bumped) > t0

    def test_vlf_rejects_bad_pair(self):
        state = generate_cluster([0.1, 0.1], ClusterGraph.two_node())
        with pytest.raises(ValueError, match="node pair"):
            vlf_two_node_check(state, (0, 0))
        with pytest.raises(ValueError, match="node pair"):
            vlf_two_node_check(state, (0, 5))

    @pytest.mark.parametrize("pair", [(0.5, 1), (0, 1.0), (0, "1"), (None, 1)])
    def test_vlf_rejects_non_integer_pair(self, pair):
        state = generate_cluster([0.1, 0.1, 0.1], ClusterGraph.chain(3))
        with pytest.raises(ValueError, match="node pair"):
            vlf_two_node_check(state, pair)

    def test_vlf_accepts_numpy_integers(self):
        state = generate_cluster([0.1, 0.05, 0.2], ClusterGraph.chain(3))
        for i, j in ((0, 1), (2, 1)):
            want = vlf_two_node_check(state, (i, j))
            assert vlf_two_node_check(state, (np.int64(i), np.intp(j))) == want
            assert vlf_two_node_check(state, np.array([i, j])) == want

    def test_unitarity_check_can_fail(self, monkeypatch):
        # one eigenvector off by 1e-9 leaves (I + A^2)^(-1/2) non-orthogonal
        # by about 1e-9, far above the 1e-12 unitarity tolerance
        real_eigh = np.linalg.eigh
        calls = []

        def perturbed_eigh(a):
            calls.append(a.shape)
            w, v = real_eigh(a)
            v = v.copy()
            v[:, 1] *= 1 + 1e-9
            return w, v

        graph = ClusterGraph.chain(5)
        vy = [0.1] * 5
        with monkeypatch.context() as patch:
            patch.setattr(cluster_module.np.linalg, "eigh", perturbed_eigh)
            for q in (None, np.eye(5)):
                with pytest.raises(ValueError, match="unitarity check"):
                    generate_cluster(vy, graph, q)
        # a failed fill keeps nothing: each call factorised again, and the
        # same graph object builds its cluster once eigh is restored
        assert len(calls) == 2
        for q in (None, np.eye(5)):
            state = generate_cluster(vy, graph, q)
            want = reference_cov(vy, graph, q)
            assert np.array_equal(state.cov, want)
            assert np.array_equal(np.signbit(state.cov), np.signbit(want))

    def test_rejects_non_orthogonal_q_beyond_two_nodes(self):
        with pytest.raises(ValueError, match="Q is not orthogonal"):
            generate_cluster([0.1] * 5, ClusterGraph.chain(5), q=np.ones((5, 5)))


# Reference versions of the cluster path as plain expression arithmetic,
# full-width products and the earlier formulas (explicit diagonal matrices,
# a product with Q = I, the 2x4 pair-sum rows, one coefficient vector per
# expression); the array code must reproduce them bit for bit.

def reference_edges(graph):
    adj = graph.adjacency
    n = graph.n_nodes
    return [(i, j) for i in range(n) for j in range(i + 1, n) if adj[i, j]]


def reference_threshold(graph):
    return min(1.0 / (2 + graph.degree(i) + graph.degree(j))
               for i, j in reference_edges(graph))


def reference_nullifiers(graph):
    out = []
    for j in range(graph.n_nodes):
        expr = y_quad(j)
        for i in range(graph.n_nodes):
            if graph.adjacency[j, i]:
                expr = expr - x_quad(i)
        out.append(expr)
    return out


def reference_unitary(graph, q=None):
    """U by the earlier arithmetic: the inverse square root through an
    explicit diagonal matrix, then a product with Q even when Q = I."""
    n = graph.n_nodes
    q = np.eye(n) if q is None else q
    adj = graph.adjacency.astype(float)
    w, V = np.linalg.eigh(np.eye(n) + adj @ adj)
    inv_sqrt = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    return (np.eye(n) + 1j * adj) @ inv_sqrt @ q


def reference_cov(vy, graph, q=None):
    n = graph.n_nodes
    if q is None:
        q = default_two_node_q() if n == 2 else np.eye(n)
    d = np.empty(2 * n)
    d[0::2] = [1.0 / (16.0 * v) for v in vy]
    d[1::2] = vy
    S = unitary_to_symplectic(reference_unitary(graph, q))
    return S @ np.diag(d) @ S.T


def reference_expr_covariance(exprs, cov):
    n_modes = cov.shape[0] // 2
    C = np.vstack([e.coefficient_vector(n_modes) for e in exprs])
    return C @ cov @ C.T


def reference_pair_sum(cov, i, j):
    rows = np.array([[0.0, 1.0, -1.0, 0.0], [-1.0, 0.0, 0.0, 1.0]])
    idx = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
    c = rows @ cov[np.ix_(idx, idx)] @ rows.T
    return float(c[0, 0] + c[1, 1])


def assert_matches_reference(graph, q):
    """U, the cluster covariance, the nullifier covariance and every pair
    sum are bit-identical to the reference arithmetic, on each of two calls
    on the same graph: the first may fill what the graph keeps, the second
    reuses it."""
    n = graph.n_nodes
    want_U = reference_unitary(graph, q)
    vy = np.random.default_rng(n).uniform(0.01, 0.2, n).tolist()
    want = reference_cov(vy, graph, q)
    want_null = reference_expr_covariance(reference_nullifiers(graph), want)
    for _ in range(2):
        U = cluster_unitary(graph, q)
        assert np.array_equal(U, want_U)
        if q is not None:
            # the signs of zeros may differ only where the product with I is skipped
            assert np.array_equal(np.signbit(U.real), np.signbit(want_U.real))
            assert np.array_equal(np.signbit(U.imag), np.signbit(want_U.imag))

        state = generate_cluster(vy, graph, q)
        assert np.array_equal(state.cov, want)
        assert np.array_equal(np.signbit(state.cov), np.signbit(want))
        assert np.array_equal(state.mean, np.zeros(2 * n))
        assert not np.any(np.signbit(state.mean))

        got_null = expr_covariance(nullifiers(graph), state.cov)
        assert np.array_equal(got_null, want_null)
        assert np.array_equal(np.signbit(got_null), np.signbit(want_null))
        for i, j in reference_edges(graph):
            assert vlf_two_node_check(state, (i, j)).nullifier_sum == reference_pair_sum(want, i, j)
            assert vlf_two_node_check(state, (j, i)).nullifier_sum == reference_pair_sum(want, j, i)


def reference_graphs():
    rng = np.random.default_rng(1234)
    graphs = [ClusterGraph.two_node()]
    for n in (3, 10, 50, 200):
        graphs += [ClusterGraph.chain(n), ClusterGraph.star(n)]
    for n in (2, 4, 7, 16, 40, 90):
        graphs.append(random_graph(rng, n))
    sparse = np.triu((rng.random((120, 120)) < 0.05).astype(int), 1)
    graphs.append(ClusterGraph(sparse + sparse.T))
    return graphs


@pytest.mark.parametrize("graph", reference_graphs(),
                         ids=lambda g: f"n{g.n_nodes}e{len(reference_edges(g))}")
class TestArrayPathMatchesReference:
    def test_edges(self, graph):
        got = graph.edges()
        assert got == reference_edges(graph)
        assert all(type(i) is int and type(j) is int for i, j in got)

    def test_threshold(self, graph):
        if not reference_edges(graph):
            with pytest.raises(ValueError, match="no edges"):
                min_squeezing_threshold(graph)
            return
        got = min_squeezing_threshold(graph)
        assert type(got) is float
        assert got == reference_threshold(graph)

    # the graphs are shared by the parameter sets, so each test that checks
    # a first call rebuilds its graph from the adjacency

    def test_nullifiers(self, graph):
        graph = ClusterGraph(graph.adjacency)
        want = [e.canonical() for e in reference_nullifiers(graph)]
        for _ in range(2):
            got = nullifiers(graph)
            assert isinstance(got, tuple)
            assert [e.canonical() for e in got] == want

    def test_cluster_covariance_and_pair_sums(self, graph):
        assert_matches_reference(ClusterGraph(graph.adjacency), None)

    def test_random_q_covariance_and_pair_sums(self, graph):
        n = graph.n_nodes
        q = random_orthogonal(np.random.default_rng(n + 1), n)
        assert_matches_reference(ClusterGraph(graph.adjacency), q)

    def test_interleaved_q_covariance_and_pair_sums(self, graph):
        n = graph.n_nodes
        q = random_orthogonal(np.random.default_rng(n + 2), n)
        graph = ClusterGraph(graph.adjacency)
        for each in (None, q, None, q):
            assert_matches_reference(graph, each)


def test_random_orthogonal_freedom_matches_reference():
    rng = np.random.default_rng(77)
    for n in (2, 3, 6, 25):
        graph = random_graph(rng, n)
        q = random_orthogonal(rng, n)
        vy = rng.uniform(0.01, 0.2, n).tolist()
        cov = generate_cluster(vy, graph, q).cov
        want = reference_cov(vy, graph, q)
        assert np.array_equal(cov, want)
        assert np.array_equal(np.signbit(cov), np.signbit(want))


def test_overflowing_y_variance_is_rejected():
    # 16 * vy overflows, so the partner x variance 1 / (16 vy) is zero
    with pytest.raises(ValueError, match="positive"):
        generate_cluster([0.1, 1e308], ClusterGraph.two_node())
