"""Tests for cluster construction, nullifiers, and the inseparability check."""

import dataclasses
import math

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
    vlf_two_node_check,
    _real_form,
)
from cvmbqc.quadrature import (
    LinearQuadratureExpr,
    embed,
    expr_covariance,
    symplectic_residual,
    x_quad,
    y_quad,
)
from test_quadrature import terms


EPS = np.finfo(float).eps


def rotation(angle):
    """Single-mode phase rotation: x + i*y -> (x + i*y) * exp(i*angle)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


#: Two-mode 50/50 beam splitter [[1, 1], [1, -1]]/sqrt(2) on the x pair and
#: on the y pair, in (x1, y1, x2, y2) order.
BEAM_SPLITTER = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]), np.eye(2)) / np.sqrt(2.0)


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

    @pytest.mark.parametrize("text", ["0 1; 1", "0 1; 1 0 0", "0; 1 0"])
    def test_from_text_rejects_ragged_rows(self, text):
        with pytest.raises(ValueError, match="rows have unequal length"):
            ClusterGraph.from_text(text)

    @pytest.mark.parametrize("text", ["0 a; a 0", "0 1.0; 1 0", "0 1; 1 0x"])
    def test_from_text_rejects_non_integer_entries(self, text):
        with pytest.raises(ValueError, match="entries must be the integers 0 or 1"):
            ClusterGraph.from_text(text)


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
        assert terms(nullifiers(graph)[:1]) == [({1: 1.0, 2: -1.0}, {}, 0.0)]

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

    def test_edges_are_a_new_list_on_each_call(self):
        graph = ClusterGraph.chain(3)
        edges = graph.edges()
        edges[0] = (0, 2)
        edges.append((1, 2))
        assert graph.edges() == [(0, 1), (1, 2)]
        assert graph.edges() is not graph.edges()

    def test_edgeless_graph_raises_on_every_call_and_keeps_nothing(self):
        graph = ClusterGraph(np.zeros((3, 3), dtype=int))
        for _ in range(2):
            with pytest.raises(ValueError, match="no edges"):
                min_squeezing_threshold(graph)
        assert "_min_squeezing_threshold" not in vars(graph)
        assert graph.edges() == []

    def test_pair_check_result_refuses_assignment(self):
        res = vlf_two_node_check(generate_cluster([0.05, 0.05], ClusterGraph.two_node()))
        for name, value in (("nullifier_sum", 0.0), ("entangled", False)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(res, name, value)
        assert res.entangled is True
        assert not hasattr(res, "__dict__")

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


class TestRealForm:
    """``cluster._real_form``, the real form the cluster covariance and the
    covariance oracle build on."""

    def test_identity(self):
        np.testing.assert_array_equal(_real_form(np.eye(2, dtype=complex)), np.eye(4))

    def test_single_mode_quarter_turn(self):
        S = _real_form(np.diag([1j, 1.0]))
        expected = embed(rotation(np.pi / 2), [0], 2)
        np.testing.assert_allclose(S, expected, atol=1e-15)

    def test_two_node_factorization(self):
        # the two-node map splits into quarter-turn, beam splitter, back-turn
        U = cluster_unitary(ClusterGraph.two_node(), default_two_node_q())
        S = _real_form(U)
        factored = (embed(rotation(-np.pi / 2), [0], 2)
                    @ BEAM_SPLITTER
                    @ embed(rotation(np.pi / 2), [0], 2))
        np.testing.assert_allclose(S, factored, atol=1e-14)

    def test_result_symplectic_and_orthogonal(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5):
            U = cluster_unitary(random_graph(rng, n), random_orthogonal(rng, n))
            S = _real_form(U)
            assert symplectic_residual(S) < 1e-12
            np.testing.assert_allclose(S @ S.T, np.eye(2 * n), atol=1e-12)

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
            S = _real_form(U)
            assert np.array_equal(S, expected)
            assert np.array_equal(S, reference_real_form(U))
            assert np.array_equal(np.signbit(S), np.signbit(expected))


class TestNullifiers:
    def test_two_node(self):
        assert terms(nullifiers(ClusterGraph.two_node())) == [
            ({1: 1.0, 2: -1.0}, {}, 0.0), ({3: 1.0, 0: -1.0}, {}, 0.0)]

    def test_edgeless(self):
        exprs = nullifiers(ClusterGraph(np.zeros((3, 3), dtype=int)))
        assert terms(exprs) == terms([y_quad(0), y_quad(1), y_quad(2)])

    def test_three_chain(self):
        assert terms(nullifiers(ClusterGraph.chain(3))) == [
            ({1: 1.0, 2: -1.0}, {}, 0.0),
            ({3: 1.0, 0: -1.0, 4: -1.0}, {}, 0.0),
            ({5: 1.0, 2: -1.0}, {}, 0.0)]


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
        # (0, 2) names a covariance row of the state but no third node
        for pair in ((0, 0), (0, 5), (0, 2), (-1, 0)):
            with pytest.raises(ValueError, match="node pair"):
                vlf_two_node_check(state, pair)

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
    degree = [int(row.sum()) for row in graph.adjacency]
    return min(1.0 / (2 + degree[i] + degree[j]) for i, j in reference_edges(graph))


def reference_nullifiers(graph):
    """y_j minus the x of each neighbour i of j, as coefficient maps."""
    out = []
    for j in range(graph.n_nodes):
        coeffs = {2 * j + 1: 1.0}
        for i in range(graph.n_nodes):
            if graph.adjacency[j, i]:
                coeffs[2 * i] = -1.0
        out.append(LinearQuadratureExpr(coeffs))
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


def reference_real_form(U):
    """The real form X' = Re(U) X - Im(U) Y, Y' = Im(U) X + Re(U) Y, built
    in block order (all x, then all y) and permuted to the interleaved
    (x_j, y_j) column order."""
    n = U.shape[0]
    blocks = np.block([[U.real, -U.imag], [U.imag, U.real]])
    order = np.arange(2 * n).reshape(2, n).T.ravel()
    return blocks[np.ix_(order, order)]


def reference_factors(vy, graph, q=None):
    """S, the real form of the reference U, and the interleaved source
    variances d of ``generate_cluster``'s defaults."""
    n = graph.n_nodes
    if q is None:
        q = default_two_node_q() if n == 2 else np.eye(n)
    d = np.empty(2 * n)
    d[0::2] = [1.0 / (16.0 * v) for v in vy]
    d[1::2] = vy
    return reference_real_form(reference_unitary(graph, q)), d


def reference_cov(vy, graph, q=None):
    """The symmetric product B B^T with B = S diag(sqrt(d)) through an
    explicit diagonal matrix."""
    S, d = reference_factors(vy, graph, q)
    B = S @ np.diag(np.sqrt(d))
    return B @ B.T


def dense_cov(vy, graph, q=None):
    """The general product S diag(d) S^T, the textbook form of the state."""
    S, d = reference_factors(vy, graph, q)
    return S @ np.diag(d) @ S.T


def reference_expr_covariance(exprs, cov):
    C = np.zeros((len(exprs), cov.shape[0]))
    for row, e in zip(C, exprs):
        for col, c in e.coeffs.items():
            row[col] = c
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

    def test_edges_on_first_and_second_call(self, graph):
        graph = ClusterGraph(graph.adjacency)
        want = reference_edges(graph)
        for _ in range(2):
            got = graph.edges()
            assert got == want
            assert all(type(i) is int and type(j) is int for i, j in got)

    def test_threshold_on_first_and_second_call(self, graph):
        graph = ClusterGraph(graph.adjacency)
        want = reference_threshold(graph)
        for _ in range(2):
            got = min_squeezing_threshold(graph)
            assert type(got) is float
            assert got == want

    def test_nullifiers(self, graph):
        graph = ClusterGraph(graph.adjacency)
        want = terms(reference_nullifiers(graph))
        for _ in range(2):
            got = nullifiers(graph)
            assert isinstance(got, tuple)
            assert terms(got) == want

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

    @staticmethod
    def states(graph):
        """(vy, q, covariance) at the default Q and at a random orthogonal Q."""
        n = graph.n_nodes
        vy = np.random.default_rng(n).uniform(0.01, 0.2, n).tolist()
        for q in (None, random_orthogonal(np.random.default_rng(n + 3), n)):
            yield vy, q, generate_cluster(vy, graph, q).cov

    def test_covariance_is_exactly_symmetric(self, graph):
        for _, _, cov in self.states(graph):
            assert np.array_equal(cov, cov.T)
            assert np.array_equal(np.signbit(cov), np.signbit(cov.T))

    def test_covariance_is_the_dense_product_to_rounding(self, graph):
        for vy, q, cov in self.states(graph):
            scale = np.max(np.abs(cov))
            assert np.max(np.abs(cov - dense_cov(vy, graph, q))) <= 16 * EPS * scale


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
