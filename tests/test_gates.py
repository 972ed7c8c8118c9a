"""Tests for measurement-step gates, feed-forward, phase solving, and the
two-mode entangling construction."""

import math

import numpy as np
import pytest

from cvmbqc.gates import (
    CZ_MATRIX,
    PHASE_RESIDUAL_TOL,
    DegenerateHomodynePhasesError,
    HomodyneSetting,
    PhaseSolveError,
    TwoModeCoefficients,
    TwoNodeCluster,
    canonical_cz_coefficients,
    cluster_node_exprs,
    condition_homodyne,
    cz_transform,
    feed_forward,
    gate_matrix,
    output_covariance,
    protocol_gains,
    run_steps,
    sample_currents,
    single_step_covariance_oracle,
    solve_phases,
    step_joint_state,
)
from cvmbqc.runner import STEP_ORACLE_TOL
from cvmbqc.quadrature import (
    GaussianState,
    LinearQuadratureExpr,
    omega_matrix,
    phase_rotation,
    x_quad,
    y_quad,
)


def random_setting(rng, beta_0=1e6):
    while True:
        tin, t1 = rng.uniform(0.05, 3.1, size=2)
        if abs(math.sin(tin - t1)) > 0.05:
            return HomodyneSetting(tin, t1, beta_0)


def random_input_cov(rng):
    a, b = rng.uniform(0.1, 2.0, size=2)
    c = rng.uniform(-0.9, 0.9) * math.sqrt(a * b)
    cov = np.array([[a, c], [c, b]])
    if np.linalg.det(cov) < 1 / 16:
        cov += np.eye(2) * (0.25 + 1 / (4 * math.sqrt(min(a, b))))
    return cov


def chain_settings(rng, k, wide=False):
    """theta+ ~ U(-pi, pi); theta- = pi/2 + U(-0.3, 0.3), or U(0.3, 2.8) if wide."""
    tp = rng.uniform(-math.pi, math.pi, k)
    tm = rng.uniform(0.3, 2.8, k) if wide else math.pi / 2 + rng.uniform(-0.3, 0.3, k)
    return [HomodyneSetting((p + m) / 2, (p - m) / 2) for p, m in zip(tp, tm)]


def assert_columns(out, m, k):
    """A k-step output from input mode m spans covariance columns 2m to
    2m + 4k + 1: the input pair, then the sources of every step."""
    assert out.input_mode == m and len(out.settings) == k
    assert out.quadrature_rows().shape == (2, 4 * k + 2)
    for e in out.exprs:
        assert all(2 * m <= c < 2 * m + 4 * k + 2 for c in e.coeffs)


class TestGateMatrix:
    def test_quarter_quarter_is_rotation(self):
        M = gate_matrix(math.pi / 2, math.pi / 2)
        np.testing.assert_allclose(M, [[0, 1], [-1, 0]], atol=1e-15)

    def test_zero_quarter_is_identity(self):
        M = gate_matrix(0.0, math.pi / 2)
        np.testing.assert_allclose(M, np.eye(2), atol=1e-15)

    def test_determinant_one_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            tp = rng.uniform(-math.pi, math.pi)
            tm = rng.uniform(0.05, math.pi - 0.05) * rng.choice([-1, 1])
            assert abs(np.linalg.det(gate_matrix(tp, tm)) - 1.0) < 1e-12

    def test_degenerate_phases_rejected(self):
        with pytest.raises(DegenerateHomodynePhasesError, match="degenerate"):
            gate_matrix(1.0, 0.0)
        with pytest.raises(DegenerateHomodynePhasesError):
            gate_matrix(1.0, math.pi)

    def test_rotation_squeeze_rotation_form(self):
        # M(tp, tm) = R(-tp/2) diag(a, 1/a) R(-tp/2) with a = cot(tm/2)
        rng = np.random.default_rng(2)
        for _ in range(50):
            tp = rng.uniform(-math.pi, math.pi)
            tm = rng.uniform(0.1, math.pi - 0.1)
            a = 1.0 / math.tan(tm / 2.0)
            c, s = math.cos(-tp / 2), math.sin(-tp / 2)
            R = np.array([[c, -s], [s, c]])
            np.testing.assert_allclose(
                gate_matrix(tp, tm), R @ np.diag([a, 1 / a]) @ R, atol=1e-12)


class TestSingleStep:
    def test_operator_identity(self):
        # with the photocurrents resolved into their defining operators
        # (current = 2 beta0 quadrature), the output is the surviving
        # cluster node exactly
        rng = np.random.default_rng(3)
        for _ in range(20):
            setting = random_setting(rng, beta_0=rng.uniform(0.5, 50.0))
            cluster = TwoNodeCluster.from_y_variances(*rng.uniform(0.01, 0.12, 2))
            out = run_steps((x_quad(0), y_quad(0)), (cluster,), (setting,))
            assert_columns(out, 0, 1)
            _, (X2, Y2) = cluster_node_exprs((1, 2))
            R = out.measured_rows
            full = out.quadrature_rows() + (out.classical * 2.0 * setting.beta_0) @ R
            ref = np.vstack([e.coefficient_vector(3) for e in (X2, Y2)])
            assert np.max(np.abs(full - ref)) <= 1e-12
            assert not np.any(out.measured_offset) and not np.any(out.offset)

    @staticmethod
    def assert_rows_follow_the_nodes(out, settings):
        """Step j measures the difference and sum ports of (its input,
        node 1 of cluster j), its input being node 2 of cluster j - 1; each
        row equals its port to 1e-14 and has at most 8 nonzero columns.
        Returns node 2 of the last cluster, the chain's output with every
        current = 2 beta0 quadrature."""
        n_modes = 1 + 2 * len(settings)
        R = out.measured_rows
        assert R.shape == (2 * len(settings), 2 * n_modes)
        assert np.all(np.count_nonzero(R, axis=1) <= 8)
        assert not np.any(out.measured_offset)
        h = 1.0 / math.sqrt(2.0)
        x, y = x_quad(0), y_quad(0)
        for j, setting in enumerate(settings):
            # step j's sources are modes m + 1 + 2j and m + 2 + 2j, m = 0
            (X1, Y1), (X2, Y2) = cluster_node_exprs((1 + 2 * j, 2 + 2 * j))
            cin, sin_ = math.cos(setting.theta_in), math.sin(setting.theta_in)
            c1, s1 = math.cos(setting.theta_1), math.sin(setting.theta_1)
            ports = (h * (cin * (X1 - x) + sin_ * (Y1 - y)),
                     h * (c1 * (X1 + x) + s1 * (Y1 + y)))
            for row, port in zip(R[2 * j:2 * j + 2], ports):
                assert np.max(np.abs(row - port.coefficient_vector(n_modes))) <= 1e-14
            x, y = X2, Y2
        return np.vstack([x.coefficient_vector(n_modes), y.coefficient_vector(n_modes)])

    def test_resolved_rows_follow_the_cluster_nodes(self):
        rng = np.random.default_rng(14)
        settings = [random_setting(rng, beta_0=rng.uniform(0.5, 50.0)) for _ in range(3)]
        clusters = [TwoNodeCluster.from_y_variances(*rng.uniform(0.01, 0.12, 2))
                    for _ in range(3)]
        out = run_steps((x_quad(0), y_quad(0)), clusters, settings)
        assert_columns(out, 0, 3)
        ref = self.assert_rows_follow_the_nodes(out, settings)
        two_beta = 2.0 * np.repeat([s.beta_0 for s in settings], 2)
        full = out.quadrature_rows() + (out.classical * two_beta) @ out.measured_rows
        assert np.max(np.abs(full - ref)) <= 1e-12

    def test_input_offset_reaches_only_the_first_ports(self):
        # later steps measure cluster nodes, which carry no offset; with the
        # currents resolved, the offset the output carries is cancelled
        rng = np.random.default_rng(16)
        settings = [random_setting(rng, beta_0=rng.uniform(0.5, 50.0)) for _ in range(3)]
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.07)
        shifted = (x_quad(0) + LinearQuadratureExpr(offset=0.3),
                   y_quad(0) + LinearQuadratureExpr(offset=-1.1))
        out = run_steps(shifted, [cluster] * 3, settings)
        s = settings[0]
        h = 1.0 / math.sqrt(2.0)
        ports = (-h * (math.cos(s.theta_in) * 0.3 - math.sin(s.theta_in) * 1.1),
                 h * (math.cos(s.theta_1) * 0.3 - math.sin(s.theta_1) * 1.1))
        assert np.max(np.abs(out.measured_offset[:2] - ports)) <= 1e-15
        assert not np.any(out.measured_offset[2:])
        np.testing.assert_allclose(out.offset, out.signal_matrix @ [0.3, -1.1], rtol=1e-15)
        two_beta = 2.0 * np.repeat([s.beta_0 for s in settings], 2)
        resolved = out.offset + (out.classical * two_beta) @ out.measured_offset
        assert np.max(np.abs(resolved)) <= 1e-12

    @pytest.mark.parametrize("seed", range(100, 104))
    @pytest.mark.parametrize("k", [3, 16, 48, 64])
    def test_rows_follow_the_cluster_nodes_at_wide_angles(self, k, seed):
        # wide angles make the gates, and so any row built by cancelling
        # propagated current terms, grow far past 1
        rng = np.random.default_rng(seed)
        settings = [HomodyneSetting(s.theta_in, s.theta_1, rng.uniform(0.5, 50.0))
                    for s in chain_settings(rng, k, wide=True)]
        clusters = [TwoNodeCluster.from_y_variances(*rng.uniform(0.01, 0.12, 2))
                    for _ in range(k)]
        out = run_steps((x_quad(0), y_quad(0)), clusters, settings)
        assert_columns(out, 0, k)
        ref = self.assert_rows_follow_the_nodes(out, settings)
        # the output's current terms grow with the gates, so this identity
        # is checked relative to their size
        carried = out.classical * 2.0 * np.repeat([s.beta_0 for s in settings], 2)
        full = out.quadrature_rows() + carried @ out.measured_rows
        assert np.max(np.abs(full - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(carried))))

    def test_ideal_cluster_covariance(self):
        setting = HomodyneSetting(0.9, 0.2)
        cluster = TwoNodeCluster.from_y_variances(1e-13, 1e-13)
        out = run_steps((x_quad(0), y_quad(0)), (cluster,), (setting,))
        cov_in = np.diag([0.4, 0.3])
        M = out.signal_matrix
        engine = output_covariance(out, {0: cov_in})
        np.testing.assert_allclose(engine, M @ cov_in @ M.T, atol=1e-10)

    def test_noise_floor_law(self):
        # output covariance = M Sigma M^T + 2v identity for equal variances
        rng = np.random.default_rng(4)
        for _ in range(25):
            v = rng.uniform(0.005, 0.12)
            setting = random_setting(rng)
            cluster = TwoNodeCluster.from_y_variances(v, v)
            cov_in = random_input_cov(rng)
            out = run_steps((x_quad(0), y_quad(0)), (cluster,), (setting,))
            M = out.signal_matrix
            law = M @ cov_in @ M.T + 2.0 * v * np.eye(2)
            engine = output_covariance(out, {0: cov_in})
            assert np.max(np.abs(engine - law)) < 1e-10

    def test_excess_noise_invariance(self):
        setting = HomodyneSetting(1.1, 0.4)
        cov_in = np.diag([0.7, 0.2])
        covs = []
        for factor in (1.0, 100.0):
            cluster = TwoNodeCluster.from_y_variances(0.05, 0.08, factor)
            out = run_steps((x_quad(0), y_quad(0)), (cluster,), (setting,))
            covs.append(output_covariance(out, {0: cov_in}))
        assert np.max(np.abs(covs[0] - covs[1])) < 1e-10

    def test_classical_term_scales_inversely_with_beta(self):
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        small = run_steps((x_quad(0), y_quad(0)), (cluster,),
                          (HomodyneSetting(0.9, 0.2, beta_0=1.0),))
        large = run_steps((x_quad(0), y_quad(0)), (cluster,),
                          (HomodyneSetting(0.9, 0.2, beta_0=1e9),))
        for lo, hi in zip(small.exprs, large.exprs):
            assert max(abs(c) for c in hi.symbols.values()) < \
                1e-8 * max(abs(c) for c in lo.symbols.values())

    def test_unentangled_cluster_rejected_then_warned(self):
        cluster = TwoNodeCluster.from_y_variances(0.2, 0.2)  # sum 0.8 >= 0.5
        with pytest.raises(ValueError, match="not entangled"):
            run_steps((x_quad(0), y_quad(0)), (cluster,), (HomodyneSetting(0.9, 0.2),))
        with pytest.warns(UserWarning, match="unentangled"):
            run_steps((x_quad(0), y_quad(0)), (cluster,), (HomodyneSetting(0.9, 0.2),),
                      allow_unentangled=True)
        # keyword-only, so a stray fourth argument cannot switch the check off
        with pytest.raises(TypeError):
            run_steps((x_quad(0), y_quad(0)), (cluster,), (HomodyneSetting(0.9, 0.2),), True)

    def test_degenerate_setting_rejected(self):
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        with pytest.raises(DegenerateHomodynePhasesError):
            run_steps((x_quad(0), y_quad(0)), (cluster,), (HomodyneSetting(0.7, 0.7),))

    def test_source_mode_allocation(self):
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        setting = HomodyneSetting(0.9, 0.2)
        shifted = (x_quad(3) + LinearQuadratureExpr(offset=0.3),
                   y_quad(3) + LinearQuadratureExpr(offset=-1.1))
        out = run_steps(shifted, (cluster,), (setting,))
        assert_columns(out, 3, 1)
        # the sources are modes 4 and 5; the step adds -sqrt(2) y4 to X_out
        # and -sqrt(2) y5 to Y_out, columns 9 and 11
        x_out, y_out = out.exprs
        assert {c: v for c, v in x_out.coeffs.items() if c >= 8} == {9: -math.sqrt(2)}
        assert {c: v for c, v in y_out.coeffs.items() if c >= 8} == {11: -math.sqrt(2)}
        np.testing.assert_allclose(out.offset, out.signal_matrix @ [0.3, -1.1], rtol=1e-15)
        # the input block is read at the input's own mode
        cov_in = np.diag([0.4, 0.3])
        at_zero = run_steps((x_quad(0), y_quad(0)), (cluster,), (setting,))
        assert np.array_equal(output_covariance(out, {3: cov_in}),
                              output_covariance(at_zero, {0: cov_in}))

    def test_current_names(self):
        # the names are the keys of the sampling records
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        setting = HomodyneSetting(0.9, 0.2)
        one = run_steps((x_quad(0), y_quad(0)), (cluster,), (setting,))
        assert one.current_names == ("i_in", "i_1")
        three = run_steps((x_quad(0), y_quad(0)), [cluster] * 3, [setting] * 3)
        assert three.current_names == ("i_in[1]", "i_1[1]", "i_in[2]", "i_1[2]",
                                       "i_in[3]", "i_1[3]")

    @pytest.mark.parametrize("pair", [
        (2.0 * x_quad(0), y_quad(0)),
        (x_quad(0), y_quad(1)),
        (x_quad(0) + x_quad(1), y_quad(0)),
        (y_quad(0), x_quad(0)),
    ], ids=["scaled", "two-modes", "mixed", "swapped"])
    def test_input_must_be_one_modes_pair(self, pair):
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        with pytest.raises(ValueError, match=r"the \(x, y\) pair of one mode m"):
            run_steps(pair, (cluster,), (HomodyneSetting(0.9, 0.2),))

    def test_feed_forwarded_output_is_not_an_input(self):
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        setting = HomodyneSetting(0.9, 0.2)
        out = run_steps((x_quad(0), y_quad(0)), (cluster,), (setting,))
        corrected = feed_forward(out, {name: 0.5 for name in out.current_names})
        with pytest.raises(ValueError, match=r"the \(x, y\) pair of one mode m"):
            run_steps(corrected.exprs, (cluster,), (setting,))

    def test_rejects_used_source_modes_and_symbolic_input(self):
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        setting = HomodyneSetting(0.9, 0.2)
        out = run_steps((x_quad(0), y_quad(0)), (cluster,), (setting,))
        with pytest.raises(ValueError, match="photocurrent symbols"):
            run_steps(out.exprs, (cluster,), (setting,))

    def test_expression_views_match_the_arrays(self):
        rng = np.random.default_rng(15)
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.07)
        out = run_steps((x_quad(0), y_quad(0)), [cluster] * 2,
                        [random_setting(rng) for _ in range(2)])
        n_modes = 5
        for expr, row, cur in zip(out.exprs, out.quadrature_rows(), out.classical):
            assert np.array_equal(expr.coefficient_vector(n_modes), row)
            assert expr.symbols == {n: c for n, c in zip(out.current_names, cur) if c}
        # the first step sees the input and the sources of step 1 (modes 0-2);
        # the second sees the 8 source columns of steps 1 and 2, and only those
        support = [set(np.flatnonzero(row).tolist()) for row in out.measured_rows]
        assert support[0] == support[1] == set(range(6))
        assert support[2] == support[3] == set(range(2, 10))


class TestConditioningOracle:
    def test_uncorrelated_vacuum_leaves_kept_unchanged(self):
        state = GaussianState.squeezed_vacuum([(0.25, 0.25), (0.7, 0.09)])
        cond = condition_homodyne(state, {0: 0.3})
        np.testing.assert_allclose(cond.state.cov, np.diag([0.7, 0.09]), atol=1e-14)

    def test_ideal_cluster_nullifier_determinism(self):
        # measuring X of node 1 pins Y of node 2 when the sources are
        # strongly squeezed (the nullifier variance vanishes)
        from cvmbqc.cluster import ClusterGraph, generate_cluster
        v = 1e-10
        state = generate_cluster([v, v], ClusterGraph.two_node())
        cond = condition_homodyne(state, {0: 0.0})  # angle 0: measure X
        var_y2 = cond.state.cov[1, 1]
        assert var_y2 < 1e-8

    def test_rejects_bad_inputs(self):
        state = GaussianState.vacuum(2)
        with pytest.raises(ValueError, match="no measured"):
            condition_homodyne(state, {})
        with pytest.raises(ValueError, match="no kept"):
            condition_homodyne(state, {0: 0.0, 1: 0.0})
        zero_var = GaussianState(np.zeros(4), np.diag([0.25, 0.25, 0.0, 0.25]))
        with pytest.raises(ValueError, match="ill-conditioned"):
            condition_homodyne(zero_var, {1: 0.0})

    def test_outcome_shifts_mean(self):
        from cvmbqc.cluster import ClusterGraph, generate_cluster
        state = generate_cluster([0.01, 0.01], ClusterGraph.two_node())
        cond = condition_homodyne(state, {0: 0.0}, outcomes={0: 0.5})
        assert cond.state.mean.shape == (2,)
        assert abs(cond.state.mean[1]) > 0  # correlated quadrature moved

    def test_engine_matches_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            setting = random_setting(rng)
            cluster = TwoNodeCluster.from_y_variances(
                rng.uniform(0.005, 0.12), rng.uniform(0.005, 0.12),
                rng.uniform(1.0, 20.0))
            cov_in = random_input_cov(rng)
            out = run_steps((x_quad(0), y_quad(0)), (cluster,), (setting,))
            engine = output_covariance(out, {0: cov_in})
            oracle = single_step_covariance_oracle(cov_in, cluster, setting)
            assert np.max(np.abs(engine - oracle)) < 1e-9

    def test_oracle_independent_of_excess_noise(self):
        setting = HomodyneSetting(0.8, 1.7)
        cov_in = random_input_cov(np.random.default_rng(6))
        results = []
        for factor in (1.0, 100.0):
            cluster = TwoNodeCluster.from_y_variances(0.03, 0.07, factor)
            results.append(single_step_covariance_oracle(cov_in, cluster, setting))
        assert np.max(np.abs(results[0] - results[1])) < 1e-10

    def test_joint_state_is_valid(self):
        from cvmbqc.quadrature import check_uncertainty
        state = step_joint_state(np.diag([0.25, 0.25]),
                                 TwoNodeCluster.from_y_variances(0.05, 0.05))
        assert check_uncertainty(state.cov).satisfied


def reference_condition_homodyne(state, measured_angles, outcomes=None):
    """Conditioning as first written: 0/1 selection products, an eigvalsh
    screen and numpy's pinv, two decompositions of the measured block."""
    n = state.n_modes
    measured_modes = tuple(sorted(measured_angles))
    kept_modes = tuple(m for m in range(n) if m not in measured_angles)
    P = np.zeros((len(measured_modes), 2 * n))
    for row, mode in enumerate(measured_modes):
        angle = float(measured_angles[mode])
        P[row, 2 * mode] = math.cos(angle)
        P[row, 2 * mode + 1] = math.sin(angle)
    kept_idx = [i for m in kept_modes for i in (2 * m, 2 * m + 1)]
    K = np.zeros((len(kept_idx), 2 * n))
    for row, idx in enumerate(kept_idx):
        K[row, idx] = 1.0
    sigma_mm = P @ state.cov @ P.T
    if np.min(np.linalg.eigvalsh(sigma_mm)) < 1e-14:
        raise ValueError("ill-conditioned measured variance (< 1e-14)")
    sigma_km = K @ state.cov @ P.T
    gain = sigma_km @ np.linalg.pinv(sigma_mm, hermitian=True)
    cov_cond = K @ state.cov @ K.T - gain @ sigma_km.T
    cov_cond = 0.5 * (cov_cond + cov_cond.T)
    mean_kept = state.mean[kept_idx]
    if outcomes is not None:
        m_vals = np.array([float(outcomes[m]) for m in measured_modes])
        mean_kept = mean_kept + gain @ (m_vals - P @ state.mean)
    return GaussianState(mean_kept, cov_cond), kept_modes, measured_modes, gain, sigma_mm


def assert_rel_close(actual, expected, rel=1e-12):
    """max |actual - expected| <= rel * max |expected| (or rel when that is 0)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1.0e-300)
    assert float(np.max(np.abs(actual - expected), initial=0.0)) <= rel * max(scale, 1.0)


class TestConditioningAgainstReference:
    """One eigendecomposition and index selection vs the two-decomposition form."""

    @staticmethod
    def random_state(rng, n):
        A = rng.normal(size=(2 * n, 2 * n))
        cov = A @ A.T / (2 * n) + rng.uniform(0.05, 0.5) * np.eye(2 * n)
        return GaussianState(rng.normal(size=2 * n), cov)

    def assert_matches(self, state, angles, outcomes=None):
        ref_state, kept, measured, ref_gain, ref_mm = reference_condition_homodyne(
            state, angles, outcomes)
        cond = condition_homodyne(state, angles, outcomes)
        assert cond.kept_modes == kept and cond.measured_modes == measured
        assert_rel_close(cond.state.cov, ref_state.cov)
        assert_rel_close(cond.state.mean, ref_state.mean)
        assert_rel_close(cond.bayes_gain, ref_gain)
        assert_rel_close(cond.measured_cov, ref_mm)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_states_and_subsets(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            state = self.random_state(rng, n)
            size = int(rng.integers(1, n))
            modes = rng.choice(n, size=size, replace=False).tolist()
            angles = {m: float(rng.uniform(-math.pi, math.pi)) for m in modes}
            outcomes = {m: float(rng.normal()) for m in modes}
            self.assert_matches(state, angles)
            self.assert_matches(state, angles, outcomes)

    def test_oracle_joint_states(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            setting = random_setting(rng)
            cluster = TwoNodeCluster.from_y_variances(
                *rng.uniform(0.005, 0.12, 2), rng.uniform(1.0, 20.0))
            state = step_joint_state(random_input_cov(rng), cluster)
            self.assert_matches(state, {0: setting.theta_in, 1: setting.theta_1})

    @staticmethod
    def diagonal_block_state(small, large=1.0, coupling=0.0):
        """Modes 0 and 1 measured at angle 0 see Sigma_mm = diag(large, small)
        exactly; ``coupling`` correlates x_1 with the kept x_2."""
        cov = np.diag([large, 0.25, small, 0.25, 0.5, 0.5])
        cov[2, 4] = cov[4, 2] = coupling
        return GaussianState(np.zeros(6), cov)

    @pytest.mark.parametrize("small,rejected", [(0.5e-14, True), (1e-14, False),
                                                (2e-14, False)])
    def test_screen_verdict_at_the_edge(self, small, rejected):
        state = self.diagonal_block_state(small)
        angles = {0: 0.0, 1: 0.0}
        verdicts = []
        for fn in (reference_condition_homodyne, condition_homodyne):
            try:
                fn(state, angles)
                verdicts.append(False)
            except ValueError as exc:
                assert "ill-conditioned" in str(exc)
                verdicts.append(True)
        assert verdicts == [rejected, rejected]
        if not rejected:
            self.assert_matches(state, angles)

    def test_pinv_cutoff_zeroes_small_eigenvalue(self):
        # 5e-14 passes the 1e-14 screen but lies below 1e-15 * 100, so the
        # pseudo-inverse drops it: the kept x_2 learns nothing from x_1,
        # where a plain inverse would give it a gain of 1e-14 / 5e-14
        state = self.diagonal_block_state(5e-14, large=100.0, coupling=1e-14)
        angles = {0: 0.0, 1: 0.0}
        cond = condition_homodyne(state, angles)
        assert np.all(cond.bayes_gain[:, 1] == 0.0)
        self.assert_matches(state, angles, outcomes={0: 0.3, 1: -2.0})
        # just above the cutoff the direction is inverted, by both
        state = self.diagonal_block_state(2e-13, large=100.0, coupling=1e-14)
        cond = condition_homodyne(state, angles)
        assert cond.bayes_gain[0, 1] == pytest.approx(0.05, rel=1e-12)
        self.assert_matches(state, angles)


class TestFeedForward:
    def _output(self):
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        return run_steps((x_quad(0), y_quad(0)), (cluster,),
                         (HomodyneSetting(0.9, 0.2, beta_0=3.0),))

    def test_offsets_become_exactly_zero(self):
        out = self._output()
        currents = {name: 1.7 for name in out.current_names}
        corrected = feed_forward(out, currents)
        for e in corrected.exprs:
            assert e.offset == 0.0 and not e.symbols

    def test_quantum_parts_untouched(self):
        out = self._output()
        currents = {name: -4.0 for name in out.current_names}
        corrected = feed_forward(out, currents)
        for before, after in zip(out.exprs, corrected.exprs):
            assert before.coeffs == after.coeffs
        assert np.array_equal(out.noise, corrected.noise)
        assert not np.any(corrected.classical) and not np.any(corrected.offset)

    def test_idempotent(self):
        out = self._output()
        currents = {name: 0.3 for name in out.current_names}
        once = feed_forward(out, currents)
        twice = feed_forward(once, {})
        assert once.exprs == twice.exprs

    def test_missing_current_rejected(self):
        out = self._output()
        with pytest.raises(ValueError, match="missing measured currents"):
            feed_forward(out, {})


class TestCompose:
    def test_identity_twice(self):
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        ident = HomodyneSetting(math.pi / 4, -math.pi / 4)  # tp = 0, tm = pi/2
        out = run_steps((x_quad(0), y_quad(0)), (cluster, cluster), (ident, ident))
        np.testing.assert_allclose(out.signal_matrix, np.eye(2), atol=1e-14)

    def test_quarter_rotation_squared(self):
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        quarter = HomodyneSetting(math.pi / 2, 0.0)  # tp = tm = pi/2
        out = run_steps((x_quad(0), y_quad(0)), (cluster, cluster), (quarter, quarter))
        np.testing.assert_allclose(out.signal_matrix, -np.eye(2), atol=1e-14)

    def test_ideal_clusters_covariance(self):
        rng = np.random.default_rng(7)
        cluster = TwoNodeCluster.from_y_variances(1e-13, 1e-13)
        s1, s2 = random_setting(rng), random_setting(rng)
        cov_in = random_input_cov(rng)
        out = run_steps((x_quad(0), y_quad(0)), (cluster, cluster), (s1, s2))
        M = out.signal_matrix
        engine = output_covariance(out, {0: cov_in})
        np.testing.assert_allclose(engine, M @ cov_in @ M.T, atol=1e-9)

    def test_noise_accumulates_through_second_gate(self):
        rng = np.random.default_rng(8)
        v1, v2 = 0.04, 0.09
        c1 = TwoNodeCluster.from_y_variances(v1, v1)
        c2 = TwoNodeCluster.from_y_variances(v2, v2)
        s1, s2 = random_setting(rng), random_setting(rng)
        cov_in = random_input_cov(rng)
        out = run_steps((x_quad(0), y_quad(0)), (c1, c2), (s1, s2))
        M2 = gate_matrix(s2.theta_plus, s2.theta_minus)
        law = (out.signal_matrix @ cov_in @ out.signal_matrix.T
               + 2.0 * v1 * (M2 @ M2.T) + 2.0 * v2 * np.eye(2))
        engine = output_covariance(out, {0: cov_in})
        assert np.max(np.abs(engine - law)) < 1e-10

    def test_matches_chained_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            c1 = TwoNodeCluster.from_y_variances(*rng.uniform(0.01, 0.12, 2))
            c2 = TwoNodeCluster.from_y_variances(*rng.uniform(0.01, 0.12, 2))
            s1, s2 = random_setting(rng), random_setting(rng)
            cov_in = random_input_cov(rng)
            out = run_steps((x_quad(0), y_quad(0)), (c1, c2), (s1, s2))
            engine = output_covariance(out, {0: cov_in})
            oracle = single_step_covariance_oracle(
                single_step_covariance_oracle(cov_in, c1, s1), c2, s2)
            assert np.max(np.abs(engine - oracle)) < 1e-9

    def test_compose_noise_independent_of_excess_factor(self):
        s1, s2 = HomodyneSetting(0.9, 0.2), HomodyneSetting(1.4, 0.6)
        cov_in = np.diag([0.5, 0.125])
        covs = []
        for factor in (1.0, 100.0):
            c = TwoNodeCluster.from_y_variances(0.05, 0.08, factor)
            out = run_steps((x_quad(0), y_quad(0)), (c, c), (s1, s2))
            covs.append(output_covariance(out, {0: cov_in}))
        assert np.max(np.abs(covs[0] - covs[1])) < 1e-10

    def test_run_steps_validates(self):
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        with pytest.raises(ValueError):
            run_steps((x_quad(0), y_quad(0)), [cluster], [])


class TestChainAgainstOracle:
    """Engine vs the chained conditioning oracle at every chain length."""

    @staticmethod
    def relative_gap(rng, k, wide):
        settings = chain_settings(rng, k, wide)
        clusters = [TwoNodeCluster.from_y_variances(*rng.uniform(0.01, 0.12, 2),
                                                    rng.uniform(1.0, 20.0))
                    for _ in range(k)]
        cov_in = random_input_cov(rng)
        out = run_steps((x_quad(0), y_quad(0)), clusters, settings)
        engine = output_covariance(out, {0: cov_in})
        oracle = cov_in
        for cluster, setting in zip(clusters, settings):
            oracle = single_step_covariance_oracle(oracle, cluster, setting)
        return float(np.max(np.abs(engine - oracle)) / np.max(np.abs(oracle)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [2, 8, 32, 64, 128])
    def test_realistic_angles(self, k, seed):
        assert self.relative_gap(np.random.default_rng(seed), k, wide=False) <= 1e-12

    @staticmethod
    def mutated_gap(seed, mutate):
        """Engine on k = 32 realistic settings vs the oracle on mutated ones."""
        rng = np.random.default_rng(seed)
        k = 32
        settings = chain_settings(rng, k)
        cov_in = random_input_cov(rng)
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05, 10.0)
        out = run_steps((x_quad(0), y_quad(0)), [cluster] * k, settings)
        engine = output_covariance(out, {0: cov_in})
        oracle = cov_in
        for setting in mutate(list(settings), int(rng.integers(k - 1))):
            oracle = single_step_covariance_oracle(oracle, cluster, setting)
        return float(np.max(np.abs(engine - oracle)))

    @staticmethod
    def shift_theta_in(settings, j):
        s = settings[j]
        settings[j] = HomodyneSetting(s.theta_in + 1e-6, s.theta_1)
        return settings

    @staticmethod
    def exchange_neighbours(settings, j):
        settings[j], settings[j + 1] = settings[j + 1], settings[j]
        return settings

    @staticmethod
    def negate_theta_1(settings, j):
        s = settings[j]
        settings[j] = HomodyneSetting(s.theta_in, -s.theta_1)
        return settings

    @staticmethod
    def swap_in_and_1(settings, j):
        s = settings[j]
        settings[j] = HomodyneSetting(s.theta_1, s.theta_in)
        return settings

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mutation", ["shift_theta_in", "exchange_neighbours",
                                          "negate_theta_1"])
    def test_mutated_step_fails_the_oracle_check(self, mutation, seed):
        # the agreement check must be able to fail on a wrong program
        gap = self.mutated_gap(seed, getattr(self, mutation))
        assert gap > STEP_ORACLE_TOL

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_swapped_phases_are_invisible_to_the_covariance(self, seed):
        # swapping theta_in and theta_1 flips theta- only, and
        # M(tp, -tm) = -M(tp, tm) acts on covariances as M(tp, tm) does, so
        # no covariance check can see it; this pins down that blind spot
        assert self.mutated_gap(seed, self.swap_in_and_1) <= STEP_ORACLE_TOL

    @pytest.mark.parametrize("seed", range(5))
    def test_wide_angles(self, seed):
        # covariance entries grow far past 1e5 here, so the oracle's states
        # need the relative symmetry check
        assert self.relative_gap(np.random.default_rng(seed), 32, wide=True) <= 1e-12


class TestSampling:
    def test_deterministic_per_seed(self):
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        out = run_steps((x_quad(0), y_quad(0)), (cluster, cluster),
                        (HomodyneSetting(0.9, 0.2), HomodyneSetting(1.4, 0.6)))
        blocks = {0: np.diag([0.25, 0.25])}
        a = sample_currents(out, blocks, np.random.default_rng(42))
        b = sample_currents(out, blocks, np.random.default_rng(42))
        assert a == b
        c = sample_currents(out, blocks, np.random.default_rng(43))
        assert a != c

    def test_sample_mean_within_standard_error(self):
        # 10^4 draws of each current: sample mean within 4 sigma / 100
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        setting = HomodyneSetting(0.9, 0.2, beta_0=1.0)
        out = run_steps((x_quad(0), y_quad(0)), (cluster,), (setting,))
        blocks = {0: np.diag([0.25, 0.25])}
        rng = np.random.default_rng(11)
        draws = {name: [] for name in out.current_names}
        for _ in range(10_000):
            for name, val in sample_currents(out, blocks, rng).items():
                draws[name].append(val)
        R = out.measured_rows
        cov = R @ out.column_cov(blocks) @ R.T
        for i, name in enumerate(out.current_names):
            sigma = 2.0 * setting.beta_0 * math.sqrt(cov[i, i])
            assert abs(np.mean(draws[name])) < 4.0 * sigma / 100.0

    def test_feed_forward_after_sampling(self):
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        out = run_steps((x_quad(0), y_quad(0)), (cluster, cluster),
                        (HomodyneSetting(0.9, 0.2), HomodyneSetting(1.4, 0.6)))
        currents = sample_currents(out, {0: np.diag([0.25, 0.25])},
                                   np.random.default_rng(0))
        corrected = feed_forward(out, currents)
        assert all(e.offset == 0.0 and not e.symbols for e in corrected.exprs)


class TestSolvePhases:
    def test_identity_target(self):
        sol = solve_phases(np.eye(2))
        assert sol.residual < 1e-12

    def test_quarter_rotation_target(self):
        sol = solve_phases(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert sol.residual < 1e-12
        M = (gate_matrix(sol.setting_2.theta_plus, sol.setting_2.theta_minus)
             @ gate_matrix(sol.setting_1.theta_plus, sol.setting_1.theta_minus))
        np.testing.assert_allclose(M, [[0, 1], [-1, 0]], atol=1e-10)

    def test_random_sl2_targets(self):
        rng = np.random.default_rng(12)
        solved = 0
        while solved < 100:
            T = rng.normal(size=(2, 2))
            det = np.linalg.det(T)
            if abs(det) < 0.1:
                continue
            T = T / math.sqrt(abs(det))
            if det < 0:
                T = T @ np.diag([1.0, -1.0])

            if np.linalg.cond(T) > 100:
                continue
            sol = solve_phases(T)
            assert sol.residual < 1e-6
            solved += 1

    def test_settings_are_usable(self):
        # the returned settings must drive actual gate steps
        sol = solve_phases(np.array([[1.0, 0.5], [0.0, 1.0]]))
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        out = run_steps((x_quad(0), y_quad(0)), (cluster, cluster),
                        (sol.setting_1, sol.setting_2))
        np.testing.assert_allclose(out.signal_matrix,
                                   [[1.0, 0.5], [0.0, 1.0]], atol=1e-9)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="determinant"):
            solve_phases(2.0 * np.eye(2))

    def test_ill_conditioned_targets(self):
        # triangular targets with s a power of two keep det 1 exactly in
        # floating point; singular-value ratios reach about 1e12
        rng = np.random.default_rng(31)
        for k in range(21):
            s = 2.0 ** k
            for x in rng.uniform(-s, s, size=8):
                for T in ([[s, x], [0.0, 1.0 / s]], [[1.0 / s, 0.0], [x, s]]):
                    assert solve_phases(T).residual <= PHASE_RESIDUAL_TOL, (s, x)
        for T in (-np.eye(2), np.array([[1.0, 1e6], [0.0, 1.0]]), np.diag([1e6, 1e-6])):
            assert solve_phases(T).residual <= PHASE_RESIDUAL_TOL

    def test_rotated_ill_conditioned_targets(self):
        # the computed determinant of R(a) diag(s, 1/s) R(b) is off from 1 by
        # about eps * s**2, far beyond a fixed 1e-9 at s = 1e6
        rng = np.random.default_rng(44)
        targets = [phase_rotation(0.7) @ np.diag([3e4, 1 / 3e4]) @ phase_rotation(-1.1)]
        for s in np.logspace(0.0, 6.0, 25):
            for a, b in rng.uniform(-math.pi, math.pi, size=(4, 2)):
                targets.append(phase_rotation(a) @ np.diag([s, 1 / s]) @ phase_rotation(b))
        for T in targets:
            assert solve_phases(T).residual <= PHASE_RESIDUAL_TOL

    @pytest.mark.parametrize("target", [[[2.0, 0.0], [0.0, 1.0]],
                                        [[1.0 + 1e-6, 0.0], [0.0, 1.0]]])
    def test_rejects_determinant_off_one(self, target):
        with pytest.raises(ValueError, match="determinant"):
            solve_phases(np.array(target))

    def test_residual_above_tol_raises(self):
        # the closed form lands within rounding of this shear, not on it
        target = np.array([[1.0, 0.5], [0.0, 1.0]])
        residual = solve_phases(target).residual
        assert residual > 0.0
        with pytest.raises(PhaseSolveError, match=f"residual {residual:.3e}"):
            solve_phases(target, tol=0.0)


class TestCzTransform:
    def test_canonical_coefficients_reproduce_target_exactly(self):
        M = cz_transform(canonical_cz_coefficients())
        assert np.array_equal(M, CZ_MATRIX)

    def test_identity_blocks(self):
        M = cz_transform(TwoModeCoefficients(np.eye(2), np.eye(2)))
        assert np.array_equal(M, np.eye(4))

    def test_equal_blocks_commute_through(self):
        a = np.array([[1.3, 0.2], [0.1, (1 + 0.2 * 0.1) / 1.3]])
        a[1, 1] = (1 + a[0, 1] * a[1, 0]) / a[0, 0]
        M = cz_transform(TwoModeCoefficients(a, a))
        expected = np.zeros((4, 4))
        expected[:2, :2] = a
        expected[2:, 2:] = a
        np.testing.assert_allclose(M, expected, atol=1e-12)

    def test_result_is_symplectic(self):
        M = cz_transform(canonical_cz_coefficients())
        omega = omega_matrix(2)
        assert np.max(np.abs(M @ omega @ M.T - omega)) < 1e-12

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError, match="invalid blocks"):
            TwoModeCoefficients(2.0 * np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="invalid blocks"):
            TwoModeCoefficients(np.eye(2), np.diag([1.0 + 1e-6, 1.0]))

    def test_accepts_ill_conditioned_blocks(self):
        a = phase_rotation(0.7) @ np.diag([3e4, 1 / 3e4]) @ phase_rotation(-1.1)
        assert abs(np.linalg.det(a) - 1.0) > 1e-9
        coeffs = TwoModeCoefficients(a, np.eye(2))
        assert np.array_equal(coeffs.a, a)

    def test_gain_matrix_matches_layout(self):
        s = HomodyneSetting(0.9, 0.2)
        G = protocol_gains(s)
        pref = math.sqrt(2.0) / math.sin(s.theta_minus)
        np.testing.assert_allclose(
            G, pref * np.array([[math.cos(0.2), -math.cos(0.9)],
                                [-math.sin(0.2), math.sin(0.9)]]), atol=1e-15)
