"""Tests for measurement-step gates, feed-forward, phase solving, and the
two-mode entangling construction."""

import copy
import math
import pickle
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from cvmbqc import gates
from cvmbqc.gates import (
    CZ_MATRIX,
    MEASURED_EIG_MIN,
    PHASE_RESIDUAL_TOL,
    PINV_RCOND,
    DegenerateHomodynePhasesError,
    GateOutput,
    HomodyneSetting,
    PhaseSolveError,
    TwoModeCoefficients,
    TwoNodeCluster,
    _joint_cov,
    _row_exprs,
    _schur_condition,
    canonical_cz_coefficients,
    cz_transform,
    feed_forward,
    gate_matrix,
    output_covariance,
    run_steps,
    sample_currents,
    single_step_covariance_oracle,
    solve_phases,
)
from cvmbqc.multiplex import simulate_pipeline
from cvmbqc.runner import STEP_ORACLE_TOL
from cvmbqc.quadrature import (
    GaussianState,
    LinearQuadratureExpr,
    omega_matrix,
    x_quad,
    y_quad,
)
from test_quadrature import terms


def rotation(angle):
    """Single-mode phase rotation: x + i*y -> (x + i*y) * exp(i*angle)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def dense_row(expr, n_modes):
    """An expression's coefficients over the first ``n_modes`` modes."""
    row = np.zeros(2 * n_modes)
    for col, c in expr.coeffs.items():
        row[col] = c
    return row


def quad_rows(out):
    """The output pair over all quadrature columns, [signal | noise]."""
    return np.hstack([out.signal_matrix, out.noise])


def column_cov(out, blocks):
    """The dense covariance of an output's quadrature columns: the input
    mode's block (vacuum when none is given) and the source variances."""
    cov = np.diag(out._column_variances)
    cov[:2, :2] = blocks.get(out.input_mode, 0.25 * np.eye(2))
    return cov


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
    assert out.noise.shape == (2, 4 * k)
    for e in out.exprs:
        assert all(2 * m <= c < 2 * m + 4 * k + 2 for c in e.coeffs)


def cluster_node_exprs(sources: tuple) -> tuple:
    """Cluster-node quadratures over the two squeezed source modes.

    Returns ((X1, Y1), (X2, Y2)) for sources (m1, m2) entangled through
    U = (1/sqrt 2)[[1, -i], [i, -1]]: the node identity that the engine's
    measured rows and outputs must follow.
    """
    x1, y1, x2, y2 = (2 * m + c for m in sources for c in (0, 1))
    h = 1.0 / math.sqrt(2.0)
    X1 = LinearQuadratureExpr({x1: h, y2: h})
    Y1 = LinearQuadratureExpr({y1: h, x2: -h})
    X2 = LinearQuadratureExpr({x2: -h, y1: -h})
    Y2 = LinearQuadratureExpr({x1: h, y2: -h})
    return (X1, Y1), (X2, Y2)


def joint_state(input_cov, cluster):
    """The oracle's three-mode joint state: difference port, sum port and
    surviving node after cluster generation and the mixing beam splitter."""
    return GaussianState(np.zeros(6), _joint_cov(input_cov, cluster))


def schur_condition(state, measured_angles, outcomes=None):
    """Condition ``state`` on homodyne results through ``_schur_condition``.

    ``measured_angles`` maps each measured mode to its local-oscillator
    angle, the row cos(angle) x + sin(angle) y of P; every other mode is
    kept.  With ``outcomes`` the kept mean moves by gain (outcomes - P mean).
    Returns what the references below return: the conditioned state, the
    kept and measured modes, the gain and Sigma_mm.
    """
    n = state.mean.size // 2
    measured_modes = tuple(sorted(measured_angles))
    kept_modes = tuple(m for m in range(n) if m not in measured_angles)
    P = np.zeros((len(measured_modes), 2 * n))
    for row, mode in enumerate(measured_modes):
        angle = float(measured_angles[mode])
        P[row, 2 * mode] = math.cos(angle)
        P[row, 2 * mode + 1] = math.sin(angle)
    kept_idx = [i for m in kept_modes for i in (2 * m, 2 * m + 1)]
    gain, cov_cond, sigma_mm = _schur_condition(state.cov, P, kept_idx)
    mean_kept = state.mean.take(kept_idx)
    if outcomes is not None:
        m_vals = np.array([float(outcomes[m]) for m in measured_modes])
        mean_kept = mean_kept + gain @ (m_vals - P @ state.mean)
    return GaussianState(mean_kept, cov_cond), kept_modes, measured_modes, gain, sigma_mm


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
            full = quad_rows(out) + (out.classical * 2.0 * setting.beta_0) @ R
            ref = np.vstack([dense_row(e, 3) for e in (X2, Y2)])
            assert np.max(np.abs(full - ref)) <= 1e-12
            assert not np.any(out.measured_offset) and not np.any(out.offset)

    def test_outputs_compare_by_identity(self):
        # the ndarray fields make field-wise equality ambiguous
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.07)
        settings = [HomodyneSetting(0.9 + 0.1 * j, 0.3) for j in range(4)]
        first, second = (run_steps((x_quad(0), y_quad(0)), [cluster] * 4, settings)
                         for _ in range(2))
        assert np.array_equal(first.signal_matrix, second.signal_matrix)
        assert first != second and not first == second
        assert first == first
        assert hash(first) == hash(first) and len({first, second}) == 2

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
        x, y = dense_row(x_quad(0), n_modes), dense_row(y_quad(0), n_modes)
        for j, setting in enumerate(settings):
            # step j's sources are modes m + 1 + 2j and m + 2 + 2j, m = 0
            (X1, Y1), (X2, Y2) = ([dense_row(e, n_modes) for e in node]
                                  for node in cluster_node_exprs((1 + 2 * j, 2 + 2 * j)))
            cin, sin_ = math.cos(setting.theta_in), math.sin(setting.theta_in)
            c1, s1 = math.cos(setting.theta_1), math.sin(setting.theta_1)
            ports = (h * (cin * (X1 - x) + sin_ * (Y1 - y)),
                     h * (c1 * (X1 + x) + s1 * (Y1 + y)))
            for row, port in zip(R[2 * j:2 * j + 2], ports):
                assert np.max(np.abs(row - port)) <= 1e-14
            x, y = X2, Y2
        return np.vstack([x, y])

    def test_resolved_rows_follow_the_cluster_nodes(self):
        rng = np.random.default_rng(14)
        settings = [random_setting(rng, beta_0=rng.uniform(0.5, 50.0)) for _ in range(3)]
        clusters = [TwoNodeCluster.from_y_variances(*rng.uniform(0.01, 0.12, 2))
                    for _ in range(3)]
        out = run_steps((x_quad(0), y_quad(0)), clusters, settings)
        assert_columns(out, 0, 3)
        ref = self.assert_rows_follow_the_nodes(out, settings)
        two_beta = 2.0 * np.repeat([s.beta_0 for s in settings], 2)
        full = quad_rows(out) + (out.classical * two_beta) @ out.measured_rows
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
        full = quad_rows(out) + carried @ out.measured_rows
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

    @pytest.mark.parametrize("args,field", [
        ((math.nan, 0.2), "theta_in"),  # once an all-NaN gate matrix
        ((math.inf, 0.2), "theta_in"),  # once "math domain error"
        ((0.9, -math.inf), "theta_1"),
        ((0.9, 0.2, math.nan), "beta_0"),  # once NaN classical coefficients
        ((0.9, 0.2, math.inf), "beta_0"),
    ])
    def test_non_finite_setting_rejected(self, args, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            HomodyneSetting(*args)

    @pytest.mark.parametrize("beta_0", [0.0, -1.0])
    def test_non_positive_amplitude_rejected(self, beta_0):
        with pytest.raises(ValueError, match="amplitude must be positive"):
            HomodyneSetting(0.9, 0.2, beta_0)

    GOOD = TwoNodeCluster.from_y_variances(0.05, 0.05)
    LOOSE = TwoNodeCluster.from_y_variances(0.2, 0.2)  # nullifier sum 0.8
    FINE = HomodyneSetting(0.9, 0.2)
    FLAT = HomodyneSetting(0.4, 0.4)

    @pytest.mark.parametrize("clusters,settings,error,message", [
        ((GOOD, GOOD, GOOD), (FINE, FLAT, FINE), DegenerateHomodynePhasesError,
         "degenerate homodyne phases"),
        ((GOOD, LOOSE, GOOD), (FINE, FINE, FINE), ValueError, "not entangled"),
        # the earlier step's fault is reported first, whichever kind it is
        ((LOOSE, GOOD), (FINE, FLAT), ValueError, "not entangled"),
        ((GOOD, LOOSE), (FLAT, FINE), DegenerateHomodynePhasesError,
         "degenerate homodyne phases"),
        ((GOOD,), (FINE, FINE), ValueError, "one cluster per setting"),
        ((), (), ValueError, "one cluster per setting"),
    ], ids=["degenerate", "unentangled", "unentangled-first", "degenerate-first",
            "count", "empty"])
    def test_first_fault_reported(self, clusters, settings, error, message):
        with pytest.raises(error, match=message):
            run_steps((x_quad(0), y_quad(0)), clusters, settings)

    def test_unentangled_warnings_point_at_the_caller(self):
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            run_steps((x_quad(2), y_quad(2)), (self.LOOSE, self.GOOD, self.LOOSE),
                      (self.FINE,) * 3, allow_unentangled=True)
        assert [(w.category, w.filename) for w in log] == [(UserWarning, __file__)] * 2
        # each warning names its step, from 1 as in i_in[j]; one lane, no lane named
        assert [str(w.message) for w in log] == [
            f"running measurement step {step} on an unentangled cluster resource"
            for step in (1, 3)]

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
        (LinearQuadratureExpr({0: 2.0}), y_quad(0)),
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
        for expr, row, cur in zip(out.exprs, quad_rows(out), out.classical):
            assert np.array_equal(dense_row(expr, n_modes), row)
            assert expr.symbols == {n: c for n, c in zip(out.current_names, cur) if c}
        # the first step sees the input and the sources of step 1 (modes 0-2);
        # the second sees the 8 source columns of steps 1 and 2, and only those
        support = [set(np.flatnonzero(row).tolist()) for row in out.measured_rows]
        assert support[0] == support[1] == set(range(6))
        assert support[2] == support[3] == set(range(2, 10))


class TestConditioningOracle:
    def test_uncorrelated_vacuum_leaves_kept_unchanged(self):
        state = GaussianState(np.zeros(4), np.diag([0.25, 0.25, 0.7, 0.09]))
        cond, *_ = schur_condition(state, {0: 0.3})
        np.testing.assert_allclose(cond.cov, np.diag([0.7, 0.09]), atol=1e-14)

    def test_ideal_cluster_nullifier_determinism(self):
        # measuring X of node 1 pins Y of node 2 when the sources are
        # strongly squeezed (the nullifier variance vanishes)
        from cvmbqc.cluster import ClusterGraph, generate_cluster
        v = 1e-10
        state = generate_cluster([v, v], ClusterGraph.two_node())
        cond, *_ = schur_condition(state, {0: 0.0})  # angle 0: measure X
        var_y2 = cond.cov[1, 1]
        assert var_y2 < 1e-8

    def test_rejects_bad_inputs(self):
        zero_var = GaussianState(np.zeros(4), np.diag([0.25, 0.25, 0.0, 0.25]))
        with pytest.raises(ValueError, match="ill-conditioned"):
            schur_condition(zero_var, {1: 0.0})

    def test_outcome_shifts_mean(self):
        from cvmbqc.cluster import ClusterGraph, generate_cluster
        state = generate_cluster([0.01, 0.01], ClusterGraph.two_node())
        cond, *_ = schur_condition(state, {0: 0.0}, outcomes={0: 0.5})
        assert cond.mean.shape == (2,)
        assert abs(cond.mean[1]) > 0  # correlated quadrature moved

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

    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1)])
    def test_oracle_rejects_a_nan_input_block(self, where):
        # the oracle once returned an all-NaN covariance here, while
        # output_covariance rejects the same block
        cov_in = np.diag([0.25, 0.25])
        cov_in[where] = math.nan
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        setting = HomodyneSetting(0.9, 0.2)
        with pytest.raises(ValueError, match="^covariance entries must be finite$"):
            single_step_covariance_oracle(cov_in, cluster, setting)
        out = run_steps((x_quad(0), y_quad(0)), (cluster,), (setting,))
        with pytest.raises(ValueError, match="not a finite"):
            output_covariance(out, {0: cov_in})

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
        state = joint_state(np.diag([0.25, 0.25]),
                            TwoNodeCluster.from_y_variances(0.05, 0.05))
        assert check_uncertainty(state.cov) is True


def reference_condition_homodyne(state, measured_angles, outcomes=None):
    """Conditioning as first written: 0/1 selection products, an eigvalsh
    screen and numpy's pinv, two decompositions of the measured block."""
    n = state.mean.size // 2
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


def reference_condition_eigh(state, measured_angles, outcomes=None):
    """Conditioning before the array-level Schur core, kept verbatim: one
    eigh of the measured block and the inverse in pinv's order, inline."""
    n = state.mean.size // 2
    measured_modes = tuple(sorted(measured_angles))
    if not measured_modes:
        raise ValueError("no measured modes given")
    if any(not 0 <= m < n for m in measured_modes):
        raise ValueError("measured mode out of range")
    kept_modes = tuple(m for m in range(n) if m not in measured_angles)
    if not kept_modes:
        raise ValueError("no kept modes remain")

    P = np.zeros((len(measured_modes), 2 * n))
    for row, mode in enumerate(measured_modes):
        angle = float(measured_angles[mode])
        P[row, 2 * mode] = math.cos(angle)
        P[row, 2 * mode + 1] = math.sin(angle)
    kept_idx = [i for m in kept_modes for i in (2 * m, 2 * m + 1)]

    cov = state.cov
    sigma_mm = P @ cov @ P.T
    w, V = np.linalg.eigh(sigma_mm)
    if w[0] < MEASURED_EIG_MIN:
        raise ValueError(f"ill-conditioned measured variance (< {MEASURED_EIG_MIN:g})")
    w, V = w[::-1], V[:, ::-1]
    inv_w = 1.0 / w
    inv_w[w <= PINV_RCOND * w[0]] = 0.0
    cov_kept = cov.take(kept_idx, axis=0)
    sigma_km = cov_kept @ P.T
    gain = sigma_km @ (V @ (inv_w[:, None] * V.T))
    cov_cond = cov_kept.take(kept_idx, axis=1) - gain @ sigma_km.T
    cov_cond = 0.5 * (cov_cond + cov_cond.T)

    mean_kept = state.mean.take(kept_idx)
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
    """One eigendecomposition and index selection vs the two-decomposition
    form, and bit for bit vs the form before the array-level Schur core."""

    @staticmethod
    def random_state(rng, n):
        A = rng.normal(size=(2 * n, 2 * n))
        cov = A @ A.T / (2 * n) + rng.uniform(0.05, 0.5) * np.eye(2 * n)
        return GaussianState(rng.normal(size=2 * n), cov)

    def assert_matches(self, state, angles, outcomes=None):
        ref_state, kept, measured, ref_gain, ref_mm = reference_condition_homodyne(
            state, angles, outcomes)
        cond, kept_modes, measured_modes, gain, sigma_mm = schur_condition(
            state, angles, outcomes)
        assert kept_modes == kept and measured_modes == measured
        assert_rel_close(cond.cov, ref_state.cov)
        assert_rel_close(cond.mean, ref_state.mean)
        assert_rel_close(gain, ref_gain)
        assert_rel_close(sigma_mm, ref_mm)
        eigh_state, _, _, eigh_gain, eigh_mm = reference_condition_eigh(state, angles, outcomes)
        for got, expected in ((cond.cov, eigh_state.cov), (cond.mean, eigh_state.mean),
                              (gain, eigh_gain), (sigma_mm, eigh_mm)):
            assert np.array_equal(got, expected)

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
            state = joint_state(random_input_cov(rng), cluster)
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
        for fn in (reference_condition_homodyne, reference_condition_eigh, schur_condition):
            try:
                fn(state, angles)
                verdicts.append(False)
            except ValueError as exc:
                assert "ill-conditioned" in str(exc)
                verdicts.append(True)
        assert verdicts == [rejected] * 3
        if not rejected:
            self.assert_matches(state, angles)

    def test_pinv_cutoff_zeroes_small_eigenvalue(self):
        # 5e-14 passes the 1e-14 screen but lies below 1e-15 * 100, so the
        # pseudo-inverse drops it: the kept x_2 learns nothing from x_1,
        # where a plain inverse would give it a gain of 1e-14 / 5e-14
        state = self.diagonal_block_state(5e-14, large=100.0, coupling=1e-14)
        angles = {0: 0.0, 1: 0.0}
        gain = schur_condition(state, angles)[3]
        assert np.all(gain[:, 1] == 0.0)
        self.assert_matches(state, angles, outcomes={0: 0.3, 1: -2.0})
        # just above the cutoff the direction is inverted, by both
        state = self.diagonal_block_state(2e-13, large=100.0, coupling=1e-14)
        gain = schur_condition(state, angles)[3]
        assert gain[0, 1] == pytest.approx(0.05, rel=1e-12)
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
        assert terms(once.exprs) == terms(twice.exprs)

    def test_missing_current_rejected(self):
        out = self._output()
        with pytest.raises(ValueError, match="missing measured currents"):
            feed_forward(out, {})

    def test_missing_currents_are_named_once_in_time_order(self):
        # step 2 has cos(theta+) + cos(theta-) == 0.0 exactly, so M_2 has a
        # zero (0, 0) entry, and step 1 has theta_1 = 0.0: X_out then carries
        # no i_in[1], which Y_out carries.  The check reads both rows, where
        # reading only the first would leave i_in[1] out of the message.
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        out = run_steps((x_quad(0), y_quad(0)), (cluster, cluster),
                        (HomodyneSetting(0.9, 0.0), HomodyneSetting(math.pi / 2, 0.58)))
        x, y = out.exprs
        assert "i_in[1]" not in x.symbols and "i_in[1]" in y.symbols
        with pytest.raises(ValueError) as info:
            feed_forward(out, {"i_in[2]": 0.1})
        assert str(info.value) == ("missing measured currents for feed-forward: "
                                   "['i_in[1]', 'i_1[1]', 'i_1[2]']")


class TestExpressionView:
    """``GateOutput.exprs`` is built from the arrays on first read, then kept."""

    CLUSTER = TwoNodeCluster.from_y_variances(0.05, 0.05)
    SETTINGS = (HomodyneSetting(0.9, 0.2), HomodyneSetting(1.4, 0.6))
    SHIFTED = (x_quad(2) + LinearQuadratureExpr(offset=0.3),
               y_quad(2) + LinearQuadratureExpr(offset=-1.1))

    def _output(self):
        return run_steps(self.SHIFTED, (self.CLUSTER,) * 2, self.SETTINGS)

    @staticmethod
    def _from_arrays(out):
        return _row_exprs(np.hstack([out.signal_matrix, out.noise]), 2 * out.input_mode,
                          out.classical, out.current_names, out.offset)

    def test_no_view_is_built_until_read(self):
        out = self._output()
        inputs = [(x_quad(0), y_quad(0))] * 2
        pipeline = simulate_pipeline(5.0, 1.0, inputs, [self.CLUSTER] * 4,
                                     [list(self.SETTINGS)] * 2)
        corrected = feed_forward(out, dict.fromkeys(out.current_names, 0.5))
        for made in (out, *pipeline.outputs, corrected):
            assert "exprs" not in made.__dict__

    def test_first_read_builds_the_view_from_the_arrays_and_keeps_it(self):
        out = self._output()
        first = out.exprs
        assert terms(first) == terms(self._from_arrays(out))
        assert [e.offset for e in first] == out.offset.tolist()
        assert out.exprs is first and out.__dict__["exprs"] is first

    def test_replace_keeps_a_given_view_or_rebuilds_one(self):
        out = self._output()
        given = (x_quad(0), y_quad(0))
        assert replace(out, exprs=given).exprs is given
        classical = 2.0 * out.classical
        rebuilt = replace(out, classical=classical, exprs=None)
        assert "exprs" not in rebuilt.__dict__
        assert terms(rebuilt.exprs) == terms(self._from_arrays(rebuilt))
        assert [e.symbols for e in rebuilt.exprs] == [
            {name: 2.0 * v for name, v in e.symbols.items()} for e in out.exprs]

    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    def test_replace_builds_its_view_from_a_changed_array(self, read):
        out = self._output()
        if read:
            _ = out.exprs
        changed = replace(out, signal_matrix=2.0 * out.signal_matrix)
        assert "exprs" not in changed.__dict__
        assert terms(changed.exprs) == terms(self._from_arrays(changed))
        assert [e.coeffs[4] for e in changed.exprs] == [
            2.0 * e.coeffs[4] for e in out.exprs]

    @pytest.mark.parametrize("name", ["noise", "classical", "offset"])
    def test_replace_rebuilds_its_view_from_each_array_it_reads(self, name):
        # the view reads the noise columns, the current rows and the offsets
        # as well as the signal columns; a read view goes stale on each
        out = self._output()
        _ = out.exprs
        changed = replace(out, **{name: 2.0 * getattr(out, name)})
        assert "exprs" not in changed.__dict__
        assert terms(changed.exprs) == terms(self._from_arrays(changed))
        assert terms(changed.exprs) != terms(out.exprs)

    def test_replace_keeps_a_view_given_in_place_of_a_built_one(self):
        out = self._output()
        _ = out.exprs
        given = (x_quad(0), y_quad(0))
        changed = replace(out, signal_matrix=2.0 * out.signal_matrix, exprs=given)
        assert changed.exprs is given
        assert replace(changed, noise=2.0 * changed.noise).exprs is given

    @pytest.mark.parametrize("view", ["none", "read", "given"])
    def test_feed_forward_builds_its_view_from_the_zeroed_arrays(self, view):
        out = self._output()
        if view == "read":
            _ = out.exprs
        elif view == "given":
            out = replace(out, exprs=(x_quad(0), y_quad(0)))
        corrected = feed_forward(out, dict.fromkeys(out.current_names, -1.5))
        assert "exprs" not in corrected.__dict__
        for e, coeffs in zip(corrected.exprs, (e.coeffs for e in self._from_arrays(out))):
            assert e.coeffs == coeffs and e.symbols == {}
            assert type(e.offset) is float and math.copysign(1.0, e.offset) == 1.0
            assert e.offset == 0.0


class TestLaneArraysOnRead:
    """An engine output builds ``classical``, ``offset``, ``measured_rows``,
    ``measured_offset`` and its current scales on the first read of any of
    them, for every lane of its engine pass at once."""

    ARRAYS = ("classical", "offset", "measured_rows", "measured_offset")
    BUILT = ARRAYS + ("_current_scales",)
    CLUSTER = TwoNodeCluster.from_y_variances(0.05, 0.05)
    SETTINGS = (HomodyneSetting(0.9, 0.2, 3e5), HomodyneSetting(1.4, 0.6))
    SHIFTED = TestExpressionView.SHIFTED

    def _output(self):
        return run_steps(self.SHIFTED, (self.CLUSTER,) * 2, self.SETTINGS)

    def _pipeline(self, n_lanes=3):
        settings = [[HomodyneSetting(0.9 + 0.1 * lane, 0.2, 1e5 * (lane + 1)),
                     HomodyneSetting(1.4, 0.6)] for lane in range(n_lanes)]
        inputs = [self.SHIFTED] + [(x_quad(0), y_quad(0))] * (n_lanes - 1)
        return simulate_pipeline(5.0, 1.0, inputs, [self.CLUSTER] * (2 * n_lanes),
                                 settings).outputs

    @pytest.fixture
    def stacks(self, monkeypatch):
        """Counts the engine passes that build their stacked arrays."""
        built = []
        real = gates._EnginePass._stack

        def counted(record):
            built.append(record)
            return real(record)

        monkeypatch.setattr(gates._EnginePass, "_stack", counted)
        return built

    def test_no_array_is_built_until_read(self, stacks):
        for out in (self._output(), *self._pipeline()):
            assert not set(self.BUILT) & set(out.__dict__)
            _ = out.signal_matrix, out.noise
            output_covariance(out, {})
        assert stacks == []

    @pytest.mark.parametrize("first", BUILT)
    def test_one_read_builds_every_lane_once(self, stacks, first):
        outputs = self._pipeline()
        getattr(outputs[1], first)
        assert len(stacks) == 1
        assert set(self.BUILT) <= set(outputs[1].__dict__)
        assert not set(self.BUILT) & set(outputs[0].__dict__)
        for out in outputs:
            for name in self.BUILT:
                getattr(out, name)
        assert len(stacks) == 1
        for name in self.BUILT:
            lanes = [out.__dict__[name] for out in outputs]
            base = lanes[0].base
            assert base is not None and all(lane.base is base for lane in lanes)
            assert base.size == len(outputs) * lanes[0].size

    def test_arrays_equal_the_lanes_run_alone(self):
        outputs = self._pipeline()
        settings = [out.settings for out in outputs]
        for out, lane_settings in zip(outputs, settings):
            alone = run_steps(self.SHIFTED if out is outputs[0] else (x_quad(0), y_quad(0)),
                              (self.CLUSTER,) * 2, lane_settings)
            for name in self.BUILT:
                assert np.array_equal(getattr(out, name), getattr(alone, name))
            assert out._current_scales.tolist() == [
                2.0 * s.beta_0 for s in lane_settings for _ in range(2)]

    def test_measured_rows_hold_no_negative_zero(self):
        # theta = 0 and pi/2 give exact zeros in a node block's (cos, sin)
        # row; the port sign must not turn them into -0.0 on either band of
        # the source columns (D_0 over the input keeps its signs, as in the
        # reference)
        settings = [[HomodyneSetting(0.0, math.pi / 2), HomodyneSetting(math.pi / 2, 0.0),
                     HomodyneSetting(0.0, 0.7)],
                    [HomodyneSetting(math.pi / 2, 0.0), HomodyneSetting(0.0, math.pi / 2),
                     HomodyneSetting(0.7, 0.0)]]
        outputs = simulate_pipeline(5.0, 1.0, [(x_quad(0), y_quad(0))] * 2,
                                    [self.CLUSTER] * 6, settings).outputs
        for out in outputs:
            R = out.measured_rows[:, 2:]
            assert np.count_nonzero(R == 0.0) > 0
            assert not np.any(np.signbit(R[R == 0.0]))

    def test_second_read_returns_the_same_object(self):
        out = self._output()
        first = {name: getattr(out, name) for name in self.BUILT}
        assert all(getattr(out, name) is first[name] for name in self.BUILT)

    def test_replace_keeps_a_given_array(self):
        out = self._output()
        classical = 3.0 * np.ones((2, 4))
        changed = replace(out, classical=classical)
        assert changed.classical is classical
        assert "_pass" not in changed.__dict__
        for name in set(self.ARRAYS) - {"classical"}:
            assert np.array_equal(getattr(changed, name), getattr(out, name))
        assert np.array_equal(changed._current_scales, out._current_scales)

    def test_constructor_holds_every_array(self):
        out = self._output()
        fields = {f: getattr(out, f) for f in (
            "signal_matrix", "noise", *self.ARRAYS, "current_names", "input_mode",
            "settings", "clusters")}
        made = GateOutput(**fields)
        assert set(self.BUILT) <= set(made.__dict__)
        blocks = {1: np.array([[0.5, 0.2], [0.2, 0.3]])}
        drawn = [sample_currents(o, blocks, np.random.default_rng(3)) for o in (out, made)]
        assert drawn[0] == drawn[1]

    def _made(self, how):
        """An output made by the engine core, by a pipeline lane, by the
        constructor or by feed_forward."""
        if how == "lane":
            return self._pipeline()[1]
        out = self._output()
        if how == "constructor":
            return GateOutput(**{f.name: getattr(out, f.name) for f in fields(GateOutput)})
        if how == "feed_forward":
            return feed_forward(out, dict.fromkeys(out.current_names, 0.5))
        return out

    @pytest.mark.parametrize("how", ["run_steps", "lane", "constructor", "feed_forward"])
    def test_an_unknown_name_is_an_attribute_error(self, stacks, how):
        # a miss builds nothing and keeps nothing
        out = self._made(how)
        held, n_built = dict(out.__dict__), len(stacks)
        with pytest.raises(AttributeError) as info:
            out.nope
        assert str(info.value) == "'GateOutput' object has no attribute 'nope'"
        assert not hasattr(out, "nope") and getattr(out, "nope", None) is None
        assert list(out.__dict__) == list(held)
        assert all(out.__dict__[name] is value for name, value in held.items())
        assert len(stacks) == n_built

    @pytest.mark.parametrize("copier", [
        copy.copy, copy.deepcopy, lambda out: pickle.loads(pickle.dumps(out)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_a_copy_builds_the_same_arrays_on_read(self, copier):
        lane = self._pipeline()[1]
        copied = copier(lane)
        assert not set(self.BUILT) & set(copied.__dict__)
        for name in self.BUILT:
            assert np.array_equal(getattr(copied, name), getattr(lane, name))
        assert terms(copied.exprs) == terms(lane.exprs)
        blocks = {0: np.array([[0.5, 0.2], [0.2, 0.3]])}
        assert np.array_equal(output_covariance(copied, blocks), output_covariance(lane, blocks))
        drawn = [sample_currents(o, blocks, np.random.default_rng(4)) for o in (lane, copied)]
        assert drawn[0] == drawn[1]

    @pytest.mark.parametrize("read", [False, True])
    def test_feed_forward_keeps_its_zeros_and_the_lane_rows(self, stacks, read):
        out = self._output()
        if read:
            _ = out.measured_rows
        corrected = feed_forward(out, dict.fromkeys(out.current_names, 0.5))
        assert corrected.measured_rows is out.measured_rows
        assert corrected.measured_offset is out.measured_offset
        assert corrected._current_scales is out._current_scales
        assert not np.any(corrected.classical) and corrected.classical.shape == (2, 4)
        assert corrected.offset.tolist() == [0.0, 0.0]
        assert np.any(out.classical) and np.any(out.offset)
        assert len(stacks) == 1


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


#: Input blocks that are no covariance: not finite, not symmetric or not
#: positive definite.
NOT_COVARIANCES = [
    [[1.0, 2.0], [2.0, 1.0]],
    [[1.0, 0.5], [-0.5, 1.0]],
    [[1.0, 0.0], [0.0, -1e-7]],
    [[1.0, 0.0], [0.0, 0.0]],
    [[np.nan, 0.0], [0.0, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[0.0, 0.0], [0.0, 1.0]],
    [[-1.0, 0.0], [0.0, 1.0]],
    [[1.0, np.inf], [np.inf, 1.0]],
    [[1.0, 0.0], [0.0, np.nan]],
    # the second Cholesky pivot is 1e308 - 1e318
    [[1e-320, 0.1], [0.1, 1e308]],
]
NOT_COVARIANCE_IDS = ["indefinite", "asymmetric", "negative", "singular", "nan", "inf",
                      "zero-first-pivot", "negative-first-pivot", "inf-off-diagonal",
                      "nan-last", "overflowing-pivot"]


def not_covariance_message(block) -> str:
    return (f"the input covariance block {np.array(block, dtype=float).tolist()} is not "
            "a finite, symmetric positive-definite matrix")


class TestOutputCovarianceMemory:
    def test_long_chain_peaks_far_below_the_dense_column_covariance(self):
        # the dense (2 + 4k)^2 column covariance would take 134 MB at
        # k = 1024; the two nonzero blocks of Q Sigma take 2 x (2 + 4k)
        k = 1024
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05, 10.0)
        out = run_steps((x_quad(0), y_quad(0)), [cluster] * k,
                        chain_settings(np.random.default_rng(5), k))
        tracemalloc.start()
        try:
            cov = output_covariance(out, {0: np.array([[0.5, 0.1], [0.1, 0.3]])})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cov.shape == (2, 2) and np.all(np.isfinite(cov))
        assert peak < 1_000_000


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
        # 10^4 draws of a 1-step and a 3-step chain over a correlated input
        # block, on a fixed seed: each measured quadrature's sample mean lies
        # within 4 standard errors of r0 = 0, and each entry of the sample
        # covariance within 5 standard errors sqrt((s_ii s_jj + s_ij^2) / n)
        # of R Sigma R^T
        n = 10_000
        blocks = {0: np.array([[0.5, 0.2], [0.2, 0.3]])}
        rng = np.random.default_rng(11)
        for k in (1, 3):
            clusters = [TwoNodeCluster.from_y_variances(0.05 + 0.01 * j, 0.08, 3.0)
                        for j in range(k)]
            settings = [HomodyneSetting(0.9 + 0.3 * j, 0.2 - 0.4 * j, beta_0=0.5)
                        for j in range(k)]
            out = run_steps((x_quad(0), y_quad(0)), clusters, settings)
            # beta_0 = 0.5 makes each current its measured quadrature
            draws = np.array([list(sample_currents(out, blocks, rng).values())
                              for _ in range(n)])
            R = out.measured_rows
            sigma = R @ column_cov(out, blocks) @ R.T
            var = np.diag(sigma)
            assert (np.abs(draws.mean(axis=0)) < 4.0 * np.sqrt(var / n)).all()
            bound = 5.0 * np.sqrt((np.outer(var, var) + sigma ** 2) / n)
            assert (np.abs(np.cov(draws, rowvar=False) - sigma) <= bound).all()

    @pytest.mark.parametrize("y_variance", [1e-9, 1e-12])
    def test_two_step_chain_far_from_unit_scale_samples(self, y_variance):
        # x variances of 6.25e8 and more beside these y variances once failed
        # an absolute positive-semidefinite tolerance on R Sigma R^T
        cluster = TwoNodeCluster.from_y_variances(y_variance, y_variance, 10.0)
        out = run_steps((x_quad(0), y_quad(0)), (cluster, cluster),
                        (HomodyneSetting(0.9, 0.2), HomodyneSetting(1.4, 0.6)))
        currents = sample_currents(out, {}, np.random.default_rng(3))
        assert list(currents) == list(out.current_names)
        assert all(math.isfinite(v) for v in currents.values())

    @pytest.mark.parametrize("block", NOT_COVARIANCES, ids=NOT_COVARIANCE_IDS)
    def test_input_block_that_is_no_covariance_raises(self, block):
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        out = run_steps((x_quad(0), y_quad(0)), (cluster,), (HomodyneSetting(0.9, 0.2),))
        with pytest.raises(ValueError) as info:
            sample_currents(out, {0: np.array(block)}, np.random.default_rng(0))
        assert str(info.value) == not_covariance_message(block)

    @pytest.mark.parametrize("use", [output_covariance], ids=["output_covariance"])
    @pytest.mark.parametrize("block", NOT_COVARIANCES, ids=NOT_COVARIANCE_IDS)
    def test_covariance_paths_reject_the_blocks_the_sampler_rejects(self, block, use):
        # one rule on every path that reads the input block: before it,
        # [[1, 2], [2, 1]] gave an output covariance of negative determinant
        # and [[1, 0.5], [-0.5, 1]] an asymmetric one
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        out = run_steps((x_quad(0), y_quad(0)), (cluster,), (HomodyneSetting(0.9, 0.2),))
        with pytest.raises(ValueError) as info:
            use(out, {0: np.array(block)})
        assert str(info.value) == not_covariance_message(block)

    @pytest.mark.parametrize("mode", [1, 3])
    def test_only_the_input_modes_block_is_read(self, mode):
        # blocks are keyed by mode: a block that is no covariance is not
        # read under another mode, and raises under the input mode
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        out = run_steps((x_quad(mode), y_quad(mode)), (cluster,), (HomodyneSetting(0.9, 0.2),))
        bad = NOT_COVARIANCES[0]
        others = {m: np.array(bad) for m in range(mode + 2) if m != mode}
        vacuum = output_covariance(out, {})
        assert np.array_equal(output_covariance(out, others), vacuum)
        assert np.array_equal(output_covariance(out, {mode: 0.25 * np.eye(2)}), vacuum)
        assert (sample_currents(out, others, np.random.default_rng(0))
                == sample_currents(out, {}, np.random.default_rng(0)))
        for use in (output_covariance,
                    lambda o, blocks: sample_currents(o, blocks, np.random.default_rng(0))):
            with pytest.raises(ValueError) as info:
                use(out, {**others, mode: np.array(bad)})
            assert str(info.value) == not_covariance_message(bad)

    @pytest.mark.parametrize("block", [
        [[0.25, 0.0], [0.0, 0.25]],
        [[2.0, 1.0], [1.0, 2.0]],
        [[1.0, -0.999], [-0.999, 1.0]],
        [[1e-300, 0.0], [0.0, 1e300]],
    ], ids=["vacuum", "correlated", "nearly-singular", "wide-range"])
    def test_input_block_that_is_a_covariance_is_read(self, block):
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        out = run_steps((x_quad(0), y_quad(0)), (cluster,), (HomodyneSetting(0.9, 0.2),))
        blocks = {0: np.array(block)}
        Q = quad_rows(out)
        assert np.array_equal(output_covariance(out, blocks), Q @ column_cov(out, blocks) @ Q.T)
        currents = sample_currents(out, blocks, np.random.default_rng(0))
        assert all(math.isfinite(v) for v in currents.values())

    @pytest.mark.parametrize("seed", range(3))
    def test_input_factor_is_lapacks_bit_for_bit(self, seed):
        # sample_currents factors the input block in Python floats; the
        # factor must be np.linalg.cholesky's to the bit, and the blocks it
        # rejects those LAPACK cannot factor.  Diagonal scales run over
        # 1e-12..1e12 each, correlations up to |rho| = 1 - 1e-16.
        cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
        out = run_steps((x_quad(0), y_quad(0)), (cluster,), (HomodyneSetting(0.9, 0.2),))
        rng = np.random.default_rng([24, seed])
        factored = rejected = 0
        for _ in range(4000):
            sx, sy = 10.0 ** rng.uniform(-6.0, 6.0, 2)
            rho = rng.choice([-1.0, 1.0]) * (1.0 - 10.0 ** rng.uniform(-16.0, 0.0))
            b = float(rho * sx * sy)
            block = np.array([[sx * sx, b], [b, sy * sy]])
            try:
                rows = out._input_block({0: block})[1]
            except ValueError:
                rejected += 1
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.cholesky(block)
                continue
            factored += 1
            expected = np.linalg.cholesky(block)
            got = np.array(rows)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert factored > 3000 and rejected > 0

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
        targets = [rotation(0.7) @ np.diag([3e4, 1 / 3e4]) @ rotation(-1.1)]
        for s in np.logspace(0.0, 6.0, 25):
            for a, b in rng.uniform(-math.pi, math.pi, size=(4, 2)):
                targets.append(rotation(a) @ np.diag([s, 1 / s]) @ rotation(b))
        for T in targets:
            assert solve_phases(T).residual <= PHASE_RESIDUAL_TOL

    @pytest.mark.parametrize("target", [[[2.0, 0.0], [0.0, 1.0]],
                                        [[1.0 + 1e-6, 0.0], [0.0, 1.0]]])
    def test_rejects_determinant_off_one(self, target):
        with pytest.raises(ValueError, match="determinant"):
            solve_phases(np.array(target))

    def test_residual_above_tol_raises(self, monkeypatch):
        # the closed form lands within rounding of this shear, not on it
        target = np.array([[1.0, 0.5], [0.0, 1.0]])
        residual = solve_phases(target).residual
        assert residual > 0.0
        monkeypatch.setattr(gates, "PHASE_RESIDUAL_TOL", 0.0)
        with pytest.raises(PhaseSolveError, match=f"residual {residual:.3e}"):
            solve_phases(target)


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
        a = rotation(0.7) @ np.diag([3e4, 1 / 3e4]) @ rotation(-1.1)
        assert abs(np.linalg.det(a) - 1.0) > 1e-9
        coeffs = TwoModeCoefficients(a, np.eye(2))
        assert np.array_equal(coeffs.a, a)

    def test_gain_matrix_matches_layout(self):
        s = HomodyneSetting(0.9, 0.2)
        G = gates._gains(s, math.cos(0.9), math.sin(0.9), math.cos(0.2), math.sin(0.2))
        pref = math.sqrt(2.0) / math.sin(s.theta_minus)
        np.testing.assert_allclose(
            G, pref * np.array([[math.cos(0.2), -math.cos(0.9)],
                                [-math.sin(0.2), math.sin(0.9)]]), atol=1e-15)
