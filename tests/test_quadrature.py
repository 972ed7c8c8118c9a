"""Tests for the quadrature algebra: symplectic maps, states, uncertainty."""

import numpy as np
import pytest

from cvmbqc.quadrature import (
    GaussianState,
    LinearQuadratureExpr,
    VACUUM_VARIANCE,
    apply_symplectic,
    check_uncertainty,
    db_to_variance,
    embed,
    expr_covariance,
    is_symplectic,
    omega_matrix,
    phase_rotation,
    squeezing,
    symmetric_beam_splitter,
    symplectic_residual,
    variance_to_db,
    x_quad,
    y_quad,
)


def random_symplectic(rng, n_modes):
    """Random product of rotations, beam splitters, and mild squeezers."""
    S = np.eye(2 * n_modes)
    for _ in range(6):
        kind = rng.integers(3)
        if kind == 0:
            mode = int(rng.integers(n_modes))
            S = embed(phase_rotation(rng.uniform(0, 2 * np.pi)), [mode], n_modes) @ S
        elif kind == 1:
            mode = int(rng.integers(n_modes))
            S = embed(squeezing(rng.uniform(-1, 1)), [mode], n_modes) @ S
        elif n_modes >= 2:
            a, b = rng.choice(n_modes, size=2, replace=False)
            S = embed(symmetric_beam_splitter(), [int(a), int(b)], n_modes) @ S
    return S


class TestSymplecticForms:
    def test_omega_blocks(self):
        omega = omega_matrix(2)
        expected = np.array([[0, 1, 0, 0], [-1, 0, 0, 0],
                             [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)
        np.testing.assert_array_equal(omega, expected)

    def test_symplectic_residual(self):
        # 2I maps Omega to 4 Omega, a residual of 3; a beam splitter has none
        assert symplectic_residual(np.eye(4)) == 0.0
        assert symplectic_residual(2.0 * np.eye(2)) == 3.0
        assert symplectic_residual(symmetric_beam_splitter()) < 1e-15
        assert not is_symplectic(2.0 * np.eye(2)) and is_symplectic(np.eye(2))

    def test_phase_rotation_zero_is_identity(self):
        np.testing.assert_allclose(phase_rotation(0.0), np.eye(2), atol=1e-15)

    def test_phase_rotation_quarter_turn(self):
        # multiplying x + iy by i sends (x, y) to (-y, x)
        S = phase_rotation(np.pi / 2)
        np.testing.assert_allclose(S @ np.array([1.0, 0.0]), [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(S @ np.array([0.0, 1.0]), [-1.0, 0.0], atol=1e-15)

    def test_phase_rotation_inverse_composition(self):
        S = phase_rotation(np.pi / 2) @ phase_rotation(-np.pi / 2)
        np.testing.assert_allclose(S, np.eye(2), atol=1e-15)

    def test_beam_splitter_is_involutory(self):
        B = symmetric_beam_splitter()
        np.testing.assert_allclose(B @ B, np.eye(4), atol=1e-15)

    def test_beam_splitter_mixing(self):
        B = symmetric_beam_splitter()
        h = 1 / np.sqrt(2)
        # (x1, x2) -> ((x1+x2)/sqrt2, (x1-x2)/sqrt2)
        x1 = np.array([1.0, 0.0, 0.0, 0.0])
        x2 = np.array([0.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(B @ x1, [h, 0, h, 0], atol=1e-15)
        np.testing.assert_allclose(B @ x2, [h, 0, -h, 0], atol=1e-15)

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_random_maps_are_symplectic(self, n_modes):
        rng = np.random.default_rng(7)
        omega = omega_matrix(n_modes)
        for _ in range(25):
            S = random_symplectic(rng, n_modes)
            assert np.max(np.abs(S @ omega @ S.T - omega)) < 1e-12


class TestApplySymplectic:
    def test_identity_leaves_state(self):
        state = GaussianState.vacuum(2)
        out = apply_symplectic(state, np.eye(4))
        np.testing.assert_array_equal(out.cov, state.cov)

    def test_vacuum_invariant_under_beam_splitter(self):
        state = GaussianState.vacuum(2)
        out = apply_symplectic(state, symmetric_beam_splitter())
        np.testing.assert_allclose(out.cov, VACUUM_VARIANCE * np.eye(4), atol=1e-15)

    def test_squeezed_mode_rotates(self):
        # diag(a, b) under a quarter turn becomes diag(b, a)
        state = GaussianState(np.zeros(2), np.diag([0.8, 0.05]))
        out = apply_symplectic(state, phase_rotation(np.pi / 2))
        np.testing.assert_allclose(out.cov, np.diag([0.05, 0.8]), atol=1e-15)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            apply_symplectic(GaussianState.vacuum(1), np.eye(4))

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError, match="symplectic"):
            apply_symplectic(GaussianState.vacuum(1), 2.0 * np.eye(2))

    def test_composition_matches_product(self):
        rng = np.random.default_rng(3)
        state = GaussianState.squeezed_vacuum([(0.5, 0.125), (0.3, 0.21)])
        for _ in range(20):
            S1 = random_symplectic(rng, 2)
            S2 = random_symplectic(rng, 2)
            a = apply_symplectic(apply_symplectic(state, S1), S2)
            b = apply_symplectic(state, S2 @ S1)
            assert np.max(np.abs(a.cov - b.cov)) < 1e-12
            assert np.max(np.abs(a.mean - b.mean)) < 1e-12

    def test_preserves_uncertainty(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            pairs = []
            for _ in range(n):
                r = rng.uniform(-1, 1)           # squeezing
                excess = rng.uniform(1.0, 3.0)   # keeps vx*vy >= 1/16
                pairs.append((0.25 * excess * np.exp(r), 0.25 * np.exp(-r)))
            state = GaussianState.squeezed_vacuum(pairs)
            assert check_uncertainty(state.cov).satisfied
            out = apply_symplectic(state, random_symplectic(rng, n))
            assert check_uncertainty(out.cov).satisfied


class TestExprAlgebra:
    def test_quadrature_index_validation(self):
        # x_m is covariance column 2m and y_m is 2m + 1, for an integer m >= 0
        assert x_quad(2).coeffs == {4: 1.0} and y_quad(2).coeffs == {5: 1.0}
        assert x_quad(np.int64(2)).coeffs == {4: 1.0}
        for quad in (x_quad, y_quad):
            with pytest.raises(ValueError, match="nonnegative integer"):
                quad(-1)
            # 2 * 1.5 = 3.0 would hash as column 3, which is y1
            with pytest.raises(ValueError, match="nonnegative integer"):
                quad(1.5)

    def test_linear_ops_are_exact(self):
        e = 2.0 * x_quad(0) - 3.0 * y_quad(1)
        assert e.coeffs[0] == 2.0
        assert e.coeffs[3] == -3.0
        zero = e - e
        assert not zero.coeffs and zero.offset == 0.0

    def test_symbol_bookkeeping(self):
        e = x_quad(0) + LinearQuadratureExpr(symbols={"i": 0.5}, offset=1.0)
        sub = e.substitute({"i": 4.0})
        assert sub.offset == 3.0 and not sub.symbols
        assert sub.coeffs == x_quad(0).coeffs

    def test_vacuum_variance(self):
        cov = expr_covariance([x_quad(0)], VACUUM_VARIANCE * np.eye(2))
        assert cov[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_two_mode_difference_variance(self):
        # y1 - x2 over vacuum: two independent quarters sum to one half
        expr = y_quad(0) - x_quad(1)
        cov = expr_covariance([expr], VACUUM_VARIANCE * np.eye(4))
        assert cov[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_unknown_index_rejected(self):
        with pytest.raises(ValueError, match="unknown basis index"):
            expr_covariance([x_quad(3)], VACUUM_VARIANCE * np.eye(4))
        with pytest.raises(ValueError, match="at least one expression"):
            expr_covariance([], VACUUM_VARIANCE * np.eye(4))

    @pytest.mark.parametrize("column, label", [(-1, "y-1"), (-2, "x-1"), (4, "x2"), (7, "y3")])
    def test_column_outside_the_modes_rejected(self, column, label):
        # a negative column must not wrap round to the last ones
        e = x_quad(0) + LinearQuadratureExpr({column: 1.0})
        message = f"unknown basis index {label} for 2 modes"
        with pytest.raises(ValueError, match=message):
            e.coefficient_vector(2)
        with pytest.raises(ValueError, match=message):
            expr_covariance([y_quad(1), e], VACUUM_VARIANCE * np.eye(4))

    def test_repr_names_the_columns(self):
        assert repr(1.5 * x_quad(2) - y_quad(0)) == "-1*y0 +1.5*x2"
        assert repr(LinearQuadratureExpr(symbols={"i": 0.5}, offset=1.0)) == "+0.5*<i> +1"
        assert repr(LinearQuadratureExpr()) == "+0"

    def test_matches_apply_symplectic(self):
        # expressions built from the rows of a symplectic map must reproduce
        # the matrix path S cov S^T
        rng = np.random.default_rng(5)
        state = GaussianState.squeezed_vacuum([(0.7, 0.09), (0.4, 0.16)])
        for _ in range(15):
            S = random_symplectic(rng, 2)
            basis = [x_quad(0), y_quad(0), x_quad(1), y_quad(1)]
            exprs = [sum((S[r, c] * basis[c] for c in range(4)),
                         LinearQuadratureExpr()) for r in range(4)]
            via_exprs = expr_covariance(exprs, state.cov)
            via_matrix = apply_symplectic(state, S).cov
            assert np.max(np.abs(via_exprs - via_matrix)) < 1e-12


class TestUncertainty:
    def test_vacuum_passes(self):
        report = check_uncertainty(VACUUM_VARIANCE * np.eye(2))
        assert report.satisfied and bool(report)

    def test_below_bound_fails(self):
        report = check_uncertainty(np.diag([0.125, 0.125]))
        assert not report.satisfied
        assert report.min_eigenvalue == pytest.approx(-0.125, abs=1e-12)

    def test_squeezed_on_boundary_passes(self):
        # diag(1/8, 1/2) has symplectic eigenvalue exactly 1/4
        report = check_uncertainty(np.diag([0.125, 0.5]))
        assert report.satisfied
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            check_uncertainty(np.array([[0.25, 0.1], [0.0, 0.25]]))

    def test_symmetry_check_is_relative(self):
        # a 1e10-scale covariance, as a long chain of wide-angle steps
        # produces, with a few ulps of asymmetry is accepted
        cov = np.array([[4.0e10, 1.5e10], [1.5e10, 2.0e10]])
        cov[0, 1] += 4 * np.spacing(cov[0, 1])
        assert cov[0, 1] != cov[1, 0]
        assert check_uncertainty(cov).satisfied
        GaussianState(np.zeros(2), cov)
        # a real asymmetry at that scale is still rejected, and for entries
        # up to 1 the bound stays the absolute 1e-12
        cov[0, 1] += 1e3
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(np.zeros(2), cov)
        with pytest.raises(ValueError, match="symmetric"):
            check_uncertainty(np.array([[0.25, 0.1], [0.1 + 2e-12, 0.25]]))


def test_db_conversion_round_trip():
    for db in (0.0, 3.0, 8.3, 15.0):
        assert variance_to_db(db_to_variance(db)) == pytest.approx(db, abs=1e-12)
    assert db_to_variance(0.0) == VACUUM_VARIANCE
