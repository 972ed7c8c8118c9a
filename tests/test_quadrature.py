"""Tests for the quadrature module: expressions, symplectic maps, states, uncertainty."""

import math
import tracemalloc

import numpy as np
import pytest

from cvmbqc.cluster import ClusterGraph, generate_cluster
from cvmbqc.gates import TwoNodeCluster
from cvmbqc.laser import x_spectral_variance, y_spectral_variance
from cvmbqc.quadrature import (
    SYMMETRY_TOL,
    _SYMMETRY_STRIP_ROWS,
    GaussianState,
    LinearQuadratureExpr,
    VACUUM_VARIANCE,
    _check_symmetric,
    _partner_variance,
    check_uncertainty,
    db_to_variance,
    embed,
    expr_covariance,
    omega_matrix,
    symplectic_residual,
    variance_to_db,
    x_quad,
    y_quad,
)


def rotation(angle):
    """Single-mode phase rotation: x + i*y -> (x + i*y) * exp(i*angle)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def squeezer(r):
    """Single-mode squeezer: x scaled by exp(r), y by exp(-r)."""
    return np.diag([np.exp(r), np.exp(-r)])


def beam_splitter():
    """Two-mode 50/50 beam splitter [[1, 1], [1, -1]]/sqrt(2) on the x pair
    and on the y pair, in (x1, y1, x2, y2) order."""
    return np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]), np.eye(2)) / np.sqrt(2.0)


def random_symplectic(rng, n_modes):
    """Random product of rotations, beam splitters, and mild squeezers."""
    S = np.eye(2 * n_modes)
    for _ in range(6):
        kind = rng.integers(3)
        if kind == 0:
            mode = int(rng.integers(n_modes))
            S = embed(rotation(rng.uniform(0, 2 * np.pi)), [mode], n_modes) @ S
        elif kind == 1:
            mode = int(rng.integers(n_modes))
            S = embed(squeezer(rng.uniform(-1, 1)), [mode], n_modes) @ S
        elif n_modes >= 2:
            a, b = rng.choice(n_modes, size=2, replace=False)
            S = embed(beam_splitter(), [int(a), int(b)], n_modes) @ S
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
        assert symplectic_residual(beam_splitter()) < 1e-15

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_random_maps_are_symplectic(self, n_modes):
        rng = np.random.default_rng(7)
        for _ in range(25):
            assert symplectic_residual(random_symplectic(rng, n_modes)) < 1e-12


class TestApplySymplectic:
    """A symplectic map S acts on a covariance as S cov S^T."""

    def test_vacuum_invariant_under_beam_splitter(self):
        S = beam_splitter()
        out = S @ (VACUUM_VARIANCE * np.eye(4)) @ S.T
        np.testing.assert_allclose(out, VACUUM_VARIANCE * np.eye(4), atol=1e-15)

    def test_squeezed_mode_rotates(self):
        # diag(a, b) under a quarter turn becomes diag(b, a)
        S = rotation(np.pi / 2)
        out = S @ np.diag([0.8, 0.05]) @ S.T
        np.testing.assert_allclose(out, np.diag([0.05, 0.8]), atol=1e-15)

    def test_preserves_uncertainty(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            variances = []
            for _ in range(n):
                r = rng.uniform(-1, 1)           # squeezing
                excess = rng.uniform(1.0, 3.0)   # keeps vx*vy >= 1/16
                variances += [0.25 * excess * np.exp(r), 0.25 * np.exp(-r)]
            cov = np.diag(variances)
            assert check_uncertainty(cov).satisfied
            S = random_symplectic(rng, n)
            assert check_uncertainty(S @ cov @ S.T).satisfied


def terms(exprs):
    """The (coeffs, symbols, offset) of each expression: expressions compare
    by identity, so tests compare these."""
    return [(e.coeffs, e.symbols, e.offset) for e in exprs]


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

    def test_addition_is_exact(self):
        e = LinearQuadratureExpr({0: 2.0, 3: -3.0}, {"i": 0.5}, 1.0)
        total = e + LinearQuadratureExpr({0: 1.0}, {"j": 1.0}, 0.25)
        assert terms([total]) == [({0: 3.0, 3: -3.0}, {"i": 0.5, "j": 1.0}, 1.25)]
        assert terms([e]) == [({0: 2.0, 3: -3.0}, {"i": 0.5}, 1.0)]
        zero = e + LinearQuadratureExpr({0: -2.0, 3: 3.0}, {"i": -0.5}, -1.0)
        assert terms([zero]) == [({}, {}, 0.0)]

    def test_compared_by_identity(self):
        e = x_quad(0)
        assert e == e and e != x_quad(0)
        assert len({e, x_quad(0)}) == 2

    def test_vacuum_variance(self):
        cov = expr_covariance([x_quad(0)], VACUUM_VARIANCE * np.eye(2))
        assert cov[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_two_mode_difference_variance(self):
        # y1 - x2 over vacuum: two independent quarters sum to one half
        expr = LinearQuadratureExpr({1: 1.0, 2: -1.0})
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
            expr_covariance([y_quad(1), e], VACUUM_VARIANCE * np.eye(4))

    @pytest.mark.parametrize("column, label", [(3.0, "column 3.0"), (0.5, "column 0.5"),
                                               (100.0, "column 100.0"), ("x0", "column 'x0'")])
    def test_non_integer_column_rejected(self, column, label):
        # a float key equal to a column is still no column: it must not
        # reach numpy's indexing, and the repr must still print
        e = LinearQuadratureExpr({column: 1.0})
        message = f"unknown basis index {label} for 2 modes"
        with pytest.raises(ValueError, match=message):
            expr_covariance([x_quad(0), e], VACUUM_VARIANCE * np.eye(4))
        assert repr(e) == f"+1*{label}"

    def test_repr_names_the_columns(self):
        assert repr(LinearQuadratureExpr({4: 1.5, 1: -1.0})) == "-1*y0 +1.5*x2"
        assert repr(LinearQuadratureExpr(symbols={"i": 0.5}, offset=1.0)) == "+0.5*<i> +1"
        assert repr(LinearQuadratureExpr()) == "+0"

    def test_matches_apply_symplectic(self):
        # expressions built from the rows of a symplectic map must reproduce
        # the matrix path S cov S^T
        rng = np.random.default_rng(5)
        cov = np.diag([0.7, 0.09, 0.4, 0.16])
        for _ in range(15):
            S = random_symplectic(rng, 2)
            exprs = [LinearQuadratureExpr(dict(enumerate(row))) for row in S]
            via_exprs = expr_covariance(exprs, cov)
            via_matrix = S @ cov @ S.T
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


class TestNonFiniteCovariance:
    """A NaN or infinite entry fails the covariance check; a NaN once passed
    it, since every comparison with NaN is false."""

    BAD = [pytest.param(np.nan, id="nan"), pytest.param(np.inf, id="inf"),
           pytest.param(-np.inf, id="minus-inf")]

    @staticmethod
    def _cov(value, where):
        cov = np.diag([VACUUM_VARIANCE, 1.0])
        cov[where] = value
        return cov

    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1)])
    @pytest.mark.parametrize("value", BAD)
    def test_state_rejects(self, value, where):
        with pytest.raises(ValueError, match="^covariance entries must be finite$"):
            GaussianState(np.zeros(2), self._cov(value, where))

    @pytest.mark.parametrize("where", [(0, 0), (1, 0)])
    @pytest.mark.parametrize("value", BAD)
    def test_check_uncertainty_rejects(self, value, where):
        with pytest.raises(ValueError, match="^covariance entries must be finite$"):
            check_uncertainty(self._cov(value, where))

    def test_largest_finite_entries_pass(self):
        big = np.finfo(float).max
        GaussianState(np.zeros(2), np.diag([big, big]))


class TestSymmetryCheckEdges:
    """The symmetry check on the edges of its two reductions and of its
    bound, SYMMETRY_TOL times the largest magnitude (at least 1)."""

    @staticmethod
    def reference_check(cov):
        """The check as a plain absolute value of the whole matrix."""
        scale = float(np.max(np.abs(cov)))
        if not math.isfinite(scale):
            return "finite"
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL * max(1.0, scale):
            return "symmetric"
        return None

    @staticmethod
    def outcome(cov):
        try:
            GaussianState(np.zeros(cov.shape[0]), cov)
        except ValueError as exc:
            return str(exc).split()[-1]
        return None

    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("value", TestNonFiniteCovariance.BAD)
    def test_non_finite_first_or_last_entry(self, value, where):
        # every other entry of one sign, so only one of max and min meets it
        for sign in (1.0, -1.0):
            cov = sign * np.arange(1.0, 37.0).reshape(6, 6)
            cov = cov + cov.T
            cov.flat[0 if where == "first" else -1] = value
            with pytest.raises(ValueError, match="^covariance entries must be finite$"):
                GaussianState(np.zeros(6), cov)
            with pytest.raises(ValueError, match="^covariance entries must be finite$"):
                check_uncertainty(cov)

    @pytest.mark.parametrize("scale", [4.0, -1e4, 0.25, 1e-6],
                             ids=["largest-4", "largest-minus-1e4", "below-1", "tiny"])
    def test_asymmetry_on_the_bound(self, scale):
        # the largest magnitude sits at (0, 1) and (1, 0); the one asymmetric
        # pair is (0, 2) = 0 against (2, 0) = delta, so cov - cov.T is exact
        cov = np.diag([0.5 * abs(scale)] * 4)
        cov[0, 1] = cov[1, 0] = scale
        edge = SYMMETRY_TOL * max(1.0, abs(scale))
        cov[2, 0] = edge
        GaussianState(np.zeros(4), cov)
        check_uncertainty(cov)
        cov[2, 0] = np.nextafter(edge, np.inf)
        with pytest.raises(ValueError, match="^covariance must be symmetric$"):
            GaussianState(np.zeros(4), cov)
        with pytest.raises(ValueError, match="^covariance must be symmetric$"):
            check_uncertainty(cov)

    def test_agrees_with_the_whole_matrix_absolute_value(self):
        rng = np.random.default_rng(11)
        special = [np.nan, np.inf, -np.inf, np.finfo(float).max, -np.finfo(float).max]
        seen = set()
        for trial in range(400):
            n = 2 * int(rng.integers(1, 4))
            cov = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-8, 9)
            cov = cov + cov.T
            if trial % 3 == 0:  # an asymmetry near the bound
                i, j = rng.integers(0, n, 2)
                bound = SYMMETRY_TOL * max(1.0, float(np.max(np.abs(cov))))
                cov[i, j] += bound * rng.uniform(0.5, 2.0)
            if trial % 5 == 0:
                cov.flat[rng.integers(0, n * n)] = special[trial % len(special)]
            want = self.reference_check(cov)
            assert self.outcome(cov) == want, cov
            seen.add(want)
        assert seen == {None, "finite", "symmetric"}


STRIP = _SYMMETRY_STRIP_ROWS


class TestSymmetryStrips:
    """The strip scan's verdict against the whole-matrix formula, on sides
    that are one strip, one row short of or over a strip, and many strips."""

    SIDES = [2, 6, STRIP - 1, STRIP, STRIP + 1, 2 * STRIP + 1, 400]

    @staticmethod
    def symmetric(n, scale):
        a = np.random.default_rng(n).normal(size=(n, n)) * scale
        return a + a.T

    @staticmethod
    def pair(n, place):
        """Entry (i, j) of the one asymmetric pair: above the diagonal, except
        in the bottom-left corner.  A strip holds the pair when it holds
        row i or row j; on a side of one strip, the pair across a strip
        boundary is the corner (0, n - 1)."""
        return {"first": (0, 1),
                "last": (n - 2, n - 1),
                "boundary": (STRIP - 1, STRIP) if n > STRIP else (0, n - 1),
                "bottom-left": (n - 1, 0)}[place]

    @pytest.mark.parametrize("scale", [1e-3, 1e4], ids=["below-1", "1e4"])
    @pytest.mark.parametrize("place", ["first", "last", "boundary", "bottom-left"])
    @pytest.mark.parametrize("n", SIDES)
    def test_pair_on_and_one_ulp_above_the_bound(self, n, place, scale):
        cov = self.symmetric(n, scale)
        assert TestSymmetryCheckEdges.reference_check(cov) is None
        _check_symmetric(cov)
        # cov[i, j] - cov[j, i] is then exactly the value put at (i, j)
        i, j = self.pair(n, place)
        cov[i, j] = cov[j, i] = 0.0
        edge = SYMMETRY_TOL * max(1.0, float(np.max(np.abs(cov))))
        cov[i, j] = edge
        assert TestSymmetryCheckEdges.reference_check(cov) is None
        _check_symmetric(cov)
        cov[i, j] = np.nextafter(edge, np.inf)
        assert TestSymmetryCheckEdges.reference_check(cov) == "symmetric"
        with pytest.raises(ValueError, match="^covariance must be symmetric$"):
            _check_symmetric(cov)

    @pytest.mark.parametrize("value", TestNonFiniteCovariance.BAD)
    @pytest.mark.parametrize("n", SIDES)
    def test_non_finite_only_in_the_last_strip(self, n, value):
        cov = self.symmetric(n, 1.0)
        cov[n - 1, n - 1] = value
        assert TestSymmetryCheckEdges.reference_check(cov) == "finite"
        with pytest.raises(ValueError, match="^covariance entries must be finite$"):
            _check_symmetric(cov)

    def test_peak_memory_is_below_an_eighth_of_the_covariance(self):
        cov = self.symmetric(400, 1.0)
        tracemalloc.start()
        try:
            _check_symmetric(cov)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cov.nbytes / 8


class TestCovarianceShape:
    """An empty, non-square or not 2-D covariance fails with one named error
    before any reduction; check_uncertainty also needs an even side."""

    SHAPE = "^covariance must be a non-empty square matrix$"

    @pytest.mark.parametrize("cov", [
        np.zeros((0, 0)), np.zeros((3, 0)), np.full((2, 3), np.nan), np.full(4, np.nan),
        np.zeros((2, 2, 2)), np.float64(0.25)],
        ids=["empty", "no-columns", "non-square", "1-d", "3-d", "0-d"])
    def test_rejected(self, cov):
        with pytest.raises(ValueError, match=self.SHAPE):
            _check_symmetric(cov)
        with pytest.raises(ValueError, match=self.SHAPE):
            check_uncertainty(cov)

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError, match=self.SHAPE):
            GaussianState(np.zeros(0), np.zeros((0, 0)))

    def test_odd_side_rejected_by_check_uncertainty(self):
        with pytest.raises(ValueError, match="^covariance dimension must be even$"):
            check_uncertainty(VACUUM_VARIANCE * np.eye(3))

    def test_state_dimension_messages_kept(self):
        with pytest.raises(ValueError, match="^mean/covariance dimensions disagree$"):
            GaussianState(np.zeros(2), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="^state dimension must be even$"):
            GaussianState(np.zeros(3), VACUUM_VARIANCE * np.eye(3))


def test_db_conversion_round_trip():
    for db in (0.0, 3.0, 8.3, 15.0):
        assert variance_to_db(db_to_variance(db)) == pytest.approx(db, abs=1e-12)
    assert db_to_variance(0.0) == VACUUM_VARIANCE


class TestPartnerVariance:
    """``_partner_variance`` is the one anti-squeezing rule: it equals, bit for
    bit, each expression the sources once wrote for themselves."""

    @staticmethod
    def draws(seed=31, size=200):
        rng = np.random.default_rng(seed)
        return rng.uniform(1e-6, 10.0, size), rng.uniform(1.0, 100.0, size)

    def test_equals_the_former_expressions(self):
        ys, excesses = self.draws()
        for y, excess in zip(ys.tolist(), excesses.tolist()):
            assert _partner_variance(y, excess) == excess / (16.0 * y)
            assert _partner_variance(y) == 1.0 / (16.0 * y)

    def test_two_node_cluster(self):
        ys, excesses = self.draws()
        for v1, v2, excess in zip(ys[0::2].tolist(), ys[1::2].tolist(), excesses.tolist()):
            cluster = TwoNodeCluster.from_y_variances(v1, v2, excess)
            assert cluster.x_variances == (excess / (16.0 * v1), excess / (16.0 * v2))

    def test_generated_cluster_default(self):
        ys, _ = self.draws(size=8)
        graph = ClusterGraph.from_text("0 1 0 0; 1 0 1 0; 0 1 0 1; 0 0 1 0")
        for vy in (ys[:4].tolist(), ys[4:].tolist()):
            explicit = generate_cluster(vy, graph,
                                        source_x_variances=[1.0 / (16.0 * v) for v in vy])
            assert np.array_equal(generate_cluster(vy, graph).cov, explicit.cov)

    def test_laser_partner_of_an_array(self):
        omegas = np.logspace(-3, 3, 200)
        _, excesses = self.draws(size=5)
        for excess in excesses.tolist():
            y = y_spectral_variance(omegas, 1.3)
            assert np.array_equal(x_spectral_variance(omegas, 1.3, excess),
                                  excess / (16.0 * y))
        ys, excesses = self.draws()
        assert np.array_equal(_partner_variance(ys, excesses[0]),
                              excesses[0] / (16.0 * ys))

    @pytest.mark.parametrize("excess", [0.5, 1.0 - 2.0 ** -53, 0.0, -1.0, math.nan])
    def test_rejects_an_excess_below_one(self, excess):
        with pytest.raises(ValueError, match=r"^excess-noise factor must be >= 1$"):
            _partner_variance(0.05, excess)
