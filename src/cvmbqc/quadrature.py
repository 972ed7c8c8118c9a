"""Quadrature-operator algebra for multimode Gaussian states.

Conventions used throughout the package:

* Each optical mode carries a quadrature pair (x, y) obeying [x, y] = i/2,
  so the vacuum variance of every quadrature is 1/4.
* Quadratures are ordered mode by mode, (x_0, y_0, x_1, y_1, ...); the 2x2
  block of mode j occupies rows/columns 2j and 2j + 1.  Expressions key
  their coefficients by the same column: x_m is 2m and y_m is 2m + 1.
* A phase rotation by angle phi multiplies the complex amplitude x + i*y
  by exp(i*phi).
* Classical quantities (photocurrent records, local-oscillator amplitudes)
  ride along as symbolic offsets on operator expressions and never enter
  covariances.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Vacuum variance of a single quadrature in the [x, y] = i/2 convention.
VACUUM_VARIANCE = 0.25

#: Tolerance for the symplectic condition S @ Omega @ S.T == Omega.
SYMPLECTIC_TOL = 1e-12

#: Tolerance for the uncertainty bound Sigma + (i/4) Omega >= 0.
UNCERTAINTY_TOL = 1e-10


def _label(col) -> str:
    """Name of covariance column ``col``: x_m for 2m, y_m for 2m + 1.

    A key that is not an integer, such as 3.0, is no column; it is named by
    its repr.
    """
    try:
        col = operator.index(col)
    except TypeError:
        return f"column {col!r}"
    return f"{'xy'[col % 2]}{col // 2}"


class LinearQuadratureExpr:
    """Real linear combination of mode quadratures plus a classical part.

    The quantum part is a finite map ``column -> coefficient`` over the
    interleaved covariance columns (x_m is 2m, y_m is 2m + 1).
    The classical part is a numeric ``offset`` plus named classical symbols
    (photocurrent records and the like) with real coefficients.  Classical
    terms never contribute to covariances.

    Instances are immutable by convention: all arithmetic returns new
    expressions and the stored dicts must not be mutated.
    """

    __slots__ = ("coeffs", "symbols", "offset")

    def __init__(self, coeffs=None, symbols=None, offset=0.0):
        self.coeffs = {k: float(v) for k, v in (coeffs or {}).items() if v != 0.0}
        self.symbols = {k: float(v) for k, v in (symbols or {}).items() if v != 0.0}
        self.offset = float(offset)

    @classmethod
    def _from_clean(cls, coeffs: dict, symbols: dict, offset: float) -> "LinearQuadratureExpr":
        """Wrap dicts and an offset already as the constructor leaves them:
        nonzero Python-float values and a Python-float offset.  Nothing is
        copied or checked, so callers hand over fresh dicts."""
        expr = object.__new__(cls)
        expr.coeffs, expr.symbols, expr.offset = coeffs, symbols, offset
        return expr

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "LinearQuadratureExpr") -> "LinearQuadratureExpr":
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0.0) + v
        symbols = dict(self.symbols)
        for k, v in other.symbols.items():
            symbols[k] = symbols.get(k, 0.0) + v
        return LinearQuadratureExpr(coeffs, symbols, self.offset + other.offset)

    def __sub__(self, other: "LinearQuadratureExpr") -> "LinearQuadratureExpr":
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "LinearQuadratureExpr":
        s = float(scalar)
        return LinearQuadratureExpr(
            {k: s * v for k, v in self.coeffs.items()},
            {k: s * v for k, v in self.symbols.items()},
            s * self.offset,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "LinearQuadratureExpr":
        return (-1.0) * self

    # -- inspection ------------------------------------------------------

    def canonical(self):
        """Hashable canonical form, used for exact comparisons."""
        return (
            tuple(sorted(self.coeffs.items())),
            tuple(sorted(self.symbols.items())),
            self.offset,
        )

    def __eq__(self, other):
        if not isinstance(other, LinearQuadratureExpr):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        parts = [f"{c:+g}*{_label(col)}" for col, c in sorted(self.coeffs.items())]
        parts += [f"{c:+g}*<{name}>" for name, c in sorted(self.symbols.items())]
        if self.offset or not parts:
            parts.append(f"{self.offset:+g}")
        return " ".join(parts)


def _coefficient_matrix(exprs: Sequence[LinearQuadratureExpr], n_modes: int) -> np.ndarray:
    """Coefficient vectors of ``exprs`` over the first ``n_modes`` modes, one per row."""
    C = np.zeros((len(exprs), 2 * n_modes))
    try:
        for r, e in enumerate(exprs):
            for col, c in e.coeffs.items():
                if not 0 <= col < 2 * n_modes:
                    raise IndexError
                C[r, col] = c
    except (TypeError, IndexError):  # out of range, or no integer column (e.g. 3.0)
        raise ValueError(f"unknown basis index {_label(col)} for {n_modes} modes") from None
    return C


def _mode_column(mode: int) -> int:
    """Column 2m of x_m, for a nonnegative integer mode m."""
    try:
        m = operator.index(mode)
    except TypeError:
        raise ValueError(f"mode must be a nonnegative integer, got {mode!r}") from None
    if m < 0:
        raise ValueError(f"mode must be a nonnegative integer, got {mode!r}")
    return 2 * m


def x_quad(mode: int) -> LinearQuadratureExpr:
    """Unit expression for the x quadrature of ``mode`` (column 2 mode)."""
    return LinearQuadratureExpr({_mode_column(mode): 1.0})


def y_quad(mode: int) -> LinearQuadratureExpr:
    """Unit expression for the y quadrature of ``mode`` (column 2 mode + 1)."""
    return LinearQuadratureExpr({_mode_column(mode) + 1: 1.0})


# ---------------------------------------------------------------------------
# Symplectic maps
# ---------------------------------------------------------------------------

def omega_matrix(n_modes: int) -> np.ndarray:
    """Symplectic form in the interleaved ordering: blockdiag of [[0,1],[-1,0]]."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return omega


def symplectic_residual(S: np.ndarray) -> float:
    """Largest entry of |S Omega S^T - Omega| for a square 2n x 2n map S."""
    S = np.asarray(S, dtype=float)
    omega = omega_matrix(S.shape[0] // 2)
    return float(np.max(np.abs(S @ omega @ S.T - omega)))


def embed(S_small: np.ndarray, modes: Sequence[int], n_modes: int) -> np.ndarray:
    """Embed a k-mode map into an ``n_modes``-mode identity on ``modes``."""
    S_small = np.asarray(S_small, dtype=float)
    k = S_small.shape[0] // 2
    if len(modes) != k:
        raise ValueError("mode list length does not match map size")
    S = np.eye(2 * n_modes)
    for a, ma in enumerate(modes):
        for b, mb in enumerate(modes):
            S[2 * ma:2 * ma + 2, 2 * mb:2 * mb + 2] = S_small[2 * a:2 * a + 2, 2 * b:2 * b + 2]
    return S


# ---------------------------------------------------------------------------
# Gaussian states
# ---------------------------------------------------------------------------

#: Symmetry tolerance of a covariance, relative to its largest entry (at least 1).
SYMMETRY_TOL = 1e-12


#: Rows of one strip of the symmetry check.  A strip of a 400 x 400
#: covariance takes 100 KiB: an eighth of the covariance, and below glibc's
#: default 128 KiB threshold for serving an allocation from fresh pages.
_SYMMETRY_STRIP_ROWS = 32


def _check_symmetric(cov: np.ndarray) -> None:
    """Reject an empty, non-square or not 2-D covariance, one with a NaN or
    infinite entry, or one that is not symmetric to ``SYMMETRY_TOL`` times
    its largest entry (at least 1).

    The largest magnitude is read from the two reductions max and min, which
    carry a NaN through.  The asymmetry cov - cov.T is antisymmetric, so its
    largest entry is its largest magnitude.  It is read in strips of
    h = ``_SYMMETRY_STRIP_ROWS`` rows, formed one after another in one
    buffer of h rows, so a check never allocates an array of the
    covariance's size.  The buffer takes a copy of the strip's transposed
    columns, and the strip's rows are subtracted into it in place: a
    subtraction that reads a transposed operand would allocate numpy's own
    buffer of up to 8192 entries.  A covariance of at most h rows is one
    strip, formed as cov - cov.T.
    """
    shape = cov.shape
    if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
        raise ValueError("covariance must be a non-empty square matrix")
    hi, lo = float(np.maximum.reduce(cov, None)), float(np.minimum.reduce(cov, None))
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError("covariance entries must be finite")
    bound = SYMMETRY_TOL * max(1.0, hi, -lo)
    n, h = shape[0], _SYMMETRY_STRIP_ROWS
    if n <= h:
        if np.maximum.reduce(cov - cov.T, None) > bound:
            raise ValueError("covariance must be symmetric")
        return
    buffer = np.empty((h, n))
    for r in range(0, n, h):
        strip = buffer[:n - r]  # fewer than h rows only at the end
        np.copyto(strip, cov[:, r:r + h].T)
        np.subtract(cov[r:r + h], strip, out=strip)
        if np.maximum.reduce(strip, None) > bound:
            raise ValueError("covariance must be symmetric")


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state given by its quadrature mean vector and covariance.

    ``mean`` has length 2n and ``cov`` is a symmetric 2n x 2n matrix in the
    interleaved ordering.  The vacuum covariance is (1/4) * identity.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean/covariance dimensions disagree")
        if mean.size % 2:
            raise ValueError("state dimension must be even")
        _check_symmetric(cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


def expr_covariance(exprs: Sequence[LinearQuadratureExpr],
                    source_cov: np.ndarray) -> np.ndarray:
    """Covariance matrix of linear expressions over correlated sources.

    Entry (i, j) is c_i^T @ source_cov @ c_j with c_i the coefficient vector
    of ``exprs[i]``; classical symbols and offsets are ignored.
    """
    source_cov = np.asarray(source_cov, dtype=float)
    n_modes = source_cov.shape[0] // 2
    if not len(exprs):
        raise ValueError("need at least one expression")
    C = _coefficient_matrix(exprs, n_modes)
    return C @ source_cov @ C.T


@dataclass(frozen=True)
class UncertaintyReport:
    """Result of the uncertainty-bound check, with the worst eigenvalue."""

    satisfied: bool
    min_eigenvalue: float

    def __bool__(self):
        return self.satisfied


def check_uncertainty(cov: np.ndarray) -> UncertaintyReport:
    """Check the bound Sigma + (i/4) Omega >= 0 up to UNCERTAINTY_TOL.

    The matrix Sigma + (i/4) Omega is Hermitian, so the bound holds iff its
    smallest eigenvalue is >= -UNCERTAINTY_TOL.
    """
    cov = np.asarray(cov, dtype=float)
    _check_symmetric(cov)
    if cov.shape[0] % 2:
        raise ValueError("covariance dimension must be even")
    omega = omega_matrix(cov.shape[0] // 2)
    eigs = np.linalg.eigvalsh(cov + 0.25j * omega)
    lo = float(np.min(eigs))
    return UncertaintyReport(lo >= -UNCERTAINTY_TOL, lo)


# ---------------------------------------------------------------------------
# Squeezing in decibels
# ---------------------------------------------------------------------------

def variance_to_db(variance: float) -> float:
    """Squeezing in dB below the vacuum level: -10*log10(v / 0.25)."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    return -10.0 * math.log10(variance / VACUUM_VARIANCE)


def db_to_variance(db: float) -> float:
    """Inverse of :func:`variance_to_db`, e.g. 8.3 dB -> about 0.037."""
    return VACUUM_VARIANCE * 10.0 ** (-db / 10.0)


def _partner_variance(y, excess: float = 1.0):
    """Anti-squeezed partner excess / (16 y) of a squeezed variance y, a
    float or an array: the minimum-uncertainty partner 1 / (16 y) times an
    excess-noise factor, which is checked first and must be at least 1."""
    if not excess >= 1.0:  # NaN fails too
        raise ValueError("excess-noise factor must be >= 1")
    return excess / (16.0 * y)
