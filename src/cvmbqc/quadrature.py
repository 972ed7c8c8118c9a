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
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Vacuum variance of a single quadrature in the [x, y] = i/2 convention.
VACUUM_VARIANCE = 0.25

#: Tolerance for the symplectic condition S @ Omega @ S.T == Omega.
SYMPLECTIC_TOL = 1e-12

#: Tolerance for the uncertainty bound Sigma + (i/4) Omega >= 0.
UNCERTAINTY_TOL = 1e-10


def _label(col: int) -> str:
    """Name of covariance column ``col``: x_m for 2m, y_m for 2m + 1."""
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

    def coefficient_vector(self, n_modes: int) -> np.ndarray:
        """Dense coefficient vector over the first ``n_modes`` modes."""
        return _coefficient_matrix((self,), n_modes)[0]

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

    # -- classical bookkeeping -------------------------------------------

    def substitute(self, values: Mapping[str, float]) -> "LinearQuadratureExpr":
        """Replace classical symbols by numeric values, folding into the offset."""
        offset = self.offset
        symbols = {}
        for name, c in self.symbols.items():
            if name in values:
                offset += c * float(values[name])
            else:
                symbols[name] = c
        return LinearQuadratureExpr(self.coeffs, symbols, offset)

    def __repr__(self):
        parts = [f"{c:+g}*{_label(col)}" for col, c in sorted(self.coeffs.items())]
        parts += [f"{c:+g}*<{name}>" for name, c in sorted(self.symbols.items())]
        if self.offset or not parts:
            parts.append(f"{self.offset:+g}")
        return " ".join(parts)


def _coefficient_matrix(exprs: Sequence[LinearQuadratureExpr], n_modes: int) -> np.ndarray:
    """Coefficient vectors of ``exprs`` over the first ``n_modes`` modes, one per row."""
    C = np.zeros((len(exprs), 2 * n_modes))
    for r, e in enumerate(exprs):
        for col, c in e.coeffs.items():
            if not 0 <= col < 2 * n_modes:
                raise ValueError(f"unknown basis index {_label(col)} for {n_modes} modes")
            C[r, col] = c
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


def is_symplectic(S: np.ndarray, tol: float = SYMPLECTIC_TOL) -> bool:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2:
        return False
    return symplectic_residual(S) < tol


def assert_symplectic(S: np.ndarray, tol: float = SYMPLECTIC_TOL) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if not is_symplectic(S, tol):
        raise ValueError("matrix is not symplectic within tolerance")
    return S


def phase_rotation(angle: float) -> np.ndarray:
    """Single-mode phase rotation: x + i*y -> (x + i*y) * exp(i*angle)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def squeezing(r: float) -> np.ndarray:
    """Single-mode squeezer: y variance scaled by exp(-2r), x by exp(+2r)."""
    return np.array([[math.exp(r), 0.0], [0.0, math.exp(-r)]])


def symmetric_beam_splitter() -> np.ndarray:
    """Two-mode 50/50 beam splitter acting as [[1,1],[1,-1]]/sqrt(2).

    The same mixing is applied to the x pair and to the y pair, so the map
    is orthogonal, symplectic, and self-inverse.
    """
    h = 1.0 / math.sqrt(2.0)
    S = np.zeros((4, 4))
    for q in (0, 1):  # x block then y block
        S[q, q] = h
        S[q, q + 2] = h
        S[q + 2, q] = h
        S[q + 2, q + 2] = -h
    return S


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


def _check_symmetric(cov: np.ndarray) -> None:
    if abs(cov - cov.T).max() > SYMMETRY_TOL * max(1.0, float(abs(cov).max())):
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

    @classmethod
    def vacuum(cls, n_modes: int) -> "GaussianState":
        return cls(np.zeros(2 * n_modes), VACUUM_VARIANCE * np.eye(2 * n_modes))

    @classmethod
    def squeezed_vacuum(cls, variances: Iterable[tuple]) -> "GaussianState":
        """Product state with per-mode quadrature variances (var_x, var_y)."""
        diag = []
        for vx, vy in variances:
            if vx <= 0 or vy <= 0:
                raise ValueError("quadrature variances must be positive")
            diag += [vx, vy]
        return cls(np.zeros(len(diag)), np.diag(diag))


def apply_symplectic(state: GaussianState, S: np.ndarray) -> GaussianState:
    """Heisenberg update: mean -> S mean, cov -> S cov S^T."""
    S = np.asarray(S, dtype=float)
    if S.shape != (state.mean.size, state.mean.size):
        raise ValueError("symplectic map dimension does not match the state")
    assert_symplectic(S)
    return GaussianState(S @ state.mean, S @ state.cov @ S.T)


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


def check_uncertainty(cov: np.ndarray, tol: float = UNCERTAINTY_TOL) -> UncertaintyReport:
    """Check the bound Sigma + (i/4) Omega >= 0 up to ``tol``.

    The matrix Sigma + (i/4) Omega is Hermitian, so the bound holds iff its
    smallest eigenvalue is >= -tol.
    """
    cov = np.asarray(cov, dtype=float)
    _check_symmetric(cov)
    omega = omega_matrix(cov.shape[0] // 2)
    eigs = np.linalg.eigvalsh(cov + 0.25j * omega)
    lo = float(np.min(eigs))
    return UncertaintyReport(lo >= -tol, lo)


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
