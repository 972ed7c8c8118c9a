"""Spectral model of chopped pulse trains from amplitude-squeezed lasers.

Two phase-locked lasers with regularized pumping emit stationary light whose
y quadrature is squeezed.  Periodic apertures chop each beam into pulses of
duration T separated by gaps T0.  Inside one pulse the normally ordered
correlation of the squeezed quadrature decays exponentially on the cavity
timescale 1/kappa; distinct pulses and distinct lasers are uncorrelated.

The full spectral variance (vacuum included) of the squeezed quadrature at
frequency w is

    <|dy(w)|^2> = 1/4 + F[<: dy(t) dy(t') :>](w),

which for perfect synchronization (mu = 0) closes to w^2 / (4 (kappa^2 + w^2)).
The anti-squeezed x quadrature has no closed form here; it is modelled as the
minimum-uncertainty partner 1 / (16 y_var) times an excess-noise factor of at
least 1, a plain float.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quadrature import VACUUM_VARIANCE, _partner_variance

#: Integration window of the numeric Fourier oracle, in correlation times 1/kappa.
DEFAULT_ORACLE_WINDOW = 50.0


class DivergentAntisqueezingError(ValueError):
    """Raised where the minimum-uncertainty x variance diverges (y variance 0)."""


@dataclass(frozen=True)
class PulseTrain:
    """Chopped beam geometry and laser parameters.

    duration: pulse length T; gap: dark interval T0; kappa: cavity linewidth;
    mu: phase-locking strength (0 <= mu < 1).  Pulse m starts at
    m * (T + T0), 0-based.
    """

    duration: float
    gap: float
    n_pulses: int
    kappa: float
    mu: float = 0.0

    def __post_init__(self):
        if self.duration <= 0 or self.gap <= 0:
            raise ValueError("pulse duration and gap must be positive")
        if self.n_pulses < 1:
            raise ValueError("need at least one pulse")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("mu must lie in [0, 1)")
        if self.kappa * self.duration < 10.0:
            warnings.warn(
                "kappa * T = %.3g: pulses are not long compared to the laser "
                "correlation time, the pulsed spectra lose accuracy" % (self.kappa * self.duration),
                stacklevel=2,
            )
        if self.mu > 0.1:
            warnings.warn(
                "mu = %.3g exceeds the weak-synchronization regime" % self.mu,
                stacklevel=2,
            )

    @property
    def period(self) -> float:
        return self.duration + self.gap

    def pulse_start(self, m: int) -> float:
        if not 0 <= m < self.n_pulses:
            raise ValueError(f"pulse index {m} out of range")
        return m * self.period

    def in_window(self, t: float, m: int) -> bool:
        t0 = self.pulse_start(m)
        return t0 <= t <= t0 + self.duration


def y_correlation(t: float, t_prime: float, m: int, m_prime: int,
                  train: PulseTrain, channel: int = 0, channel_prime: int = 0) -> float:
    """Normally ordered correlation of the squeezed quadrature.

    Same pulse, same laser:  -(kappa/8) * (1-mu)/(1-mu/2)
    * exp(-kappa (1-mu/2) |t-t'|) inside the pulse windows; zero otherwise.
    Distinct pulses and distinct lasers are exactly uncorrelated.
    """
    if m != m_prime or channel != channel_prime:
        return 0.0
    if not (train.in_window(t, m) and train.in_window(t_prime, m_prime)):
        return 0.0
    amp, rate = _correlation_law(train.kappa, train.mu)
    return amp * math.exp(-rate * abs(t - t_prime))


def _correlation_law(kappa: float, mu: float) -> tuple:
    """Amplitude -(kappa/8) (1-mu)/(1-mu/2) and decay rate kappa (1-mu/2)
    of the same-pulse correlation amp * exp(-rate |t - t'|)."""
    return -(kappa / 8.0) * ((1.0 - mu) / (1.0 - mu / 2.0)), kappa * (1.0 - mu / 2.0)


def y_spectral_variance(omega, kappa: float):
    """Closed-form squeezed-quadrature variance w^2 / (4 (kappa^2 + w^2)).

    Vacuum included; ranges over [0, 1/4), reaching 1/4 only asymptotically.
    Vectorized over ``omega``.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    w2 = np.square(omega)
    return w2 / (4.0 * (kappa * kappa + w2))


def y_spectral_variance_oracle(omega: float, kappa: float, mu: float = 0.0) -> float:
    """Numeric Fourier transform of the correlation function plus vacuum.

    Computes 1/4 + 2 * Integral_0^W C(tau) cos(w tau) dtau, with C the
    stationary normally ordered correlation and W = DEFAULT_ORACLE_WINDOW /
    kappa, by Filon-type quadrature (Iserles and Norsett, Proc. R. Soc. A
    461, 1383, 2005).  [0, W] is cut into exactly 100 equal panels, two
    per correlation time for every kappa.  On each panel the envelope C is
    expanded in Legendre polynomials P_0 .. P_19 from its values at the 20
    Gauss-Legendre nodes, and each term is integrated against the cosine
    exactly: on a panel of width h, Integral_-1^1 P_n(x) exp(i z x) dx =
    2 i^n j_n(z) with z = w h / 2, the same for every panel.  The panels are
    summed with ``math.fsum``.

    The method is generic: it samples C and uses no closed form of the
    transform, so it is an independent check of the closed form (exact
    agreement is expected only at mu = 0).  Its cost is fixed: 20 samples of
    C per panel, 2000 in all, for any finite w.  Its error is about
    2e-10 relative to the exact finite-window transform, tested to 1e-9 for
    w from 1e-3 kappa to 1e15 kappa; where the result is small (w << kappa
    at mu = 0) the sum 1/4 + 2 I cancels, and the relative error grows as
    about eps / (4 * result).
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if not 0.0 <= mu < 1.0:
        raise ValueError("mu must lie in [0, 1)")
    W = DEFAULT_ORACLE_WINDOW / kappa
    amp, rate = _correlation_law(kappa, mu)
    omega = abs(float(omega))

    h = W / _PANELS
    nodes, projection = _legendre_projection()
    mid = (np.arange(_PANELS) + 0.5) * h
    coeffs = amp * np.exp(-rate * (mid[:, None] + 0.5 * h * nodes)) @ projection
    # Re(exp(i w mid) i^n j_n): even n weigh cos(w mid), odd n -sin(w mid)
    j = _spherical_bessel(0.5 * omega * h, _PANEL_NODES) * _I_POWER_SIGNS
    phase = omega * mid
    panel = h * (np.cos(phase) * (coeffs[:, 0::2] @ j[0::2])
                 - np.sin(phase) * (coeffs[:, 1::2] @ j[1::2]))
    return VACUUM_VARIANCE + 2.0 * math.fsum(panel)


#: Oracle panels over the window: two per correlation time 1/kappa.
_PANELS = int(2 * DEFAULT_ORACLE_WINDOW)

#: Gauss-Legendre nodes per oracle panel; the envelope is expanded in P_0 ..
#: P_{n-1} with n this count.
_PANEL_NODES = 20

#: (-1)^(n // 2): the sign of the real or imaginary part of i^n.
_I_POWER_SIGNS = (-1.0) ** (np.arange(_PANEL_NODES) // 2)


@functools.cache
def _legendre_projection() -> tuple:
    """Gauss-Legendre nodes x_k on [-1, 1] and the matrix taking values
    f(x_k) to Legendre coefficients c_n = (n + 1/2) sum_k w_k P_n(x_k) f(x_k).

    The coefficients are those of the degree-19 interpolant at the nodes.
    numpy.polynomial is imported here, on the first call.
    """
    from numpy.polynomial.legendre import leggauss, legvander

    nodes, weights = leggauss(_PANEL_NODES)
    projection = legvander(nodes, _PANEL_NODES - 1) * (
        weights[:, None] * (np.arange(_PANEL_NODES) + 0.5))
    nodes.flags.writeable = projection.flags.writeable = False
    return nodes, projection


def _spherical_bessel(z: float, count: int) -> np.ndarray:
    """Spherical Bessel functions j_0(z) .. j_{count-1}(z) for z >= 0.

    Above z = count - 1 every order lies below its turning point, where the
    upward recurrence j_{n+1} = (2n+1)/z j_n - j_{n-1} is stable.  Elsewhere
    Miller's backward recurrence runs from order 2 count + 24, written for
    u_n = j_n (2n+1)!! / z^n so that no step divides by z:
    u_{n-1} = u_n - z^2 u_{n+1} / ((2n+1)(2n+3)).  Its result is normalised
    by sum_n (2n+1) j_n^2 = 1, which holds for every z.  Absolute error is
    a few eps.
    """
    if z > count - 1:
        s, c = math.sin(z), math.cos(z)
        j = [s / z, (s / z - c) / z]
        for n in range(1, count - 1):
            j.append((2 * n + 1) / z * j[n] - j[n - 1])
        return np.array(j)
    top = 2 * count + 24
    u = np.zeros(top + 2)
    u[top] = 1.0
    for n in range(top, 0, -1):
        u[n - 1] = u[n] - z * z * u[n + 1] / ((2 * n + 1) * (2 * n + 3))
    orders = np.arange(top + 1)
    j = u[:-1] * z ** orders / np.cumprod(2.0 * orders + 1.0)
    return j[:count] / math.sqrt(math.fsum((2.0 * orders + 1.0) * j * j))


def x_spectral_variance(omega, kappa: float, excess: float = 1.0):
    """Anti-squeezed quadrature variance excess / (16 * y_var(omega)).

    ``excess`` is the excess-noise factor: 1 gives the minimum-uncertainty
    partner, and a larger factor adds noise in the stretched quadrature,
    which leaves every criterion and gate in this package unchanged.  A
    factor below 1, or NaN, raises ValueError; it is checked before the
    divergence.  The variance diverges at omega = 0, where the squeezed
    variance vanishes; that case raises :class:`DivergentAntisqueezingError`
    rather than returning inf.  Vectorized over ``omega``.
    """
    y = y_spectral_variance(omega, kappa)
    with np.errstate(divide="ignore"):
        x = _partner_variance(y, excess)
    if np.any(y == 0.0):
        raise DivergentAntisqueezingError(
            "x variance divergent at omega = 0 under the reciprocal model")
    return x
