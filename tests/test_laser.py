"""Tests for the pulse-train correlation function and spectral variances."""

import math
import warnings

import numpy as np
import pytest

from cvmbqc.laser import (
    DEFAULT_ORACLE_WINDOW,
    MIN_ORACLE_WINDOW,
    DivergentAntisqueezingError,
    PulseTrain,
    XNoiseModel,
    x_spectral_variance,
    y_correlation,
    y_spectral_variance,
    y_spectral_variance_oracle,
)
from cvmbqc.multiplex import admissible_frequencies
from cvmbqc.quadrature import VACUUM_VARIANCE


@pytest.fixture
def train():
    return PulseTrain(duration=20.0, gap=5.0, n_pulses=4, kappa=1.0, mu=0.0)


class TestPulseTrain:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            PulseTrain(duration=0.0, gap=1.0, n_pulses=1, kappa=1.0)
        with pytest.raises(ValueError):
            PulseTrain(duration=1.0, gap=1.0, n_pulses=0, kappa=1.0)
        with pytest.raises(ValueError):
            PulseTrain(duration=20.0, gap=1.0, n_pulses=1, kappa=-1.0)
        with pytest.raises(ValueError):
            PulseTrain(duration=20.0, gap=1.0, n_pulses=1, kappa=1.0, mu=1.0)

    def test_warns_on_short_pulses(self):
        with pytest.warns(UserWarning, match="correlation time"):
            PulseTrain(duration=1.0, gap=1.0, n_pulses=1, kappa=1.0)

    def test_warns_on_strong_locking(self):
        with pytest.warns(UserWarning, match="synchronization"):
            PulseTrain(duration=20.0, gap=1.0, n_pulses=1, kappa=1.0, mu=0.5)

    def test_pulse_starts(self, train):
        assert train.pulse_start(0) == 0.0
        assert train.pulse_start(3) == 75.0
        with pytest.raises(ValueError):
            train.pulse_start(4)


class TestCorrelation:
    def test_equal_times_same_pulse(self, train):
        assert y_correlation(1.0, 1.0, 0, 0, train) == pytest.approx(-train.kappa / 8)

    def test_distinct_pulses_vanish(self, train):
        assert y_correlation(1.0, 26.0, 0, 1, train) == 0.0

    def test_distinct_lasers_vanish(self, train):
        assert y_correlation(1.0, 1.0, 0, 0, train, channel=0, channel_prime=1) == 0.0

    def test_exponential_decay(self, train):
        c0 = abs(y_correlation(1.0, 1.0, 0, 0, train))
        c5 = abs(y_correlation(1.0, 6.0, 0, 0, train))
        assert c5 == pytest.approx(c0 * math.exp(-5.0), rel=1e-12)
        assert abs(y_correlation(0.5, 19.5, 0, 0, train)) < c0 * 1e-8

    def test_outside_window_vanishes(self, train):
        assert y_correlation(21.0, 1.0, 0, 0, train) == 0.0

    def test_mu_scaling(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t = PulseTrain(duration=20.0, gap=5.0, n_pulses=1, kappa=1.0, mu=0.2)
        expected = -(1 / 8) * (0.8 / 0.9)
        assert y_correlation(1.0, 1.0, 0, 0, t) == pytest.approx(expected, rel=1e-12)


class TestSpectralVariance:
    def test_zero_frequency_is_fully_squeezed(self):
        assert y_spectral_variance(0.0, 1.0) == 0.0

    def test_at_kappa_is_one_eighth(self):
        assert y_spectral_variance(1.0, 1.0) == pytest.approx(0.125, abs=1e-15)
        # the entanglement boundary: 4 * variance = 1/2 exactly
        assert 4.0 * y_spectral_variance(1.0, 1.0) == 0.5

    def test_asymptotic_vacuum(self):
        assert y_spectral_variance(1e9, 1.0) == pytest.approx(0.25, rel=1e-12)
        assert np.all(y_spectral_variance(np.logspace(-3, 3, 50), 1.0) < 0.25)

    def test_even_and_monotone(self):
        omegas = np.linspace(0.0, 20.0, 100)
        y = y_spectral_variance(omegas, 2.0)
        np.testing.assert_array_equal(y, y_spectral_variance(-omegas, 2.0))
        assert np.all(np.diff(y) > 0)

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            y_spectral_variance(1.0, 0.0)


class TestOracle:
    def test_matches_closed_form_at_mu_zero(self):
        kappa = 1.3
        for omega in np.logspace(-3, 3, 25) * kappa:
            closed = y_spectral_variance(omega, kappa)
            numeric = y_spectral_variance_oracle(omega, kappa, 0.0)
            assert numeric == pytest.approx(closed, rel=1e-6)

    def test_zero_frequency(self):
        assert abs(y_spectral_variance_oracle(0.0, 1.0, 0.0)) < 1e-9

    def test_at_kappa(self):
        assert y_spectral_variance_oracle(1.0, 1.0, 0.0) == pytest.approx(0.125, rel=1e-6)

    def test_locking_leaves_residual_noise(self):
        # imperfect phase locking stops the vacuum term from cancelling at
        # zero frequency; the residual is (1/4)(1 - (1-mu)/(1-mu/2)^2)
        mu = 0.05
        residual = y_spectral_variance_oracle(0.0, 1.0, mu)
        expected = 0.25 * (1.0 - (1.0 - mu) / (1.0 - mu / 2.0) ** 2)
        assert residual > 0
        assert residual == pytest.approx(expected, rel=1e-9)

    def test_rejects_short_window(self):
        with pytest.raises(ValueError, match="window"):
            y_spectral_variance_oracle(1.0, 1.0, 0.0, window=5.0)


def finite_window_transform(omega, kappa, mu, window):
    """1/4 + 2 * Integral_0^W amp exp(-rate tau) cos(omega tau) dtau, exactly.

    At mu = 0 the 1/4 is cancelled analytically, so the reference keeps its
    relative accuracy where the result is small (omega << kappa)."""
    rate = kappa * (1.0 - mu / 2.0)
    amp = -(kappa / 8.0) * ((1.0 - mu) / (1.0 - mu / 2.0))
    if mu == 0.0:
        return (omega ** 2 / (4.0 * (kappa ** 2 + omega ** 2))
                + kappa ** 2 * math.exp(-kappa * window)
                * (math.cos(omega * window) - omega / kappa * math.sin(omega * window))
                / (4.0 * (kappa ** 2 + omega ** 2)))
    tail = math.exp(-rate * window) * (rate * math.cos(omega * window)
                                       - omega * math.sin(omega * window))
    return 0.25 + 2.0 * amp * (rate - tail) / (rate ** 2 + omega ** 2)


class TestOracleErrorBound:
    """The quadrature against the exact finite-window Laplace transform."""

    KAPPAS = (0.5, 1.3)
    # Both windows give panels of width 1/(2 kappa), so omega = 4 n kappa puts
    # the panel frequency w h / 2 at n: 4 pi and 8 pi are zeros of j_0, and
    # 76 is where the Bessel recurrence changes direction.  The largest
    # frequencies come first: a design whose panel count grows with omega
    # then fails on an allocation it cannot make, not on one it can.
    OMEGA_RATIOS = ((1e15, 1e9, 1e6, 4 * math.pi, 8 * math.pi, 20.0, 76.0, 76.0 + 1e-9)
                    + tuple(np.logspace(-3, 3, 61)))

    @pytest.mark.parametrize("mu", [0.0, 0.05, 0.3])
    @pytest.mark.parametrize("short", [False, True], ids=["default-window", "min-window"])
    def test_relative_error_below_1e_9(self, mu, short):
        for kappa in self.KAPPAS:
            window = MIN_ORACLE_WINDOW / kappa if short else None
            exact_window = window or DEFAULT_ORACLE_WINDOW / kappa
            for ratio in self.OMEGA_RATIOS:
                omega = ratio * kappa
                ref = finite_window_transform(omega, kappa, mu, exact_window)
                got = y_spectral_variance_oracle(omega, kappa, mu, window)
                assert abs(got - ref) <= 1e-9 * ref, (kappa, omega)

    @pytest.mark.parametrize("short", [False, True], ids=["default-window", "min-window"])
    def test_zero_frequency(self, short):
        for kappa in self.KAPPAS:
            window = MIN_ORACLE_WINDOW / kappa if short else None
            exact_window = window or DEFAULT_ORACLE_WINDOW / kappa
            # e^{-kappa W} / 4: about 5e-23 at the default window, 5.2e-10 at the short one
            ref = finite_window_transform(0.0, kappa, 0.0, exact_window)
            assert ref == pytest.approx(math.exp(-kappa * exact_window) / 4.0, rel=1e-12)
            assert abs(y_spectral_variance_oracle(0.0, kappa, 0.0, window) - ref) <= 1e-15
            for mu in (0.05, 0.3):
                ref = finite_window_transform(0.0, kappa, mu, exact_window)
                got = y_spectral_variance_oracle(0.0, kappa, mu, window)
                assert abs(got - ref) <= 1e-9 * ref

    def test_even_in_omega(self):
        for omega in (0.3, 7.0, 1e9):
            assert y_spectral_variance_oracle(-omega, 1.0, 0.05) == \
                y_spectral_variance_oracle(omega, 1.0, 0.05)

    def test_integrand_samples_do_not_depend_on_omega(self, monkeypatch):
        # 20 samples on each of ceil(2 kappa W) panels, whatever omega is
        sizes = []
        real_exp = np.exp

        def counting_exp(x, *args, **kwargs):
            sizes.append(np.size(x))
            return real_exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        for omega in (1e300, 1e15, 1e3, 1.0, 1e-3, 0.0):
            sizes.clear()
            y_spectral_variance_oracle(omega, 1.3)
            assert sizes == [100 * 20]
        sizes.clear()
        y_spectral_variance_oracle(1e15, 1.3, window=MIN_ORACLE_WINDOW / 1.3)
        assert sizes == [40 * 20]


def _whole_pulse_covariance(train, m, m_prime, channel, channel_prime, n=21):
    """Riemann sum of the correlation over two pulse windows (k = 0 modes)."""
    ts = np.linspace(0.0, train.duration, n)
    step = ts[1] - ts[0]
    t0, t0p = train.pulse_start(m), train.pulse_start(m_prime)
    return sum(y_correlation(t0 + t, t0p + tp, m, m_prime, train, channel, channel_prime)
               for t in ts for tp in ts) * step * step


class TestGridsAndWholePulse:
    def test_direct_formula(self, train):
        omegas = admissible_frequencies(train.period, [1])
        assert omegas[-1] == pytest.approx(2 * math.pi / 25.0, rel=1e-15)

    def test_whole_pulse_mode(self, train):
        # the k = 0 admissible frequency is the whole-pulse mode: fully squeezed
        # ideally, with the single-quadrature commutator normalization 1/4
        assert admissible_frequencies(train.period, [0])[0] == 0.0
        assert y_spectral_variance(0.0, train.kappa) == 0.0
        assert VACUUM_VARIANCE == 0.25

    def test_whole_pulse_correlations(self, train):
        assert _whole_pulse_covariance(train, 0, 0, 0, 0) < 0.0
        assert _whole_pulse_covariance(train, 0, 1, 0, 0) == 0.0
        assert _whole_pulse_covariance(train, 0, 0, 0, 1) == 0.0


class TestXModel:
    def test_minimum_uncertainty_at_kappa(self):
        assert x_spectral_variance(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_excess_noise_scales(self):
        assert x_spectral_variance(1.0, 1.0, XNoiseModel(4.0)) == \
            pytest.approx(2.0, abs=1e-14)

    def test_uncertainty_product_everywhere(self):
        omegas = np.logspace(-3, 3, 60)
        for model in (XNoiseModel(1.0), XNoiseModel(7.0)):
            x = x_spectral_variance(omegas, 1.0, model)
            y = y_spectral_variance(omegas, 1.0)
            assert np.all(x * y >= 1.0 / 16.0 - 1e-15)

    def test_divergent_at_zero(self):
        with pytest.raises(DivergentAntisqueezingError, match="divergent"):
            x_spectral_variance(0.0, 1.0)

    def test_rejects_factor_below_one(self):
        with pytest.raises(ValueError):
            XNoiseModel(0.5)
