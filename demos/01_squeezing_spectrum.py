"""Squeezed-light spectra of the chopped laser pulses.

Walks through the spectral model of one pulsed amplitude-squeezed laser:
the in-pulse correlation function, the closed-form squeezed-quadrature
variance, the independent numeric Fourier check, and the anti-squeezed
partner quadrature.
"""

import numpy as np

from cvmbqc import (
    PulseTrain,
    variance_to_db,
    x_spectral_variance,
    y_correlation,
    y_spectral_variance,
    y_spectral_variance_oracle,
)

kappa = 1.0  # cavity linewidth sets the only timescale
train = PulseTrain(duration=40.0, gap=8.0, n_pulses=4, kappa=kappa)

print("=== in-pulse correlation of the squeezed quadrature ===")
print("same time, same pulse:        %.6f  (equals -kappa/8)"
      % y_correlation(1.0, 1.0, 0, 0, train))
print("5 correlation times apart:    %.6f" % y_correlation(1.0, 6.0, 0, 0, train))
print("different pulses:             %.6f" % y_correlation(1.0, 49.0, 0, 1, train))
print("different lasers:             %.6f"
      % y_correlation(1.0, 1.0, 0, 0, train, channel=0, channel_prime=1))

print()
print("=== spectral variance of the squeezed quadrature ===")
print("The full variance (vacuum included) is w^2 / (4 (kappa^2 + w^2)):")
print(f"{'omega/kappa':>12} {'y_var':>12} {'4*y_var':>12} {'squeezing dB':>13} {'oracle rel err':>15}")
for w in (0.0, 0.1, 0.5, 1.0, 3.0, 100.0):
    y = y_spectral_variance(w * kappa, kappa)
    numeric = y_spectral_variance_oracle(w * kappa, kappa)
    rel = abs(numeric - y) / y if y else abs(numeric)
    db = variance_to_db(y) if y else float("inf")
    print(f"{w:12g} {y:12.6f} {4 * y:12.6f} {db:13.2f} {rel:15.2e}")

print()
print("At omega = kappa the squeezed variance is exactly 1/8, so 4*y_var")
print("touches the inseparability bound 1/2: cluster pairs built from these")
print("pulses are entangled exactly for |omega| < kappa.  The whole-pulse")
print("mode (omega = 0) is the best-squeezed oscillator of each pulse.")

print()
print("=== imperfect phase locking leaves residual noise at omega = 0 ===")
for mu in (0.0, 0.01, 0.05):
    residual = y_spectral_variance_oracle(0.0, kappa, mu)
    print(f"mu = {mu:4.2f}: residual variance {residual:.3e}")

print()
print("=== the anti-squeezed partner quadrature ===")
omegas = np.array([0.1, 1.0, 10.0]) * kappa
print(f"{'omega/kappa':>12} {'x_var (min unc)':>16} {'x_var (10x excess)':>19}")
for w, a, b in zip(omegas / kappa, x_spectral_variance(omegas, kappa),
                   x_spectral_variance(omegas, kappa, excess=10.0)):
    print(f"{w:12g} {a:16.4f} {b:19.4f}")
print("Every downstream gate result is independent of the excess factor.")
