"""Single-mode Gaussian gates from homodyne steps on two-node clusters.

One measurement step applies a determinant-one matrix M set purely by the
two local-oscillator phases; two steps compose to any determinant-one gate.
The demo runs a step through the gate engine, cross-checks its output
covariance with the independent conditioning oracle, samples photocurrents,
and removes all classical terms by feed-forward.
"""

import numpy as np

from cvmbqc import (
    HomodyneSetting,
    TwoNodeCluster,
    feed_forward,
    gate_matrix,
    output_covariance,
    run_steps,
    sample_currents,
    single_step,
    single_step_covariance_oracle,
    solve_phases,
    x_quad,
    y_quad,
)

cluster = TwoNodeCluster.from_y_variances(0.05, 0.05, excess=10.0)
setting = HomodyneSetting(theta_in=0.9, theta_1=0.35)
cov_in = np.diag([0.25, 0.25])  # vacuum input

print("=== one measurement step ===")
M = gate_matrix(setting.theta_plus, setting.theta_minus)
print("gate matrix M:\n", np.round(M, 6), "\n(det = %.12f)" % np.linalg.det(M))

out = single_step((x_quad(0), y_quad(0)), cluster, setting, source_modes=(1, 2))
print("output x expression:", out.exprs[0])
print("The squeezed-source terms are the computation error; the photocurrent")
print("symbols are classical and will be displaced away.")

engine = output_covariance(out, {0: cov_in})
oracle = single_step_covariance_oracle(cov_in, cluster, setting)
print("output covariance (gate engine):\n", np.round(engine, 8))
print("output covariance (conditioning oracle):\n", np.round(oracle, 8))
print("max difference: %.2e" % np.max(np.abs(engine - oracle)))
law = M @ cov_in @ M.T + 2 * 0.05 * np.eye(2)
print("closed form M S M^T + 2v I differs by %.2e" % np.max(np.abs(engine - law)))

print()
print("=== two steps reach any determinant-one gate ===")
target = np.array([[1.0, 0.7], [0.0, 1.0]])  # a shear
solution = solve_phases(target)
print("target:\n", target)
print("solved phases: step 1 (%.4f, %.4f), step 2 (%.4f, %.4f), residual %.1e"
      % (solution.setting_1.theta_in, solution.setting_1.theta_1,
         solution.setting_2.theta_in, solution.setting_2.theta_1,
         solution.residual))

composed = run_steps((x_quad(0), y_quad(0)), (cluster, cluster),
                     (solution.setting_1, solution.setting_2))
print("composed signal matrix:\n", np.round(composed.signal_matrix, 9))

print()
print("=== sampling photocurrents and feeding forward ===")
rng = np.random.default_rng(7)
currents = sample_currents(composed, {0: cov_in}, rng)
for name, value in sorted(currents.items()):
    print(f"  measured {name} = {value:+.4e}")
corrected = feed_forward(composed, currents)
print("classical offsets after feed-forward:",
      [e.offset for e in corrected.exprs], "(exactly zero)")
print("quantum parts untouched:",
      all(a.coeffs == b.coeffs for a, b in zip(composed.exprs, corrected.exprs)))
