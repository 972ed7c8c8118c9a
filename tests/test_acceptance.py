"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import json
import math
import time

import numpy as np
from cvmbqc.cluster import ClusterGraph, generate_cluster, min_squeezing_threshold, vlf_two_node_check
from cvmbqc.gates import (
    CZ_MATRIX,
    DegenerateHomodynePhasesError,
    HomodyneSetting,
    TwoModeCoefficients,
    TwoNodeCluster,
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
from cvmbqc.laser import y_spectral_variance, y_spectral_variance_oracle
from cvmbqc.multiplex import delayed_vlf, simulate_pipeline
from cvmbqc.quadrature import omega_matrix, x_quad, y_quad
from cvmbqc.runner import main


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_spectral_law():
    kappa = 1.0
    start = time.perf_counter()
    omegas = np.logspace(-3, 3, 200) * kappa
    engine = 4.0 * y_spectral_variance(omegas, kappa)
    reference = omegas ** 2 / (kappa ** 2 + omegas ** 2)
    closed_rel = float(np.max(np.abs(engine - reference) / reference))
    oracle_rel = 0.0
    for w in omegas:
        numeric = y_spectral_variance_oracle(float(w), kappa, 0.0)
        closed = y_spectral_variance(float(w), kappa)
        oracle_rel = max(oracle_rel, abs(numeric - closed) / closed)
    elapsed = time.perf_counter() - start
    ok = closed_rel <= 1e-12 and oracle_rel <= 1e-6 and elapsed < 5.0
    report("criterion 1 (spectral law)", ok,
           f"closed-form rel {closed_rel:.2e} <= 1e-12, "
           f"oracle rel {oracle_rel:.2e} <= 1e-6, runtime {elapsed:.2f}s < 5s")


def test_criterion_2_entanglement_window():
    checks = []
    for kappa in (1.0, 0.3, 7.5):
        def verdict(omega):
            v = float(y_spectral_variance(omega, kappa))
            return TwoNodeCluster.from_y_variances(max(v, 1e-300), max(v, 1e-300)).entangled

        inside = [kappa * (1 - 1e-6), -kappa * (1 - 1e-6), 0.5 * kappa, 0.0]
        outside = [kappa, -kappa, kappa * (1 + 1e-6), 2.0 * kappa]
        checks.append(all(verdict(w) for w in inside)
                      and not any(verdict(w) for w in outside))
    ok = all(checks)
    report("criterion 2 (entanglement window)", ok,
           "entangled strictly inside |omega| < kappa, boundary excluded, "
           f"kappas (1, 0.3, 7.5): {checks}")


def test_criterion_3_two_node_threshold():
    threshold = min_squeezing_threshold(ClusterGraph.two_node())
    exact = threshold == 0.25
    sums_ok, verdicts_ok, detail = True, True, []
    for v in (0.24, 0.125, 0.01):
        state = generate_cluster([v, v], ClusterGraph.two_node())
        res = vlf_two_node_check(state)
        sums_ok = sums_ok and abs(res.nullifier_sum - 4 * v) <= 1e-10
        verdicts_ok = verdicts_ok and (res.entangled == (v < 0.125))
        detail.append(f"v={v:g}: sum {res.nullifier_sum:.12g}, "
                      f"entangled={res.entangled}")
    ok = exact and sums_ok and verdicts_ok
    report("criterion 3 (two-node threshold)", ok,
           f"threshold == 0.25: {exact}; " + "; ".join(detail))


def test_criterion_4_gate_matrix():
    # non-degenerate draws keep |sin(tm)| >= 0.05: the rounded matrix entries
    # scale as 1/sin(tm), so the determinant of the stored matrix deviates
    # from 1 by ~eps/sin^2(tm) no matter how it is evaluated; 0.05 keeps that
    # float-level deviation an order below the 1e-12 gate
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    while count < 10_000:
        tp = rng.uniform(-math.pi, math.pi)
        tm = rng.uniform(-math.pi, math.pi)
        if abs(math.sin(tm)) < 0.05:
            continue
        worst = max(worst, abs(np.linalg.det(gate_matrix(tp, tm)) - 1.0))
        count += 1
    rejected = False
    try:
        gate_matrix(1.0, 0.0)
    except DegenerateHomodynePhasesError:
        rejected = True
    ok = worst <= 1e-12 and rejected
    report("criterion 4 (gate matrix)", ok,
           f"max |det-1| {worst:.2e} <= 1e-12 over 10^4 draws, "
           f"singular rejected: {rejected}")


def _random_config(rng):
    while True:
        tin, t1 = rng.uniform(0.05, 3.1, size=2)
        if abs(math.sin(tin - t1)) > 0.02:
            break
    a, b = rng.uniform(0.1, 2.0, size=2)
    c = rng.uniform(-0.9, 0.9) * math.sqrt(a * b)
    cov_in = np.array([[a, c], [c, b]])
    if np.linalg.det(cov_in) < 1 / 16:
        cov_in += 0.3 * np.eye(2)
    cluster = TwoNodeCluster.from_y_variances(
        rng.uniform(0.005, 0.12), rng.uniform(0.005, 0.12), rng.uniform(1.0, 30.0))
    return HomodyneSetting(tin, t1), cov_in, cluster


def test_criterion_5_measurement_step_equivalence():
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        setting, cov_in, cluster = _random_config(rng)
        out = run_steps((x_quad(0), y_quad(0)), (cluster,), (setting,))
        engine = output_covariance(out, {0: cov_in})
        oracle = single_step_covariance_oracle(cov_in, cluster, setting)
        worst = max(worst, float(np.max(np.abs(engine - oracle))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report("criterion 5 (measurement-step equivalence)", ok,
           f"max |engine - oracle| {worst:.2e} <= 1e-9 over 100 configs, "
           f"runtime {elapsed:.2f}s < 10s")


def test_criterion_6_noise_floor():
    rng = np.random.default_rng(6)
    worst_law, worst_f = 0.0, 0.0
    for _ in range(30):
        setting, cov_in, _ = _random_config(rng)
        v = rng.uniform(0.005, 0.12)
        covs = []
        for factor in (1.0, 100.0):
            cluster = TwoNodeCluster.from_y_variances(v, v, factor)
            out = run_steps((x_quad(0), y_quad(0)), (cluster,), (setting,))
            covs.append(output_covariance(out, {0: cov_in}))
        M = gate_matrix(setting.theta_plus, setting.theta_minus)
        law = M @ cov_in @ M.T + 2.0 * v * np.eye(2)
        worst_law = max(worst_law, float(np.max(np.abs(covs[0] - law))))
        worst_f = max(worst_f, float(np.max(np.abs(covs[0] - covs[1]))))
    ok = worst_law <= 1e-10 and worst_f <= 1e-10
    report("criterion 6 (noise floor)", ok,
           f"max |cov - (M S M^T + 2v I)| {worst_law:.2e} <= 1e-10, "
           f"excess-noise f in {{1,100}} invariance {worst_f:.2e} <= 1e-10")


def test_criterion_7_composition_universality():
    rng = np.random.default_rng(7)
    solved, failures = 0, []
    while solved + len(failures) < 100:
        T = rng.normal(size=(2, 2))
        det = float(np.linalg.det(T))
        if abs(det) < 0.05:
            continue
        T = T / math.sqrt(abs(det))
        if det < 0:
            T = T @ np.diag([1.0, -1.0])
        if np.linalg.cond(T) > 100:
            continue
        try:
            sol = solve_phases(T)
            if sol.residual < 1e-6:
                solved += 1
            else:
                failures.append((T, sol.residual))
        except Exception as exc:  # report, never silently wrong
            failures.append((T, repr(exc)))
    ok = solved == 100
    detail = f"{solved}/100 targets reached with residual < 1e-6"
    if failures:
        detail += f"; failures: {failures[:3]}"
    report("criterion 7 (composition universality)", ok, detail)


def test_criterion_8_cz_construction():
    M = cz_transform(canonical_cz_coefficients())
    exact = np.array_equal(M, CZ_MATRIX)
    omega = omega_matrix(2)
    symplectic = float(np.max(np.abs(M @ omega @ M.T - omega))) < 1e-12
    identity = np.array_equal(
        cz_transform(TwoModeCoefficients(np.eye(2), np.eye(2))), np.eye(4))
    ok = exact and symplectic and identity
    report("criterion 8 (two-mode entangling construction)", ok,
           f"matrix equality exact: {exact}, symplectic: {symplectic}, "
           f"identity blocks give identity: {identity}")


def test_criterion_9_delay_reduction():
    period = 6.0  # T = 5, T0 = 1
    kappa = 1.0
    grid_ok = True
    for n in (1, 2, 5, 50):
        tau = n * period
        for k in range(-3, 4):
            omega = 2.0 * math.pi * k / tau
            y = float(y_spectral_variance(omega, kappa))
            x = 10.0
            res = delayed_vlf(tau, omega, y, x)
            grid_ok = grid_ok and (res.lhs == 4.0 * y)
    off = delayed_vlf(period, math.pi / period,
                      float(y_spectral_variance(math.pi / period, kappa)), 10.0)
    offgrid_ok = (not off.entangled) and off.lhs > 0.5
    ok = grid_ok and offgrid_ok
    report("criterion 9 (delay reduction)", ok,
           f"on-grid lhs == 4*y_var exactly for n in (1,2,5,50), k in -3..3: "
           f"{grid_ok}; off-grid with x_var=10 fails: {offgrid_ok}")


def test_criterion_10_lane_isolation():
    cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
    clusters = [cluster] * 4
    inputs = [(x_quad(0), y_quad(0)), (x_quad(0), y_quad(0))]
    settings = [[HomodyneSetting(0.9, 0.35), HomodyneSetting(1.4, 0.6)],
                [HomodyneSetting(1.0, 0.3), HomodyneSetting(1.2, 0.5)]]
    result = simulate_pipeline(5.0, 1.0, inputs, clusters, settings)
    cov_in = {0: np.diag([0.25, 0.25])}
    worst = 0.0
    for lane in range(2):
        direct = run_steps(inputs[lane], (cluster, cluster), settings[lane])
        worst = max(worst, float(np.max(np.abs(
            output_covariance(result.outputs[lane], cov_in)
            - output_covariance(direct, cov_in)))))
        worst = max(worst, float(np.max(np.abs(
            result.outputs[lane].signal_matrix - direct.signal_matrix))))
    collisions = result.collisions()
    swapped = simulate_pipeline(5.0, 1.0, inputs[::-1], clusters, settings[::-1])
    swap_ok = all(a.exprs == b.exprs
                  for a, b in zip(swapped.outputs[::-1], result.outputs))
    ok = worst <= 1e-12 and collisions == 0 and swap_ok
    report("criterion 10 (lane isolation)", ok,
           f"pipeline vs direct runs {worst:.2e} <= 1e-12, collisions "
           f"{collisions} == 0, swapping lanes swaps outputs: {swap_ok}")


def test_criterion_11_feed_forward(tmp_path):
    # symbolic path: sampled currents, offsets exactly zero
    cluster = TwoNodeCluster.from_y_variances(0.05, 0.05)
    out = run_steps((x_quad(0), y_quad(0)), (cluster, cluster),
                    (HomodyneSetting(0.9, 0.35), HomodyneSetting(1.4, 0.6)))
    currents = sample_currents(out, {0: np.diag([0.25, 0.25])},
                               np.random.default_rng(99))
    corrected = feed_forward(out, currents)
    offsets_zero = all(e.offset == 0.0 and not e.symbols for e in corrected.exprs)

    # command-line path: byte-for-byte determinism for a fixed seed
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\n"
                   "y_variance = 0.05\nsampling = true\n")
    code_a = main(["gate", "--config", str(cfg), "--out", str(tmp_path / "a"),
                   "--seed", "31"])
    code_b = main(["gate", "--config", str(cfg), "--out", str(tmp_path / "b"),
                   "--seed", "31"])
    bytes_a = (tmp_path / "a" / "gate.json").read_bytes()
    bytes_b = (tmp_path / "b" / "gate.json").read_bytes()
    deterministic = bytes_a == bytes_b and code_a == code_b == 0
    record = json.loads(bytes_a)
    cli_offsets = record["scalars"]["sampling"]["corrected_offsets"] == [0.0, 0.0]
    ok = offsets_zero and deterministic and cli_offsets
    report("criterion 11 (feed-forward)", ok,
           f"offsets exactly zero: {offsets_zero and cli_offsets}, "
           f"seeded records byte-identical: {deterministic}")
