"""Verdicts that a faulty library function makes fail.

Each case names a verdict, the kind and config that emit it, and a fault:
a monkeypatched library function, never an edit of the runner's
comparison.  The config passes as written; with the fault in place the
run exits 1 and the record marks that verdict false.

``phase_solver_residual`` has no case: it holds by construction for any
finite residual.  ``gates.solve_phases`` raises ``PhaseSolveError`` above
the same ``PHASE_RESIDUAL_TOL`` that the verdict compares with, and the
``compose`` runner turns that error into a config error (exit 2), so a
fault in the solver never reaches the verdict.
"""

import json
import operator
from dataclasses import replace

import pytest

from cvmbqc import gates, laser, multiplex
from cvmbqc.quadrature import VACUUM_VARIANCE
from cvmbqc.runner import main

#: the comparison a passing verdict's value satisfies against its threshold
COMPARISONS = {"<": operator.lt, "<=": operator.le, "==": operator.eq, ">=": operator.ge}


def gate_matrix_off_determinant(real):
    """gate_matrix scaled by 1.01, so its determinant is 1.0201."""
    return lambda theta_plus, theta_minus: 1.01 * real(theta_plus, theta_minus)


def run_steps_scaled_signal(real):
    """run_steps whose net gate is scaled by 1.01 (its exprs rebuilt to match)."""
    def scaled(*args, **kwargs):
        out = real(*args, **kwargs)
        return replace(out, signal_matrix=1.01 * out.signal_matrix, exprs=None)
    return scaled


def y_variance_scaled(real):
    """The squeezed-quadrature spectrum times 1.01, so 4 y_var(kappa) is 0.505."""
    return lambda omega, kappa: 1.01 * real(omega, kappa)


def y_variance_plus_vacuum(real):
    """The squeezed-quadrature spectrum with a second vacuum added, never below 1/4."""
    return lambda omega, kappa: real(omega, kappa) + VACUUM_VARIANCE


def x_variance_scaled_down(real):
    """The anti-squeezed spectrum times 0.05, so min x_var*y_var is 0.03125 < 1/16."""
    return lambda omega, kappa, model: 0.05 * real(omega, kappa, model)


def frequencies_off_grid(real):
    """Admissible frequencies off the grid by a relative 1e-6."""
    return lambda tau, k_range: real(tau, k_range) * (1.0 + 1e-6)


def delayed_vlf_doubled_delay(real):
    """The delayed pair judged at twice its delay, so the half-cycle probe is on grid."""
    return lambda tau, omega, y_var, x_var: real(2.0 * tau, omega, y_var, x_var)


SPECTRUM = "[spectrum]\nkappa = 1\n"
DELAYED_CHECK = ("[delayed-check]\nkappa = 1.0\nduration = 5.0\ngap = 1.0\n"
                 "multiples = 1, 2, 5, 50\nk_values = -3, -2, -1, 0, 1, 2, 3\n"
                 "x_variance = 10\n")

#: verdict -> (kind, config body, patched module, its function, fault)
CASES = {
    "gate_determinant": (
        "gate", "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ny_variance = 0.05\n",
        gates, "gate_matrix", gate_matrix_off_determinant),
    "net_determinant": (
        "compose", "[compose]\ntheta_in_1 = 0.9\ntheta_1_1 = 0.35\n"
                   "theta_in_2 = 1.4\ntheta_1_2 = 0.6\ny_variance = 0.05\n",
        gates, "run_steps", run_steps_scaled_signal),
    "boundary_value_at_kappa": (
        "spectrum", SPECTRUM, laser, "y_spectral_variance", y_variance_scaled),
    "squeezed_below_vacuum": (
        "spectrum", SPECTRUM, laser, "y_spectral_variance", y_variance_plus_vacuum),
    "uncertainty_product": (
        "spectrum", SPECTRUM, laser, "x_spectral_variance", x_variance_scaled_down),
    "grid_reduction_exact": (
        "delayed-check", DELAYED_CHECK, multiplex, "admissible_frequencies",
        frequencies_off_grid),
    "offgrid_fails": (
        "delayed-check", DELAYED_CHECK, multiplex, "delayed_vlf", delayed_vlf_doubled_delay),
}


def run_kind(tmp_path, kind, body, out):
    config = tmp_path / "exp.ini"
    config.write_text(body)
    code = main([kind, "--config", str(config), "--out", str(tmp_path / out)])
    record = json.loads((tmp_path / out / f"{kind}.json").read_text())
    return code, {v["name"]: v for v in record["verdicts"]}


@pytest.mark.parametrize("verdict", sorted(CASES))
def test_fault_fails_the_verdict(tmp_path, monkeypatch, capsys, verdict):
    kind, body, module, name, fault = CASES[verdict]
    code, verdicts = run_kind(tmp_path, kind, body, "ok")
    ok = verdicts[verdict]
    assert code == 0 and ok["passed"] is True
    assert COMPARISONS[ok["comparison"]](ok["value"], ok["threshold"])

    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    code, verdicts = run_kind(tmp_path, kind, body, "bad")
    bad = verdicts[verdict]
    assert code == 1
    assert bad["passed"] is False
    assert not COMPARISONS[bad["comparison"]](bad["value"], bad["threshold"])
    assert f"[FAIL] {verdict}" in capsys.readouterr().out

