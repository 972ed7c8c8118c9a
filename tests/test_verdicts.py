"""Verdicts that a faulty library function makes fail, and the ledger of
every verdict the command line emits.

Each case names a verdict, the kind and config that emit it, and a fault:
a monkeypatched library function, never an edit of the runner's
comparison.  The config passes as written; with the fault in place the
run exits 1 and the record marks that verdict false.

A verdict without a case holds by construction and is listed in
``BY_CONSTRUCTION`` with the ROADMAP item that removes it.  The ledger
test runs every kind and asserts that each emitted name, stripped of its
``[...]`` part, is in exactly one of the two tables, and that no name
repeats within a record.
"""

import json
import operator
import re
from dataclasses import replace

import pytest

from cvmbqc import cluster, gates, laser, multiplex
from cvmbqc.quadrature import VACUUM_VARIANCE
from cvmbqc.runner import main

#: the comparison a passing verdict's value satisfies against its threshold;
#: kept here, apart from the runner's, as the independent reading
COMPARISONS = {"<": operator.lt, "<=": operator.le, "==": operator.eq, ">=": operator.ge}


def gate_matrix_off_determinant(real):
    """gate_matrix scaled by 1.01, so its determinant is 1.0201."""
    return lambda theta_plus, theta_minus: 1.01 * real(theta_plus, theta_minus)


def run_steps_scaled_signal(real):
    """run_steps whose net gate is scaled by 1.01 (its exprs rebuilt to match)."""
    def scaled(*args, **kwargs):
        out = real(*args, **kwargs)
        return replace(out, signal_matrix=1.01 * out.signal_matrix)
    return scaled


def y_variance_scaled(real):
    """The squeezed-quadrature spectrum times 1.01, so 4 y_var(kappa) is 0.505."""
    return lambda omega, kappa: 1.01 * real(omega, kappa)


def y_variance_plus_vacuum(real):
    """The squeezed-quadrature spectrum with a second vacuum added, never below 1/4."""
    return lambda omega, kappa: real(omega, kappa) + VACUUM_VARIANCE


def x_variance_scaled_down(real):
    """The anti-squeezed spectrum times 0.05, so min x_var*y_var is 0.03125 < 1/16."""
    return lambda omega, kappa, excess: 0.05 * real(omega, kappa, excess)


def frequencies_off_grid(real):
    """Admissible frequencies off the grid by a relative 1e-6."""
    return lambda tau, k_range: real(tau, k_range) * (1.0 + 1e-6)


def delayed_vlf_doubled_delay(real):
    """The delayed pair judged at twice its delay, so the half-cycle probe is on grid."""
    return lambda tau, omega, y_var, x_var: real(2.0 * tau, omega, y_var, x_var)


def gains_flipped(real):
    """The feed-forward gains with the sign of the first one flipped, so the
    conditioning oracle and the engine disagree.  Injected in ``gates._gains``,
    which the oracle calls for its gains.

    The spectrum's ``oracle_agreement`` shares the name; its fault, a
    closed form off by a relative 1e-5, is
    ``tests/test_runner.py::TestSpectrum::test_oracle_verdict_fails_on_a_perturbed_closed_form``."""
    def flipped(setting, *trig):
        gains = real(setting, *trig).copy()
        gains[0, 0] = -gains[0, 0]
        return gains
    return flipped


def generate_cluster_vacuum(real):
    """Cluster generation from vacuum sources whatever squeezing is asked,
    so a pair's nullifier sum is 1."""
    return lambda variances, graph, *args: real([VACUUM_VARIANCE] * len(variances),
                                                graph, *args)


def generate_cluster_doubled_y(real):
    """Cluster generation from sources of twice the y variance asked, so the
    nullifier covariance is 2 v (I + A^2) while the asked v stays below the
    edge threshold."""
    return lambda variances, graph, *args: real([2.0 * v for v in variances], graph, *args)


def edge_threshold_one_degree_high(real):
    """The edge threshold counting one degree too many, 1/(3 + d_i + d_j),
    so a 3-node chain's 1/5 drops to 1/6.

    The verdict compares the source variance with the graph's threshold,
    two inputs, so a wrong cluster state leaves it passing; that fault is
    ``nullifier_covariance``'s.  Which bound the per-edge nullifier sum of
    the state should meet is still open (ROADMAP item 3)."""
    return lambda graph: 1.0 / (1.0 / real(graph) + 1.0)


def feed_forward_uncorrected(real):
    """Feed-forward that displaces nothing and returns its output as given,
    photocurrent symbols and all.

    Still missed: a wrong gain.  ``gates.feed_forward`` zeroes every
    classical term whatever the currents are, so a flipped or scaled gain
    leaves the verdict passing (ROADMAP item 4)."""
    return lambda output, currents=None: output


SPECTRUM = "[spectrum]\nkappa = 1\n"
DELAYED_CHECK = ("[delayed-check]\nkappa = 1.0\nduration = 5.0\ngap = 1.0\n"
                 "multiples = 1, 2, 5, 50\nk_values = -3, -2, -1, 0, 1, 2, 3\n"
                 "x_variance = 10\n")
GATE = "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ny_variance = 0.05\n"
COMPOSE_TARGET = "[compose]\ntarget = 1, 0.5; 0, 1\ny_variance = 0.05\n"
PIPELINE = ("[pipeline]\nduration = 5.0\ngap = 1.0\nlanes = 2\ny_variance = 0.05\n"
            "settings_lane0 = 0.9, 0.35; 1.4, 0.6\nsettings_lane1 = 1.0, 0.3; 1.2, 0.5\n")
CHAIN3 = "[cluster-check]\ngraph = 0 1 0; 1 0 1; 0 1 0\n"
SAMPLING = "sampling = true\n"

#: verdict -> (kind, config body, patched module, its function, fault)
CASES = {
    "gate_determinant": ("gate", GATE, gates, "gate_matrix", gate_matrix_off_determinant),
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
    "oracle_agreement": ("gate", GATE, gates, "_gains", gains_flipped),
    "entangled": (
        "cluster-check", "[cluster-check]\ny_variance = 0.05\n",
        cluster, "generate_cluster", generate_cluster_vacuum),
    "below_edge_threshold": (
        "cluster-check", CHAIN3 + "y_variance = 0.18\n",
        cluster, "min_squeezing_threshold", edge_threshold_one_degree_high),
    "nullifier_covariance": (
        "cluster-check", CHAIN3 + "y_variance = 0.05\n",
        cluster, "generate_cluster", generate_cluster_doubled_y),
    "feed_forward_offsets_zero": (
        "gate", GATE + SAMPLING, gates, "feed_forward", feed_forward_uncorrected),
}

#: verdict -> why no library fault can fail it, and the ROADMAP item that
#: gives it one
BY_CONSTRUCTION = {
    "phase_solver_residual": (
        "gates.solve_phases raises PhaseSolveError above the PHASE_RESIDUAL_TOL "
        "the verdict compares with, and the runner turns that into exit 2; "
        "ROADMAP item 5 judges the engine's gate against the target instead"),
    "symplectic": (
        "holds for any blocks of determinant one, the wrong pair included; "
        "ROADMAP item 5 runs the gate through the engine"),
    "matches_entangling_target": (
        "compares two constant blocks with CZ_MATRIX; ROADMAP item 5 judges the "
        "engine's two-mode gate"),
    "no_collisions": (
        "a collision raises LaneCollisionError and exits 2, so the count reads 0; "
        "ROADMAP item 6 derives the timing from the delay line"),
    "lane_isolation": (
        "compares each lane with a rerun of the same run_steps call; ROADMAP "
        "item 12 judges the lanes against a lane-stacked oracle"),
}

#: a passing run of each kind that together emit every verdict name
LEDGER_RUNS = {
    "spectrum": ("spectrum", SPECTRUM),
    "cluster-check-pair": ("cluster-check", "[cluster-check]\ny_variance = 0.05, 0.01\n"),
    "cluster-check-chain3": ("cluster-check", CHAIN3 + "y_variance = 0.01, 0.1\n"),
    "delayed-check": ("delayed-check", DELAYED_CHECK),
    "gate": ("gate", GATE + SAMPLING),
    "compose": ("compose", COMPOSE_TARGET + SAMPLING),
    "cz": ("cz", "[cz]\n"),
    "pipeline": ("pipeline", PIPELINE + SAMPLING),
}


def base_name(name):
    """A verdict name without its ``[...]`` part."""
    return name.split("[", 1)[0]


def run_kind(tmp_path, kind, body, out):
    """Exit code and the record's verdicts, in order, of one seeded run."""
    config = tmp_path / "exp.ini"
    config.write_text(body)
    code = main([kind, "--config", str(config), "--out", str(tmp_path / out),
                 "--seed", "5"])
    record = json.loads((tmp_path / out / f"{kind}.json").read_text())
    return code, record["verdicts"]


def only(verdicts, name):
    """The one verdict whose base name is ``name``."""
    [verdict] = [v for v in verdicts if base_name(v["name"]) == name]
    return verdict


@pytest.mark.parametrize("verdict", sorted(CASES))
def test_fault_fails_the_verdict(tmp_path, monkeypatch, capsys, verdict):
    kind, body, module, name, fault = CASES[verdict]
    code, verdicts = run_kind(tmp_path, kind, body, "ok")
    ok = only(verdicts, verdict)
    assert code == 0 and ok["passed"] is True
    assert COMPARISONS[ok["comparison"]](ok["value"], ok["threshold"])

    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    code, verdicts = run_kind(tmp_path, kind, body, "bad")
    bad = only(verdicts, verdict)
    assert code == 1
    assert bad["passed"] is False
    assert not COMPARISONS[bad["comparison"]](bad["value"], bad["threshold"])
    assert f"[FAIL] {verdict}" in capsys.readouterr().out


def test_every_emitted_verdict_is_in_the_ledger(tmp_path):
    emitted = set()
    for label, (kind, body) in LEDGER_RUNS.items():
        code, verdicts = run_kind(tmp_path, kind, body, label)
        names = [v["name"] for v in verdicts]
        assert code == 0, label
        assert len(set(names)) == len(names), f"{label} repeats a verdict name: {names}"
        emitted |= {base_name(n) for n in names}
    assert set(CASES).isdisjoint(BY_CONSTRUCTION)
    # an unlisted name is a verdict nothing shows can fail; a listed name
    # that no run emits is a stale entry
    assert emitted == set(CASES) | set(BY_CONSTRUCTION)
    for name, why in BY_CONSTRUCTION.items():
        assert re.search(r"ROADMAP item \d", why), name
