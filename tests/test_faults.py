"""A catalogue of plausible library faults, each with the configs that must
catch it.

A row patches one library function and runs each of its configs through
``runner.main`` with ``--seed 1``.  Each config exits 0 on the library as
it is, and must exit 1 under the fault: a verdict fails.  Exit 2 does not
count as caught.  A row marked ``xfail`` is a known fault that no verdict
catches today; the mark names the ROADMAP item that would catch it, and
``strict=True`` turns the day it is caught into a failure that asks for the
mark to go.  A row without a fault is a config that must exit 1 by itself.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from cvmbqc import cluster as clus
from cvmbqc import gates, multiplex
from cvmbqc.quadrature import VACUUM_VARIANCE, GaussianState
from cvmbqc.runner import main

GATE = ("gate", "[gate]\ntheta_in = 0.9\ntheta_1 = 0.2\nsampling = true\n")
COMPOSE = ("compose", "[compose]\ntarget = 1, 0.5; 0, 1\ny_variance = 0.05\nsampling = true\n")
PIPELINE = ("pipeline", "[pipeline]\nduration = 5.0\ngap = 1.0\nlanes = 2\ny_variance = 0.05\n"
                        "settings_lane0 = 0.9, 0.35; 1.4, 0.6\n"
                        "settings_lane1 = 1.0, 0.3; 1.2, 0.5\nsampling = true\n")
# the two nodes of each cluster differ, so a fault that trades one source
# mode for another changes the noise
GATE_NODES = ("gate", "[gate]\ntheta_in = 0.9\ntheta_1 = 0.2\ny_variance_1 = 0.03\n"
                      "y_variance_2 = 0.08\nsampling = true\n")
COMPOSE_NODES = ("compose", "[compose]\ntheta_in_1 = 0.9\ntheta_1_1 = 0.2\n"
                            "theta_in_2 = 1.4\ntheta_1_2 = 0.6\ny_variance_1 = 0.03\n"
                            "y_variance_2 = 0.08\nsampling = true\n")
CHAIN3 = ("cluster-check", "[cluster-check]\ngraph = 0 1 0; 1 0 1; 0 1 0\n"
                           "y_variance = 0.01, 0.1\n")
# blocks whose sandwich misses CZ_MATRIX by 2.0 yet is symplectic
WRONG_CZ = ("cz", "[cz]\na = 1, 0; -1, 1\nb = 1, 0; 1, 1\n")


def vacuum_clusters(monkeypatch):
    """generate_cluster returns the vacuum, whatever the sources and graph."""
    def vacuum(source_y_variances, graph, *args, **kwargs):
        n = graph.n_nodes
        return GaussianState(np.zeros(2 * n), VACUUM_VARIANCE * np.eye(2 * n))

    monkeypatch.setattr(clus, "generate_cluster", vacuum)


def swapped_phases(monkeypatch):
    """run_steps measures with theta_in and theta_1 swapped."""
    real = gates.run_steps

    def swapped(input_exprs, clusters, settings, **kwargs):
        settings = [gates.HomodyneSetting(s.theta_1, s.theta_in, s.beta_0) for s in settings]
        return real(input_exprs, clusters, settings, **kwargs)

    monkeypatch.setattr(gates, "run_steps", swapped)


def zero_currents(monkeypatch):
    """sample_currents draws every photocurrent as 0."""
    real = gates.sample_currents
    monkeypatch.setattr(gates, "sample_currents",
                        lambda output, blocks, rng: dict.fromkeys(real(output, blocks, rng), 0.0))


def short_loop_delay(monkeypatch):
    """The pipeline's loop delay is one gap short."""
    real = multiplex._loop_delay
    monkeypatch.setattr(multiplex, "_loop_delay",
                        lambda period, gap, n_lanes: real(period, gap, n_lanes) - gap)


def flipped_gain(monkeypatch):
    """The feed-forward gains flip the sign of their first entry, in
    ``gates._gains``, which ``protocol_gains`` and the oracle both call."""
    real = gates._gains

    def flipped(setting, *trig):
        gains = real(setting, *trig).copy()
        gains[0, 0] = -gains[0, 0]
        return gains

    monkeypatch.setattr(gates, "_gains", flipped)


def halved_source_variances(monkeypatch):
    """The engine's column covariance halves every source variance."""
    real = gates.GateOutput._column_variances.func

    def halved(self):
        variances = real(self).copy()
        variances[2:] /= 2.0
        return variances

    monkeypatch.setattr(gates.GateOutput, "_column_variances", property(halved))


def transposed_gate(monkeypatch):
    """_gate_entries returns M with m01 and m10 swapped, that is M^T."""
    real = gates._gate_entries

    def transposed(theta_plus, theta_minus):
        s, m00, m01, m10, m11 = real(theta_plus, theta_minus)
        return s, m00, m10, m01, m11

    monkeypatch.setattr(gates, "_gate_entries", transposed)


def shifted_source_modes(monkeypatch):
    """The column covariance gives each source mode the variances of the
    next one (the last takes the first's): source modes off by one."""
    real = gates.GateOutput._column_variances.func

    def shifted(self):
        variances = real(self).copy()
        variances[2:] = np.roll(variances[2:], -2)
        return variances

    monkeypatch.setattr(gates.GateOutput, "_column_variances", property(shifted))


def swapped_lane_clusters(monkeypatch):
    """The pipeline runs lanes 0 and 1 each on the other's clusters."""
    real = multiplex.simulate_pipeline

    def swapped(duration, gap, inputs, clusters, settings, **kwargs):
        clusters = list(clusters)
        for step in range(len(settings[0])):
            a, b = (multiplex.lane_slot(lane, step, len(inputs)) for lane in (0, 1))
            clusters[a], clusters[b] = clusters[b], clusters[a]
        return real(duration, gap, inputs, clusters, settings, **kwargs)

    monkeypatch.setattr(multiplex, "simulate_pipeline", swapped)


def rotated_lane_arrays(monkeypatch):
    """The engine core hands lane l the arrays of lane (l + 1) mod L; each
    output keeps its own lane's settings, clusters and names."""
    real = gates._run_lanes
    arrays = ("signal_matrix", "noise", "classical", "offset", "measured_rows",
              "measured_offset")

    def rotated(*args):
        outputs = real(*args)
        return [replace(out, **{name: getattr(src, name) for name in arrays})
                for out, src in zip(outputs, outputs[1:] + outputs[:1])]

    monkeypatch.setattr(gates, "_run_lanes", rotated)


def overlapping_switch(monkeypatch):
    """The switch program opens lane 1's inject window in lane 0's slot."""
    real = multiplex._switch_slots

    def overlapping(n_lanes, steps):
        return [(0 if (lane, action) == (1, "inject") else slot, lane, action)
                for slot, lane, action in real(n_lanes, steps)]

    monkeypatch.setattr(multiplex, "_switch_slots", overlapping)


def swapped_sampled_variances(monkeypatch):
    """sample_currents draws every source quadrature with the variance of
    its partner: x with the y variance and y with the x variance."""
    real = gates.sample_currents

    def swapped(output, blocks, rng):
        variances = output._column_variances.copy()
        variances[2:] = variances[2:].reshape(-1, 2)[:, ::-1].ravel()
        twin = object.__new__(gates.GateOutput)
        twin.__dict__.update(output.__dict__, _column_variances=variances)
        return real(twin, blocks, rng)

    monkeypatch.setattr(gates, "sample_currents", swapped)


def survivor(item):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}")


FAULTS = [
    pytest.param(flipped_gain, [GATE, COMPOSE], id="flipped-gain"),
    pytest.param(halved_source_variances, [GATE, COMPOSE], id="halved-source-variances"),
    # the pipeline compares each lane with a rerun of the same engine only
    pytest.param(halved_source_variances, [PIPELINE], id="halved-source-variances-pipeline",
                 marks=survivor(6)),
    pytest.param(transposed_gate, [GATE, COMPOSE_NODES], id="transposed-gate-matrix"),
    pytest.param(shifted_source_modes, [GATE_NODES, COMPOSE_NODES],
                 id="off-by-one-source-mode"),
    pytest.param(vacuum_clusters, [CHAIN3], id="a-vacuum-cluster"),
    pytest.param(swapped_phases, [GATE], id="b-swapped-phases", marks=survivor(4)),
    pytest.param(zero_currents, [GATE, PIPELINE], id="c-zero-currents", marks=survivor(4)),
    pytest.param(short_loop_delay, [PIPELINE], id="d-short-loop-delay", marks=survivor(6)),
    pytest.param(None, [WRONG_CZ], id="e-wrong-cz-blocks", marks=survivor(5)),
    # the runner passes one cluster to every slot, so a swap changes nothing
    pytest.param(swapped_lane_clusters, [PIPELINE], id="swapped-lane-clusters",
                 marks=survivor(6)),
    # a stand-alone run_steps is the core with one lane, which the rotation
    # leaves alone, so the rerun sees each lane's own chain
    pytest.param(rotated_lane_arrays, [PIPELINE], id="rotated-lane-arrays"),
    # no verdict reads the switch events of the log
    pytest.param(overlapping_switch, [PIPELINE], id="overlapping-switch-interval",
                 marks=survivor(6)),
    # no verdict reads the values of the currents
    pytest.param(swapped_sampled_variances, [GATE, COMPOSE, PIPELINE],
                 id="swapped-sampled-variances", marks=survivor(4)),
]


def run(tmp_path, name, kind, body):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(body)
    return main([kind, "--config", str(cfg), "--out", str(tmp_path / name), "--seed", "1"])


@pytest.mark.parametrize("fault,configs", FAULTS)
def test_fault_fails_a_verdict(tmp_path, monkeypatch, capsys, fault, configs):
    if fault is not None:
        for i, (kind, body) in enumerate(configs):
            assert run(tmp_path, f"clean{i}", kind, body) == 0, kind
        fault(monkeypatch)
    codes = [run(tmp_path, f"fault{i}", kind, body) for i, (kind, body) in enumerate(configs)]
    assert codes == [1] * len(configs), capsys.readouterr().err


def test_rotated_lane_arrays_fail_lane_isolation(tmp_path, monkeypatch):
    rotated_lane_arrays(monkeypatch)
    kind, body = PIPELINE
    assert run(tmp_path, "rotated", kind, body) == 1
    record = json.loads((tmp_path / "rotated" / f"{kind}.json").read_text())
    assert [v["name"] for v in record["verdicts"] if not v["passed"]] == ["lane_isolation"]
