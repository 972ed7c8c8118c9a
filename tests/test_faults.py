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
                        lambda period, gap, n_lanes, steps:
                        real(period, gap, n_lanes, steps) - gap)


def flipped_gain(monkeypatch):
    """protocol_gains flips the sign of its first gain."""
    real = gates.protocol_gains

    def flipped(setting):
        gains = real(setting).copy()
        gains[0, 0] = -gains[0, 0]
        return gains

    monkeypatch.setattr(gates, "protocol_gains", flipped)


def halved_source_variances(monkeypatch):
    """The engine's column covariance halves every source variance."""
    real = gates.GateOutput._column_variances.func

    def halved(self):
        variances = real(self).copy()
        variances[2:] /= 2.0
        return variances

    monkeypatch.setattr(gates.GateOutput, "_column_variances", property(halved))


def survivor(item):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}")


FAULTS = [
    pytest.param(flipped_gain, [GATE, COMPOSE], id="flipped-gain"),
    pytest.param(halved_source_variances, [GATE, COMPOSE], id="halved-source-variances"),
    # the pipeline compares each lane with a rerun of the same engine only
    pytest.param(halved_source_variances, [PIPELINE], id="halved-source-variances-pipeline",
                 marks=survivor(6)),
    pytest.param(vacuum_clusters, [CHAIN3], id="a-vacuum-cluster", marks=survivor(3)),
    pytest.param(swapped_phases, [GATE], id="b-swapped-phases", marks=survivor(4)),
    pytest.param(zero_currents, [GATE, PIPELINE], id="c-zero-currents", marks=survivor(4)),
    pytest.param(short_loop_delay, [PIPELINE], id="d-short-loop-delay", marks=survivor(6)),
    pytest.param(None, [WRONG_CZ], id="e-wrong-cz-blocks", marks=survivor(5)),
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
