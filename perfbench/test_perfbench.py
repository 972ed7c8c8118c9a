"""Self-tests of the benchmark: metric names, checks that can fail, compare verdicts.

    python3 -m pytest perfbench -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cli_cold  # noqa: E402
import compare  # noqa: E402
import inproc  # noqa: E402
import worker  # noqa: E402
from cvmbqc import cluster as clus  # noqa: E402
from cvmbqc import gates, runner  # noqa: E402
from cvmbqc.quadrature import LinearQuadratureExpr  # noqa: E402
from metrics import END_TO_END, KINDS, per_layer  # noqa: E402
from tracing import CheckFailed, SpanStats, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_reported_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    reported = per_layer(SpanStats(Tracer(), 1), {})
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, (_, unit) in reported.items()]
    assert KINDS == runner.EXPERIMENT_KINDS


def test_span_stats_sum_per_op_and_cover_top_level_spans():
    tr = Tracer()
    tr.op_id = 0
    with tr.span("gates.run_steps", 16):
        with tr.span("gates.oracle"):
            pass
    with tr.span("gates.run_steps", 32):
        pass
    stats = SpanStats(tr, 2)
    assert stats.calls_per_op("gates.run_steps") == 1.0
    assert stats.sizes_per_op("gates.run_steps") == 24.0
    assert stats.p50_ms("gates.run_steps", 48) == 0.0
    covered_ms = stats.top_level[0] * 1e3
    assert stats.coverage_pct({0: covered_ms}) == pytest.approx(100.0)


class FixedSpeedCore:
    """A CPU whose reference work reads 1.0 ms and then 1.5 ms, alternately."""

    def __init__(self):
        self.readings = iter([1.0, 1.5] * 10)

    def pick(self):
        pass

    def reference_ms(self):
        return next(self.readings)


def test_op_times_scale_by_the_mean_reference_reading_around_them():
    def op(inp, tr):
        if inp == "bad":
            raise CheckFailed("gates", "wrong")

    loop = worker.Loop(op, FixedSpeedCore())
    for inp in ("good", "bad"):
        loop.run(inp, 0)
    assert loop.attempted == 2 and loop.failed == 1
    assert loop.references_ms == [1.0, 1.5, 1.0, 1.5]
    for wall_ms, scaled_ms in zip(loop.walls_ms, loop.samples_ms):
        assert scaled_ms == pytest.approx(wall_ms * worker.REFERENCE_MS / 1.25)


def test_error_counts_once_in_the_innermost_layer():
    tr = Tracer()
    with pytest.raises(ValueError):
        with tr.span("multiplex.simulate_pipeline"):
            with tr.span("gates.run_steps"):
                raise ValueError("boom")
    assert tr.errors == {"gates": 1}


@pytest.mark.parametrize("seed", range(8))
def test_generated_cli_configs_pass_every_kind(tmp_path, seed):
    text, seeds = cli_cold.make_config(seed)
    config = tmp_path / "config.ini"
    config.write_text(text)
    for kind in KINDS:
        args = [kind, "--config", str(config), "--out", str(tmp_path / kind)]
        if kind in seeds:
            args += ["--seed", str(seeds[kind])]
        assert runner.main(args) == 0, kind


def test_parse_importtime_splits_the_scipy_share():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 | site",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:       400 |        400 |       scipy.special",
        "import time:        50 |        450 |     scipy.integrate",
        "import time:        20 |        470 |   cvmbqc.laser",
        "import time:        30 |        800 | cvmbqc",
    ])
    assert cli_cold.parse_importtime(text) == (0.8, 0.75)


def _chain_input(k=16, seed=3):
    rng = np.random.default_rng(seed)
    return k, inproc._settings(rng, k), inproc._seed(rng)


def test_chain_op_passes_and_its_checks_can_fail(monkeypatch):
    inproc.chain_op(_chain_input())
    real = gates.single_step_covariance_oracle
    monkeypatch.setattr(gates, "single_step_covariance_oracle",
                        lambda cov, c, s: real(cov, c, s) * (1 + 1e-6))
    with pytest.raises(CheckFailed) as info:
        inproc.chain_op(_chain_input())
    assert info.value.layer == "gates.oracle"


def test_feed_forward_check_catches_a_leftover_offset(monkeypatch):
    real = gates.feed_forward

    def leaky(output, currents):
        out = real(output, currents)
        x, y = out.exprs
        return replace(out, exprs=(x + LinearQuadratureExpr(offset=1e-3), y))

    monkeypatch.setattr(gates, "feed_forward", leaky)
    with pytest.raises(CheckFailed) as info:
        inproc.chain_op(_chain_input())
    assert info.value.layer == "gates"


def test_pipeline_isolation_check_can_fail(monkeypatch):
    rng = np.random.default_rng(1)
    inp = (2, [inproc._settings(rng, inproc.PIPELINE_STEPS) for _ in range(2)], 5)
    inproc.pipeline_op(inp)
    real = gates.run_steps

    def drifting(*args, **kwargs):
        out = real(*args, **kwargs)
        return replace(out, signal_matrix=out.signal_matrix + 1e-9)

    monkeypatch.setattr(gates, "run_steps", drifting)
    with pytest.raises(CheckFailed) as info:
        inproc.pipeline_op(inp)
    assert info.value.layer == "multiplex"


def test_cluster_op_passes_and_its_checks_can_fail(monkeypatch):
    graphs = inproc.cluster_graphs()
    inp = (("star", 50), graphs["star", 50])
    inproc.cluster_op(inp)
    real = clus.generate_cluster

    def noisy(*args, **kwargs):
        state = real(*args, **kwargs)
        return state.__class__(state.mean, state.cov * (1 + 1e-6))

    monkeypatch.setattr(clus, "generate_cluster", noisy)
    with pytest.raises(CheckFailed) as info:
        inproc.cluster_op(inp)
    assert info.value.layer == "quadrature"


@pytest.mark.parametrize("parent, change, expected", [
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [80, 81, 79, 80, 82, 78, 80, 81, 79, 80], "improved"),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [130, 131, 129, 130, 132, 128, 130, 131, 129, 130], "worse-than-bound"),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [101, 100, 99, 102, 100, 98, 101, 99, 100, 100], "unchanged"),
    ([100, 150, 60, 100, 140, 70, 100, 130, 80, 100],
     [95, 150, 60, 100, 140, 70, 100, 130, 80, 96], "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    paired = list(zip(parent, change))
    assert compare.verdict(parent, change, paired, 0.1, lower_better=True) == expected
