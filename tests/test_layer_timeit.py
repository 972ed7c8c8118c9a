"""tools/layer_timeit.py: the layers it times and its usage errors."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("layer_timeit",
                                               ROOT / "tools" / "layer_timeit.py")
layer_timeit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_timeit)


def test_times_every_layer():
    timings = layer_timeit.layers(number=1)
    assert list(timings) == [
        "run_steps k=1", "run_steps k=4", "run_steps k=32", "sample_currents k=4",
        "output_covariance k=4", "output_covariance k=128", "feed_forward k=4",
        "simulate_pipeline lanes=16", "simulate_pipeline lanes=64", "_event_log lanes=64",
        "lane rerun k=4",
        "sampled lanes lanes=16", "generate_cluster n=200", "expr_covariance n=200",
        "_stack lanes=64 k=4", "_stack lanes=1 k=48",
        "_check_symmetric n=6", "_check_symmetric n=400",
        "oracle step", "oracle chain k=32"]
    assert all(0.0 < t < math.inf and 0.0 <= faults < math.inf
               for t, faults in timings.values())


def test_prints_times_and_faults_of_both_sides(monkeypatch, capsys):
    # one child's timings stand in for both sides: best and slowest of two
    # rounds each
    rounds = iter([{"a": (2e-6, 3.0)}, {"a": (1e-6, 5.0)},
                   {"a": (4e-6, 0.5)}, {"a": (3e-6, 1.0)}])
    monkeypatch.setattr(layer_timeit, "_child", lambda src, number: next(rounds))
    monkeypatch.chdir(ROOT)
    assert layer_timeit.main(["src", "src", "--rounds", "2"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["layer", "parent", "us", "slowest", "change", "us", "slowest",
                              "ratio", "parent", "flt", "change", "flt"]
    # round 0 runs parent then change, round 1 change then parent
    assert row.split() == ["a", "2.0", "3.0", "1.0", "4.0", "0.500", "1.0", "0.5"]


@pytest.mark.parametrize("args", [
    ["tools", "src"],  # no cvmbqc package under tools/
    ["src", "src", "--rounds", "0"],
    ["src", "src", "--number", "0"],
])
def test_usage_errors_exit_2(args, monkeypatch):
    monkeypatch.chdir(ROOT)
    with pytest.raises(SystemExit) as info:
        layer_timeit.main(args)
    assert info.value.code == 2
