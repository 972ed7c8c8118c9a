"""tools/bench_summary.py on hand-written benchmark result files."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_summary",
                                               ROOT / "tools" / "bench_summary.py")
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

SEEDS = list(range(101, 111))
ENV = {"python": "3.11", "numpy": "2", "nproc": 2}


def write_runs(directory: Path, op_ms: list, trace: int = 0, env=ENV) -> None:
    directory.mkdir(exist_ok=True)
    for seed, ms in zip(SEEDS, op_ms):
        values = {"op_p50_ms": ms, "op_p90_ms": 3.0 * ms, "ops_per_s": 1000.0 / ms,
                  "setup_s": 0.2, "peak_rss_mb": 50.0}
        record = {"workload": "pipeline-wide", "seed": seed, "trace": trace,
                  "ops": int(25000 / ms), "failed": 0, "attempted": int(25000 / ms),
                  "env": env,
                  "metrics": {name: {"value": v, "unit": "-"} for name, v in values.items()}}
        (directory / f"run-{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_summary_of_a_faster_change(tmp_path, capsys):
    parent_ms = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    write_runs(tmp_path / "parent", parent_ms)
    write_runs(tmp_path / "change", [0.8 * ms for ms in parent_ms])
    # a traced run is not an end-to-end sample, and its figures must not count
    write_runs(tmp_path / "change", [100.0] * 10, trace=1, env={"traced": True})

    assert bench_summary.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["environment"] == {"parent": [ENV], "change": [ENV]}
    workload = summary["workloads"]["pipeline-wide"]
    assert workload["change"]["seeds"] == SEEDS
    assert workload["change"]["ops"] == [int(25000 / (0.8 * ms)) for ms in parent_ms]
    assert workload["parent"]["failed_ratio"] == 0.0

    p50 = workload["metrics"]["op_p50_ms"]
    assert p50["parent"]["median"] == 10.0 and p50["change"]["median"] == 8.0
    assert p50["parent"]["q1"] <= 10.0 <= p50["parent"]["q3"]
    assert (p50["pairs"], p50["pairs_won"], p50["verdict"]) == (10, 10, "improved")
    assert workload["metrics"]["ops_per_s"]["verdict"] == "improved"
    # equal values win no pair
    setup = workload["metrics"]["setup_s"]
    assert (setup["pairs_won"], setup["verdict"]) == (0, "unchanged")


def test_workloads_on_one_side_only_are_left_out(tmp_path):
    write_runs(tmp_path / "parent", [10.0] * 10)
    (tmp_path / "change").mkdir()
    summary = bench_summary.summarize(tmp_path / "parent", tmp_path / "change")
    assert summary["workloads"] == {}
    assert summary["environment"] == {"parent": [ENV], "change": []}
