"""Compact JSON summary of benchmark results: parent commit against change.

    python3 tools/bench_summary.py PARENT_DIR CHANGE_DIR > BENCH_<n>.json

Each directory holds the result files ``perfbench/run.py --results DIR``
writes; only untraced runs count, as in ``perfbench/compare.py``.  Prints one
JSON object with the environment stamps of both sides and, per workload,
the seeds, ops and failed ratio of each side's runs and, per end-to-end
metric of BENCHMARK.json, each side's median, quartiles and run values, the
pairs the change won and the verdict of ``compare.verdict``.  The pairing,
quartiles and verdict are imported from ``perfbench/compare.py``, so the
summary and the comparison cannot disagree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import compare  # noqa: E402  (read only: the benchmark's comparison rules)


def _side(values: list) -> dict:
    q1, median, q3 = compare.quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _stamps(runs: dict) -> list:
    """The distinct environment stamps of one side's runs."""
    unique = {json.dumps(r["env"], sort_keys=True) for rs in runs.values() for r in rs}
    return [json.loads(stamp) for stamp in sorted(unique)]


def summarize(parent_dir: Path, change_dir: Path) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = compare.load(parent_dir), compare.load(change_dir)
    workloads = {}
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        metrics = {}
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            paired = compare.pairs(p_runs, c_runs, name)
            metrics[name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "parent": _side(p_vals), "change": _side(c_vals),
                "pairs": len(paired),
                "pairs_won": sum(1 for p, c in paired if (c < p if lower else c > p)),
                "verdict": compare.verdict(p_vals, c_vals, paired, metric["bound"], lower),
            }
        workloads[workload] = {
            side: {"seeds": [r["seed"] for r in runs], "ops": [r["ops"] for r in runs],
                   "failed_ratio": compare.failed_ratio(runs)}
            for side, runs in (("parent", p_runs), ("change", c_runs))}
        workloads[workload]["metrics"] = metrics
    return {"environment": {"parent": _stamps(parent), "change": _stamps(change)},
            "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    print(json.dumps(summarize(args.parent, args.change), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
