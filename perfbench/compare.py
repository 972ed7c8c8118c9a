"""Compare two sets of benchmark results: parent commit against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``run.py --results DIR`` writes; only
untraced runs count.  Per workload and end-to-end metric the script prints
each side's median and quartiles, the ratio change / parent, and a verdict,
with the bounds and directions of BENCHMARK.json:

* ``unresolved``: one side's quartile spread, as a share of its median,
  exceeds the bound, and not every change run beats every parent run;
* ``improved``: the change wins at least nine tenths of the pairs (runs
  with the same seed, else in run order) and the medians differ by more
  than the parent's quartile spread;
* ``worse-than-bound``: the change's median is worse than the parent's by
  more than the bound;
* ``unchanged``: anything else.

failed_ratio, which has no bound, is worse whenever the change fails a
larger share of its ops.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Share of the pairs the change must win to count as improved.
WIN_SHARE = 0.9


def load(directory: Path) -> dict:
    """workload -> list of untraced result records, in the order they ran."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list, change: list, name: str) -> list:
    """(parent value, change value) of runs with the same seed, else in run order."""
    by_seed = {r["seed"]: r["metrics"][name]["value"] for r in parent}
    matched = [(by_seed[r["seed"]], r["metrics"][name]["value"])
               for r in change if r["seed"] in by_seed]
    if matched:
        return matched
    return [(p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in zip(parent, change)]


def verdict(parent: list, change: list, paired: list, bound: float, lower_better: bool) -> str:
    def better(a, b):  # a reads better than b
        return a < b if lower_better else a > b

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    all_better = all(better(c, p) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    wins = sum(1 for p, c in paired if better(c, p))
    if paired and wins >= WIN_SHARE * len(paired) and abs(cm - pm) > p3 - p1:
        return "improved"
    worse_by = (cm - pm) / abs(pm) if lower_better else (pm - cm) / abs(pm)
    return "worse-than-bound" if worse_by > bound else "unchanged"


def failed_ratio(runs: list) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    for side, runs in (("parent", parent), ("change", change)):
        stamps = {json.dumps(r["env"], sort_keys=True) for rs in runs.values() for r in rs}
        for stamp in stamps:
            print(f"{side} environment: {stamp}")

    fmt = "{:<14} {:<12} {:>28} {:>28} {:>8}  {}"
    print(fmt.format("workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "ratio", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            p1, pm, p3 = quartiles(p_vals)
            c1, cm, c3 = quartiles(c_vals)
            print(fmt.format(
                workload, name, f"{pm:.4g} [{p1:.4g}, {p3:.4g}]",
                f"{cm:.4g} [{c1:.4g}, {c3:.4g}]", f"{cm / pm:.3f}",
                verdict(p_vals, c_vals, pairs(p_runs, c_runs, name), metric["bound"],
                        metric["better"] == "lower")))
        pf, cf = failed_ratio(p_runs), failed_ratio(c_runs)
        print(fmt.format(workload, "failed_ratio", f"{pf:.4g}", f"{cf:.4g}", "-",
                         "worse-than-bound" if cf > pf else
                         "improved" if cf < pf else "unchanged"))
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print(f"workloads on one side only: {', '.join(missing)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
