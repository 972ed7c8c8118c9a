"""Benchmark of cvmbqc: four workloads, end-to-end or per-layer metrics.

Run from the root of a checkout (the library is taken from ``src/``):

    python3 perfbench/run.py --workload chain-long --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

With ``--trace 0`` a run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run (see perfbench/README.md).  Every op's
outputs are checked; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` (for ``all``, one such
object per workload).  Each run also writes a result file, stamped with the
environment, into ``--results`` for ``compare.py``.

Op and set-up times are scaled to a reference speed of the CPU (see
worker.py).  Set-up time is the median over several fresh worker
processes, each timed from its start to its first timed op.  BLAS runs on one thread in every
process the benchmark starts.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from metrics import END_TO_END

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("cli-cold", "chain-long", "pipeline-wide", "cluster-large")
#: Extra set-up-only worker processes per untraced run; with the measuring
#: worker they give the samples whose median is setup_s.
SETUP_PROBES = 4
#: A worker gets this long beyond --seconds before it is killed.
WORKER_GRACE_S = 120
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment_stamp(env: dict) -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
            "platform": platform.platform()}


def run_worker(workload: str, args, env: dict, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload}: worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, args, env: dict, stamp: dict) -> dict:
    """One run of one workload; returns the result line's object."""
    probes = [run_worker(workload, args, env, True)
              for _ in range(0 if args.trace else SETUP_PROBES)]
    main = run_worker(workload, args, env, False)
    setups = [probe["setup_s"] for probe in probes + [main]]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in main["metrics"].items()}
    else:
        values = dict(main["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": main["failed"] == 0, "attempted": main["attempted"],
              "failed": main["failed"], "metrics": metrics}

    failed_ratio = main["failed"] / main["attempted"]
    print(f"{workload} seed {args.seed}: {main['ops']} timed ops, "
          f"failed_ratio {failed_ratio:.4g}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    args.results.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, ops=main["ops"], failed_ratio=failed_ratio,
                  setup_samples_s=setups,
                  setup_wall_samples_s=[probe["setup_wall_s"] for probe in probes + [main]],
                  wall=main.get("wall"), env=stamp)
    name = f"{workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (args.results / name).write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=ROOT / ".perfbench_out" / "results",
                        help="directory for the stamped result files")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cvmbqc" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src' / 'cvmbqc'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("perfbench: the library source does not compile", file=sys.stderr)
        return 2
    env = worker_env()
    stamp = environment_stamp(env)
    print(f"environment: {json.dumps(stamp)}", file=sys.stderr)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args, env, stamp)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        for workload, result in results.items():
            print(f"{workload}: correct {result['correct']}, "
                  f"failed_ratio {result['failed'] / result['attempted']:.4g}")
            for name, metric in result["metrics"].items():
                print(f"  {name} {metric['value']:.6g} {metric['unit']}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
