"""One benchmark process: set up a workload, run it closed-loop, print a result.

Started by ``run.py``, which passes ``--t0``, its ``time.monotonic()`` just
before the start (CLOCK_MONOTONIC is system-wide), so the set-up time
includes interpreter start and every import.  With ``--setup-only`` the
process stops after set-up and reports only that.  The last stdout line is
one JSON object.

Op and set-up times are scaled to a reference speed of the CPU: each is
multiplied by REFERENCE_MS over the time a fixed piece of reference work
took on the same CPU just before and just after (the mean of the two).  On
a shared host the speed of a vCPU changes with the load its neighbours put
on the physical core.  On the 2-vCPU VM where the benchmark was written the
median reference reading of a run ranged from 1.16 to 2.32 ms between runs
minutes apart, and the ops' wall times moved with it: over ten runs the
quartile spread of op_p50_ms was 13-40% in wall time and 1.6-8% scaled.
The reference shares no code with the library, so a change to the library
moves the scaled times as it moves the wall times.  Result files keep the
wall times as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from metrics import KINDS, op_percentiles, per_layer
from tracing import NULL, SpanStats, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_out"
#: Tracebacks of failed ops printed per run; later failures are only counted.
MAX_REPORTED = 5
#: Least time between two choices of CPU.
REPICK_S = 0.5
#: Wall ms of reference() near the fastest run medians seen on the machine
#: where the benchmark was written (Intel Xeon, 2 vCPUs): scaled times are
#: ms at that speed.
REFERENCE_MS = 1.25
_MATRIX = np.arange(64.0).reshape(8, 8) / 64 + np.eye(8)


def reference() -> None:
    """Fixed work of the two kinds the ops do: small numpy calls, dict updates."""
    for _ in range(60):
        np.linalg.det(_MATRIX)
        np.max(np.abs(_MATRIX @ _MATRIX))
    table = {}
    for i in range(6000):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5


class QuietCore:
    """Keeps this process on the least-disturbed of its CPUs and times its speed.

    On a shared host, work on a sibling hyperthread can slow one vCPU by up
    to 2x for seconds to minutes while another runs at full speed.  Before
    an op (at most every REPICK_S) the reference work runs on every allowed
    CPU and the process moves to the fastest.  Child processes inherit the
    choice.
    """

    def __init__(self):
        self.cpus = (sorted(os.sched_getaffinity(0))
                     if hasattr(os, "sched_setaffinity") else [])
        self.last = -REPICK_S
        self.start_reference_ms = None

    def reference_ms(self) -> float:
        """Best of two wall times of reference() on the current CPU, in ms."""
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - start)
        return best * 1e3

    def _reference_on(self, cpu) -> float:
        os.sched_setaffinity(0, {cpu})
        return self.reference_ms()

    def pick(self) -> None:
        if len(self.cpus) < 2 or time.perf_counter() - self.last < REPICK_S:
            return
        os.sched_setaffinity(0, {min(self.cpus, key=self._reference_on)})
        self.last = time.perf_counter()


class Loop:
    """Closed loop of one client: ops back to back, in whole blocks."""

    def __init__(self, op, core: QuietCore, tracer=None):
        self.op = op
        self.core = core
        self.tracer = tracer
        self.samples_ms = []      # scaled ms of every untraced op
        self.walls_ms = []        # wall ms of every untraced op
        self.references_ms = []   # reference times taken around untraced ops
        self.inputs = []          # the input of each untraced op
        self.traced_ms = {}       # op id -> wall ms of each traced op
        self.attempted = 0
        self.failed = 0

    def _timed(self, inp, tr) -> float:
        """Wall ms of one op."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            self.op(inp, tr)
        except Exception as exc:
            self.failed += 1
            if tr.enabled:
                tr.blame(exc, getattr(exc, "layer", "bench"))
            if self.failed <= MAX_REPORTED:
                traceback.print_exc(file=sys.stderr)
        return (time.perf_counter() - start) * 1e3

    def _untraced(self, inp) -> None:
        self.core.pick()
        before = self.core.reference_ms()
        wall_ms = self._timed(inp, NULL)
        after = self.core.reference_ms()
        self.inputs.append(inp)
        self.walls_ms.append(wall_ms)
        self.references_ms += [before, after]
        self.samples_ms.append(wall_ms * REFERENCE_MS / ((before + after) / 2))

    def run(self, inp, index: int) -> None:
        """Run one input."""
        if self.tracer is None:
            self._untraced(inp)
            return
        # traced run: every input twice, untraced and traced, order alternating
        for traced in ((False, True) if index % 2 else (True, False)):
            if traced:
                self.tracer.op_id = index
                self.traced_ms[index] = self._timed(inp, self.tracer)
                self.tracer.op_id = None
            else:
                self._untraced(inp)

    def until(self, blocks, seconds: float) -> None:
        """Run whole blocks until the next one would end past ``seconds``.

        At least one block always runs.
        """
        start = time.perf_counter()
        n_blocks = index = 0
        while True:
            for inp in next(blocks):
                self.run(inp, index)
                index += 1
            n_blocks += 1
            if (time.perf_counter() - start) * (n_blocks + 1) / n_blocks > seconds:
                return

    def overhead_pct(self) -> float:
        """Median over inputs of the traced op's wall time against the untraced one's.

        The two ops of an input run back to back, so their ratio leaves out
        the host's slower swings and the spread of op sizes.
        """
        ratios = [self.traced_ms[i] / wall_ms for i, wall_ms in enumerate(self.walls_ms)]
        return 100.0 * (statistics.median(ratios) - 1.0)


def end_to_end(loop: Loop, rss_kb: int) -> dict:
    """The timed metrics from scaled op times; ops_per_s is per second in ops."""
    p50, p90 = op_percentiles(loop.samples_ms)
    return {"op_p50_ms": p50, "op_p90_ms": p90,
            "ops_per_s": len(loop.samples_ms) / (sum(loop.samples_ms) / 1e3),
            "peak_rss_mb": rss_kb / 1024.0}


def wall_figures(loop: Loop, setup_wall_s: float) -> dict:
    """The same figures from unscaled wall times, kept in the result file."""
    p50, p90 = op_percentiles(loop.walls_ms)
    return {"op_p50_ms": p50, "op_p90_ms": p90,
            "ops_per_s": len(loop.walls_ms) / (sum(loop.walls_ms) / 1e3),
            "setup_s": setup_wall_s,
            "reference_ms": statistics.median(loop.references_ms)}


def setup_times(args, core: QuietCore) -> dict:
    """Set-up time since run.py's ``--t0``, scaled and as wall time."""
    wall_s = time.monotonic() - args.t0
    mean_ref_ms = (core.start_reference_ms + core.reference_ms()) / 2
    return {"setup_s": wall_s * REFERENCE_MS / mean_ref_ms, "setup_wall_s": wall_s}


def traced_metrics(loop: Loop, args, direct: dict) -> dict:
    """Per-layer metrics of a traced loop; its spans are written out here."""
    stats = SpanStats(loop.tracer, len(loop.traced_ms))
    direct["trace.overhead_pct"] = loop.overhead_pct()
    direct["trace.span_coverage_pct"] = stats.coverage_pct(loop.traced_ms)
    loop.tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return per_layer(stats, direct)


def import_library() -> None:
    """Import cvmbqc, and stop unless it is this checkout's copy."""
    import cvmbqc.runner

    if not Path(cvmbqc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"cvmbqc imported from {cvmbqc.__file__}, not {ROOT / 'src'}")


def run_in_process(args, core: QuietCore) -> dict:
    import_library()
    from inproc import InProcessWorkload

    workload = InProcessWorkload(args.workload, args.seed)
    setup = setup_times(args, core)
    if args.setup_only:
        return setup

    tracer = Tracer() if args.trace else None
    loop = Loop(workload.op, core, tracer)
    loop.until(workload.blocks, args.seconds)
    result = dict(setup, attempted=loop.attempted, failed=loop.failed,
                  ops=len(loop.samples_ms))
    if tracer is None:
        result["metrics"] = end_to_end(
            loop, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        result["wall"] = wall_figures(loop, setup["setup_wall_s"])
    else:
        result["metrics"] = traced_metrics(loop, args, {})
    return result


def run_cli_cold(args, core: QuietCore) -> dict:
    from cli_cold import ColdCli

    cli = ColdCli(ROOT, args.seed, WORK / f"cli-{os.getpid()}", dict(os.environ))
    try:
        cli.cold_op("cz")  # warm-up: bytecode and page cache, as after any earlier run
        setup = setup_times(args, core)
        if args.setup_only:
            return setup

        cold = Loop(cli.cold_op, core)
        if not args.trace:
            # the kinds cost about the same (interpreter start and import
            # dominate), so single-op blocks let the run fill --seconds
            single_ops = ([kind] for cycle in cli.cycles() for kind in cycle)
            cold.until(single_ops, args.seconds)
            return dict(setup, attempted=cold.attempted, failed=cold.failed,
                        ops=len(cold.samples_ms),
                        metrics=end_to_end(
                            cold, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
                        wall=wall_figures(cold, setup["setup_wall_s"]))

        # traced run: interpreter and import floors, cold ops per kind for
        # 60% of the time, then paired in-process passes for the rest
        start = time.perf_counter()
        direct = {"runner.interp_start_ms": cli.interp_start_ms(5)}
        direct["runner.import_ms"], direct["runner.import_scipy_ms"] = cli.import_ms(3)
        cold.until(cli.cycles(), 0.6 * args.seconds - (time.perf_counter() - start))
        for kind in KINDS:
            times = [ms for k, ms in zip(cold.inputs, cold.samples_ms) if k == kind]
            direct[f"runner.cli.{kind}.p50_ms"] = statistics.median(times)

        import_library()
        for kind in KINDS:  # warm-up of the in-process path, untimed
            cli.in_process_op(kind)
        passes = Loop(cli.in_process_op, core, Tracer())
        passes.until(cli.cycles(), args.seconds - (time.perf_counter() - start))
        passes.tracer.errors["runner"] += cold.failed
        return dict(setup, attempted=cold.attempted + passes.attempted,
                    failed=cold.failed + passes.failed, ops=len(passes.traced_ms),
                    metrics=traced_metrics(passes, args, direct))
    finally:
        cli.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    core = QuietCore()
    core.pick()
    core.start_reference_ms = core.reference_ms()
    WORK.mkdir(exist_ok=True)
    if args.workload == "cli-cold":
        result = run_cli_cold(args, core)
    else:
        result = run_in_process(args, core)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
