"""Best-of timings of the gate engine's layers: parent source tree against change.

    python tools/layer_timeit.py PARENT_SRC CHANGE_SRC [--rounds N] [--number N]

Each ``*_SRC`` is a directory that holds the ``cvmbqc`` package (a
checkout's ``src``).  The two trees are timed in alternating subprocesses,
``--rounds`` of each, the side that starts switching every round, and BLAS
on one thread in each.  A subprocess times every layer on fixed seeded
inputs with ``timeit``: the best of 5 repeats of ``--number`` calls, with
the process's minor page faults (``ru_minflt``) read around those calls.
The tool prints one line per layer with the best time per call of each side
over all its rounds and, next to it, that side's slowest round (the best of
5 repeats in its slowest subprocess), in microseconds; then change / parent
of the best times, and each side's fewest minor page faults per call over
its rounds.  The slowest round shows the spread within one side: a ratio
inside that spread is no change.  A layer that frees memory to the kernel
and maps it again on the next call shows here as faults.  Best-of timings
on a shared host are rough; alternating the sides spreads the host's load
over both.

The layers: ``run_steps`` at k = 1, 4 and 32 steps; ``sample_currents``,
``output_covariance`` and ``feed_forward`` on a 4-step output;
``output_covariance`` on a 128-step output; ``simulate_pipeline`` with 16
and 64 lanes of 4 steps; the pipeline's event log (``multiplex._event_log``)
alone, on 64 lanes of 4 steps and the benchmark's tick grid; the lane rerun
of the benchmark's pipeline check (``run_steps`` at k = 4, then
``output_covariance`` and a read of ``signal_matrix``); a 16-lane
``simulate_pipeline`` with ``sample_currents`` and ``feed_forward`` on every
lane; ``generate_cluster`` on the two-node graph, the default graph of a
``[cluster-check]`` run, with default x variances; the cluster path of the
benchmark's ``cluster-large`` ops on a 200-node chain:
``generate_cluster``, then ``expr_covariance`` of its nullifiers over that
state; and ``gates._EnginePass._stack`` alone, the
build of the arrays that sampling and feed-forward read, on fixed engine
passes of 64 lanes of 4 steps and of 1 lane of 48 steps; and the state
check ``quadrature._check_symmetric`` alone, on the oracle's 6 x 6 joint
covariance (``gates._joint_cov`` of a vacuum input) and on the 200-node
chain's 400 x 400 covariance; and the covariance oracle, as one
``single_step_covariance_oracle`` step from a vacuum input and as a chain
of 32 steps fed each step's output, the oracle half of a ``chain-long``
op.  The lane rerun and the sampled lanes show what an output's arrays cost
where they are built and where they are read.  Inputs are those of the
benchmark: clusters ``from_y_variances(0.05, 0.05, 10.0)``, whose source
variances the 200-node chain takes on every node, a vacuum input,
theta+ ~ U(-pi, pi) and theta- = pi/2 + U(-0.3, 0.3).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import subprocess
import sys
import timeit

#: Environment of each subprocess: BLAS on one thread.
_ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS")}

REPEATS = 5


def _timed(call, number: int) -> tuple:
    """Best seconds per call of ``call``, and minor page faults per call."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    seconds = min(timeit.repeat(call, number=number, repeat=REPEATS)) / number
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return seconds, faults / (REPEATS * number)


def layers(number: int) -> dict:
    """Best seconds and minor page faults per call of each layer, from the
    ``cvmbqc`` on sys.path."""
    import numpy as np

    from cvmbqc import cluster as clus
    from cvmbqc import gates, multiplex
    from cvmbqc.quadrature import _check_symmetric, expr_covariance, x_quad, y_quad

    cluster = gates.TwoNodeCluster.from_y_variances(0.05, 0.05, 10.0)
    rng = np.random.default_rng(2024)

    def settings(k, draw=rng):
        tp = draw.uniform(-math.pi, math.pi, k)
        tm = math.pi / 2 + draw.uniform(-0.3, 0.3, k)
        return [gates.HomodyneSetting((p + m) / 2, (p - m) / 2)
                for p, m in zip(tp.tolist(), tm.tolist())]

    pair = (x_quad(0), y_quad(0))
    vacuum = {0: 0.25 * np.eye(2)}
    calls = {}
    for k in (1, 4, 32):
        calls[f"run_steps k={k}"] = functools.partial(gates.run_steps, pair, [cluster] * k,
                                                       settings(k))
    out = gates.run_steps(pair, [cluster] * 4, settings(4))
    draws = np.random.default_rng(7)
    calls["sample_currents k=4"] = lambda: gates.sample_currents(out, vacuum, draws)
    calls["output_covariance k=4"] = lambda: gates.output_covariance(out, vacuum)
    # own generator, so the inputs of the later layers stay as they were
    long = gates.run_steps(pair, [cluster] * 128, settings(128, np.random.default_rng(128)))
    calls["output_covariance k=128"] = lambda: gates.output_covariance(long, vacuum)
    currents = gates.sample_currents(out, vacuum, draws)
    calls["feed_forward k=4"] = lambda: gates.feed_forward(out, currents)
    pipelines = {}
    for lanes in (16, 64):
        pipelines[lanes] = calls[f"simulate_pipeline lanes={lanes}"] = functools.partial(
            multiplex.simulate_pipeline, 5.0, 1.0, [pair] * lanes,
            [cluster] * (4 * lanes), [settings(4) for _ in range(lanes)])
    # the log of a 64-lane pipeline of 4 steps: duration 5, gap 1, 100 ticks per gap
    slots = [[multiplex.lane_slot(lane, step, 64) for step in range(4)] for lane in range(64)]
    calls["_event_log lanes=64"] = functools.partial(
        multiplex._event_log, slots, multiplex._switch_slots(64, 4), 1.0 / 100, 100, 500)
    rerun = settings(4)

    def lane_rerun():
        direct = gates.run_steps(pair, [cluster] * 4, rerun)
        return gates.output_covariance(direct, vacuum), direct.signal_matrix

    def sampled_lanes():
        for lane in pipelines[16]().outputs:
            gates.feed_forward(lane, gates.sample_currents(lane, vacuum, draws))

    calls["lane rerun k=4"] = lane_rerun
    calls["sampled lanes lanes=16"] = sampled_lanes
    # fixed inputs, drawn from no generator
    calls["generate_cluster n=2"] = functools.partial(
        clus.generate_cluster, [cluster.y_variances[0]] * 2, clus.ClusterGraph.two_node())
    chain = clus.ClusterGraph.chain(200)
    generate = calls["generate_cluster n=200"] = functools.partial(
        clus.generate_cluster, [cluster.y_variances[0]] * 200, chain,
        source_x_variances=[cluster.x_variances[0]] * 200)
    state = generate()
    calls["expr_covariance n=200"] = functools.partial(
        expr_covariance, clus.nullifiers(chain), state.cov)
    # own generator, so the inputs of the layers above stay as they were
    stack_rng = np.random.default_rng(48)
    for lanes, k in ((64, 4), (1, 48)):
        record = gates._run_lanes([pair] * lanes, [[cluster] * k] * lanes,
                                  [settings(k, stack_rng) for _ in range(lanes)],
                                  False)[0].__dict__["_pass"]
        calls[f"_stack lanes={lanes} k={k}"] = record._stack
    joint = gates._joint_cov(vacuum[0], cluster)
    calls["_check_symmetric n=6"] = functools.partial(_check_symmetric, joint)
    calls["_check_symmetric n=400"] = functools.partial(_check_symmetric, state.cov)
    # own generator, so the inputs of the layers above stay as they were
    oracle_rng = np.random.default_rng(32)
    calls["oracle step"] = functools.partial(
        gates.single_step_covariance_oracle, vacuum[0], cluster, settings(1, oracle_rng)[0])
    oracle_settings = settings(32, oracle_rng)

    def oracle_chain():
        cov = vacuum[0]
        for setting in oracle_settings:
            cov = gates.single_step_covariance_oracle(cov, cluster, setting)
        return cov

    calls["oracle chain k=32"] = oracle_chain
    return {name: _timed(call, number) for name, call in calls.items()}


def _child(src: str, number: int) -> dict:
    """One subprocess's timings of the tree ``src``."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "sys.path.insert(0, sys.argv[2]); import layer_timeit; "
            "print(json.dumps(layer_timeit.layers(int(sys.argv[3]))))")
    here = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run([sys.executable, "-c", code, os.path.abspath(src), here,
                           str(number)], env={**os.environ, **_ONE_THREAD},
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--number", type=int, default=200)
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not os.path.isdir(os.path.join(src, "cvmbqc")):
            parser.error(f"{src} holds no cvmbqc package")
    if args.rounds < 1 or args.number < 1:
        parser.error("--rounds and --number must be at least 1")
    # side -> layer -> [best seconds, slowest round's seconds, fewest faults]
    best = {"parent": {}, "change": {}}
    sides = [("parent", args.parent_src), ("change", args.change_src)]
    for round_ in range(args.rounds):
        for side, src in (sides if round_ % 2 == 0 else sides[::-1]):
            for name, (seconds, faults) in _child(src, args.number).items():
                low, high, fewest = best[side].get(name, (math.inf, 0.0, math.inf))
                best[side][name] = [min(low, seconds), max(high, seconds),
                                    min(fewest, faults)]
    print(f"{'layer':32s} {'parent us':>10s} {'slowest':>9s} {'change us':>10s} "
          f"{'slowest':>9s} {'ratio':>6s} {'parent flt':>10s} {'change flt':>10s}")
    for name, (parent, parent_slow, parent_faults) in best["parent"].items():
        change, change_slow, change_faults = best["change"][name]
        print(f"{name:32s} {parent * 1e6:10.1f} {parent_slow * 1e6:9.1f} "
              f"{change * 1e6:10.1f} {change_slow * 1e6:9.1f} {change / parent:6.3f} "
              f"{parent_faults:10.1f} {change_faults:10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
