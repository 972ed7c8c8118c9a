"""In-process workloads: long gate chains, wide pipelines, large clusters.

Every workload uses clusters from ``TwoNodeCluster.from_y_variances(0.05,
0.05, 10.0)`` and a vacuum input, and draws all other inputs from a numpy
generator seeded by the workload seed.  Ops come in balanced blocks: each
block holds every size once, in a seeded order, so the size mix of a run,
and with it the percentiles, does not drift with the draw.  Each op ends
with its output checks; a failed check raises :class:`tracing.CheckFailed`.
"""

from __future__ import annotations

import math

import numpy as np

from cvmbqc import cluster as clus
from cvmbqc import gates, multiplex
from cvmbqc.quadrature import VACUUM_VARIANCE, expr_covariance, x_quad, y_quad
from cvmbqc.runner import LANE_ISOLATION_TOL, STEP_ORACLE_TOL

from metrics import CHAIN_LENGTHS, CLUSTER_SIZES, PIPELINE_LANES
from tracing import NULL, CheckFailed

CLUSTER = gates.TwoNodeCluster.from_y_variances(0.05, 0.05, 10.0)
VACUUM = {0: VACUUM_VARIANCE * np.eye(2)}

#: Largest |det(signal_matrix) - 1| accepted for a chained program.
DET_TOL = 1e-9
#: Largest relative distance of the nullifier covariance from v (I + A^2),
#: and of a pairwise nullifier sum from its value read off the covariance.
CLUSTER_REL_TOL = 1e-9

PIPELINE_STEPS = 4
PIPELINE_DURATION = 5.0
PIPELINE_GAP = 1.0


def _settings(rng, k: int) -> list:
    """k settings with theta+ ~ U(-pi, pi) and theta- = pi/2 + U(-0.3, 0.3).

    theta- stays near pi/2, as in realistic programs, so covariance entries
    stay at a few hundred at most.  Wider draws (theta- ~ U(0.3, 2.8)) grow
    them past ~1e5 within 20-35 steps, where GaussianState's absolute 1e-12
    symmetry check makes the chained oracle raise: an open library defect,
    not something this family hides.
    """
    tp = rng.uniform(-math.pi, math.pi, k)
    tm = math.pi / 2 + rng.uniform(-0.3, 0.3, k)
    return [gates.HomodyneSetting((p + m) / 2, (p - m) / 2)
            for p, m in zip(tp.tolist(), tm.tolist())]


def _seed(rng) -> int:
    return int(rng.integers(2 ** 63))


def _check_feed_forward(corrected, currents) -> None:
    if not all(math.isfinite(v) for v in currents.values()):
        raise CheckFailed("gates", "a sampled photocurrent is not finite")
    for e in corrected.exprs:
        if e.offset != 0.0 or e.symbols:
            raise CheckFailed("gates", f"feed-forward left offset {e.offset!r}, "
                                       f"symbols {sorted(e.symbols)}")


# chain-long: one k-step gate program per op, k in {16, 32, 48}.  Why: the
# engine's superlinear cost (run_steps, and sample_currents above all)
# dominates here, and only here is the chained oracle long.  Import is
# outside the op.
def chain_blocks(rng):
    while True:
        yield [(int(k), _settings(rng, int(k)), _seed(rng))
               for k in rng.permutation(CHAIN_LENGTHS)]


def chain_op(inp, tr=NULL) -> None:
    k, settings, seed = inp
    clusters = [CLUSTER] * k
    with tr.span("gates.run_steps", k):
        out = gates.run_steps((x_quad(0), y_quad(0)), clusters, settings)
    with tr.span("gates.output_covariance"):
        engine = gates.output_covariance(out, VACUUM)
    oracle = VACUUM[0]
    for setting in settings:
        with tr.span("gates.oracle"):
            oracle = gates.single_step_covariance_oracle(oracle, CLUSTER, setting)
    with tr.span("gates.sample_currents", k):
        currents = gates.sample_currents(out, VACUUM, np.random.default_rng(seed))
    with tr.span("gates.feed_forward"):
        corrected = gates.feed_forward(out, currents)

    det_err = abs(float(np.linalg.det(out.signal_matrix)) - 1.0)
    if not det_err <= DET_TOL:
        raise CheckFailed("gates", f"|det - 1| = {det_err:g} at k = {k}")
    residual = float(np.max(np.abs(engine - oracle)))
    tr.note_max("gates.oracle.max_abs_residual", residual)
    if not residual <= STEP_ORACLE_TOL:
        raise CheckFailed("gates.oracle", f"engine - oracle = {residual:g} at k = {k}")
    _check_feed_forward(corrected, currents)


# pipeline-wide: one simulate_pipeline call per op, 16 or 64 lanes of 4
# steps, then per lane the covariance, sampling, feed-forward and a
# stand-alone rerun, and the collision scan.  Why: the same engine as
# chain-long but as many short chains, so a change that speeds long chains
# yet adds per-call overhead shows here as a loss; it also carries the
# multiplex event bookkeeping.  Blocks hold 16, 16, 64 lanes, so the median
# sits among 16-lane ops and the 90th percentile among 64-lane ops.
PIPELINE_BLOCK = (PIPELINE_LANES[0], PIPELINE_LANES[0], PIPELINE_LANES[1])


def pipeline_blocks(rng):
    while True:
        yield [(int(lanes),
                [_settings(rng, PIPELINE_STEPS) for _ in range(int(lanes))],
                _seed(rng))
               for lanes in rng.permutation(PIPELINE_BLOCK)]


def pipeline_op(inp, tr=NULL) -> None:
    lanes, settings, seed = inp
    inputs = [(x_quad(0), y_quad(0))] * lanes
    with tr.span("multiplex.simulate_pipeline", lanes):
        result = multiplex.simulate_pipeline(
            PIPELINE_DURATION, PIPELINE_GAP, inputs,
            [CLUSTER] * (lanes * PIPELINE_STEPS), settings)
    tr.count("multiplex.simulate_pipeline.events", len(result.events))
    rng = np.random.default_rng(seed)
    isolation = 0.0
    for lane, out in enumerate(result.outputs):
        with tr.span("gates.output_covariance"):
            cov = gates.output_covariance(out, VACUUM)
        with tr.span("gates.sample_currents", PIPELINE_STEPS):
            currents = gates.sample_currents(out, VACUUM, rng)
        with tr.span("gates.feed_forward"):
            corrected = gates.feed_forward(out, currents)
        _check_feed_forward(corrected, currents)
        with tr.span("multiplex.lane_rerun"), tr.span("gates.run_steps", PIPELINE_STEPS):
            direct = gates.run_steps(inputs[lane], [CLUSTER] * PIPELINE_STEPS,
                                     settings[lane])
        with tr.span("gates.output_covariance"):
            direct_cov = gates.output_covariance(direct, VACUUM)
        isolation = max(isolation,
                        float(np.max(np.abs(out.signal_matrix - direct.signal_matrix))),
                        float(np.max(np.abs(cov - direct_cov))))
    with tr.span("multiplex.collisions"):
        collisions = result.collisions()

    if collisions != 0:
        raise CheckFailed("multiplex", f"{collisions} lane collisions at {lanes} lanes")
    if not isolation <= LANE_ISOLATION_TOL:
        raise CheckFailed("multiplex", f"lane isolation {isolation:g} at {lanes} lanes")


# cluster-large: one cluster per op on a chain or star graph of 50, 100 or
# 200 nodes, its nullifier covariance, the squeezing threshold and the
# two-node check on every edge.  Why: no other workload builds a cluster
# beyond two nodes, so without it the dense cluster/quadrature path
# (including the O(n^2) Python loop in unitary_to_symplectic) goes unmeasured.
GRAPH_SHAPES = ("chain", "star")


def cluster_graphs() -> dict:
    """The six input graphs, built once during set-up."""
    return {(shape, n): getattr(clus.ClusterGraph, shape)(n)
            for shape in GRAPH_SHAPES for n in CLUSTER_SIZES}


def cluster_blocks(rng, graphs: dict):
    keys = sorted(graphs)
    while True:
        yield [(keys[i], graphs[keys[i]]) for i in rng.permutation(len(keys))]


def _expected_threshold(shape: str, n: int) -> float:
    # interior chain edges join two degree-2 nodes; every star edge joins
    # the degree-(n-1) hub to a leaf
    return 1.0 / 6.0 if shape == "chain" else 1.0 / (n + 2)


def cluster_op(inp, tr=NULL) -> None:
    (shape, n), graph = inp
    vy, vx = CLUSTER.y_variances[0], CLUSTER.x_variances[0]
    with tr.span("cluster.generate_cluster", n):
        state = clus.generate_cluster([vy] * n, graph, source_x_variances=[vx] * n)
    with tr.span("cluster.nullifiers"):
        nulls = clus.nullifiers(graph)
    with tr.span("quadrature.expr_covariance"):
        null_cov = expr_covariance(nulls, state.cov)
    with tr.span("cluster.min_squeezing_threshold"):
        threshold = clus.min_squeezing_threshold(graph)
    edges = graph.edges()
    sums = []
    for edge in edges:
        with tr.span("cluster.vlf_two_node_check"):
            sums.append(clus.vlf_two_node_check(state, edge).nullifier_sum)

    adj = graph.adjacency.astype(float)
    expected = vy * (np.eye(n) + adj @ adj)
    rel = float(np.max(np.abs(null_cov - expected)) / np.max(np.abs(expected)))
    if not rel <= CLUSTER_REL_TOL:
        raise CheckFailed("quadrature", f"nullifier covariance off by {rel:g} ({shape} {n})")
    if not math.isclose(threshold, _expected_threshold(shape, n), rel_tol=1e-12):
        raise CheckFailed("cluster", f"threshold {threshold!r} ({shape} {n})")
    cov = state.cov
    for (i, j), got in zip(edges, sums):
        xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
        want = (cov[yi, yi] + cov[xj, xj] - 2 * cov[yi, xj]
                + cov[yj, yj] + cov[xi, xi] - 2 * cov[yj, xi])
        if not abs(got - want) <= CLUSTER_REL_TOL * abs(want):
            raise CheckFailed("cluster", f"edge ({i}, {j}) sum {got!r} != {want!r}")


class InProcessWorkload:
    """Seeded input stream, op and warm-up of one in-process workload."""

    def __init__(self, name: str, seed: int):
        timed, warm = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
        if name == "chain-long":
            self.op = chain_op
            self.blocks = chain_blocks(timed)
            warm_up = (CHAIN_LENGTHS[0], _settings(warm, CHAIN_LENGTHS[0]), _seed(warm))
        elif name == "pipeline-wide":
            self.op = pipeline_op
            self.blocks = pipeline_blocks(timed)
            lanes = PIPELINE_LANES[0]
            warm_up = (lanes, [_settings(warm, PIPELINE_STEPS) for _ in range(lanes)],
                       _seed(warm))
        elif name == "cluster-large":
            graphs = cluster_graphs()
            self.op = cluster_op
            self.blocks = cluster_blocks(timed, graphs)
            warm_up = (("chain", CLUSTER_SIZES[0]), graphs["chain", CLUSTER_SIZES[0]])
        else:
            raise ValueError(f"unknown in-process workload {name!r}")
        self.op(warm_up)
