"""Names, units and sources of every metric the benchmark reports.

BENCHMARK.json lists the same names; ``test_perfbench.py`` keeps the two in
step.  A per-layer metric of a layer that a workload never calls reads 0:
that layer is near-idle there, and the prediction for it is "no change".
"""

from __future__ import annotations

import statistics

KINDS = ("spectrum", "cluster-check", "delayed-check", "gate", "compose", "cz",
         "pipeline")
CHAIN_LENGTHS = (16, 32, 48)
PIPELINE_LANES = (16, 64)
CLUSTER_SIZES = (50, 100, 200)

#: Metrics a user sees, measured with tracing off.  failed_ratio is printed
#: and stored with them but is not a bounded metric: it is 0 on a healthy
#: run, and the result line carries it as ``failed`` / ``attempted``.
END_TO_END = (
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def op_percentiles(samples_ms: list) -> tuple:
    """(median, 90th percentile) of op wall times in ms."""
    if len(samples_ms) == 1:
        return samples_ms[0], samples_ms[0]
    p90 = statistics.quantiles(samples_ms, n=10, method="inclusive")[8]
    return statistics.median(samples_ms), p90


def per_layer(stats, direct: dict) -> dict:
    """Every per-layer metric as name -> (value, unit), in a fixed order.

    ``stats`` is a :class:`tracing.SpanStats` over the traced ops and
    ``direct`` holds the values measured outside spans.  Every
    ``*.busy_ms`` and ``*.calls`` is a per-op mean of that op's sum, except
    ``runner.run.<kind>.busy_ms``, which is per op of that kind.
    """
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def calls_busy(span):
        put(f"{span}.calls", stats.calls_per_op(span), "count")
        put(f"{span}.busy_ms", stats.busy_ms(span), "ms")

    errors = stats.tracer.errors

    # runner: the CLI split into interpreter start, import, load, run, write
    for name in ("runner.interp_start_ms", "runner.import_ms", "runner.import_scipy_ms"):
        put(name, direct.get(name, 0.0), "ms")
    put("runner.load_params.busy_ms", stats.busy_ms("runner.load_params"), "ms")
    for kind in KINDS:
        put(f"runner.run.{kind}.busy_ms", stats.mean_ms(f"runner.run.{kind}"), "ms")
    put("runner.write_outputs.busy_ms", stats.busy_ms("runner.write_outputs"), "ms")
    put("runner.write_outputs.bytes", stats.count_per_op("runner.write_outputs.bytes"),
        "bytes")
    for kind in KINDS:
        put(f"runner.cli.{kind}.p50_ms", direct.get(f"runner.cli.{kind}.p50_ms", 0.0), "ms")
    put("runner.errors", errors["runner"], "count")

    # laser: closed-form spectra and the numeric Fourier oracle
    put("laser.spectrum.busy_ms", stats.busy_ms("laser.spectrum"), "ms")
    put("laser.oracle.calls", stats.calls_per_op("laser.oracle"), "count")
    put("laser.oracle.busy_ms", stats.busy_ms("laser.oracle"), "ms")
    put("laser.errors", errors["laser"], "count")

    # quadrature: covariance of linear expressions
    calls_busy("quadrature.expr_covariance")
    put("quadrature.errors", errors["quadrature"], "count")

    # cluster: dense cluster generation and the per-edge inseparability check
    calls_busy("cluster.generate_cluster")
    for n in CLUSTER_SIZES:
        put(f"cluster.generate_cluster.n{n}.p50_ms",
            stats.p50_ms("cluster.generate_cluster", n), "ms")
    put("cluster.nullifiers.busy_ms", stats.busy_ms("cluster.nullifiers"), "ms")
    calls_busy("cluster.vlf_two_node_check")
    put("cluster.errors", errors["cluster"], "count")

    # gates engine
    calls_busy("gates.run_steps")
    put("gates.run_steps.steps", stats.sizes_per_op("gates.run_steps"), "count")
    for k in CHAIN_LENGTHS:
        put(f"gates.run_steps.k{k}.p50_ms", stats.p50_ms("gates.run_steps", k), "ms")
    calls_busy("gates.output_covariance")
    calls_busy("gates.sample_currents")
    for k in CHAIN_LENGTHS:
        put(f"gates.sample_currents.k{k}.p50_ms",
            stats.p50_ms("gates.sample_currents", k), "ms")
    calls_busy("gates.feed_forward")
    calls_busy("gates.solve_phases")
    put("gates.errors", errors["gates"], "count")

    # gates oracle: chained Schur-complement conditioning
    calls_busy("gates.oracle")
    put("gates.oracle.errors", errors["gates.oracle"], "count")
    put("gates.oracle.max_abs_residual",
        stats.tracer.maxima.get("gates.oracle.max_abs_residual", 0.0), "1")

    # multiplex: event-driven pipeline, lane reruns and collision scan
    calls_busy("multiplex.simulate_pipeline")
    put("multiplex.simulate_pipeline.events",
        stats.count_per_op("multiplex.simulate_pipeline.events"), "count")
    for lanes in PIPELINE_LANES:
        put(f"multiplex.simulate_pipeline.lanes{lanes}.p50_ms",
            stats.p50_ms("multiplex.simulate_pipeline", lanes), "ms")
    put("multiplex.lane_rerun.busy_ms", stats.busy_ms("multiplex.lane_rerun"), "ms")
    put("multiplex.collisions.busy_ms", stats.busy_ms("multiplex.collisions"), "ms")
    put("multiplex.errors", errors["multiplex"], "count")

    put("trace.overhead_pct", direct.get("trace.overhead_pct", 0.0), "%")
    put("trace.span_coverage_pct", direct.get("trace.span_coverage_pct", 0.0), "%")
    return out
