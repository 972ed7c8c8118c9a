"""Config-driven command line for the simulator.

Subcommands: spectrum, cluster-check, delayed-check, gate, compose, cz,
pipeline.  Each reads the section of the same name from an INI-style config
file, runs the experiment, writes a JSON record (and CSV series) into the
output directory, prints one line per verdict, and exits 0 only if every
verdict passed (1 on a failed verdict, 2 on usage or config errors).

Every verdict carries the named constant it was judged against, and all
floating output uses 12 significant digits with '.' as the decimal
separator, so records are byte-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cluster as clus
from . import gates, laser, multiplex, quadrature
from .quadrature import (
    VACUUM_VARIANCE,
    check_uncertainty,
    expr_covariance,
    symplectic_residual,
    x_quad,
    y_quad,
)

EXPERIMENT_KINDS = ("spectrum", "cluster-check", "delayed-check", "gate",
                    "compose", "cz", "pipeline")

# Named verdict thresholds.  Each is documented by the inequality it encodes.
#: Inseparability of a two-node cluster: nullifier-variance sum below 1/2.
VLF_BOUND = clus.VLF_BOUND
#: Closed-form spectrum vs numeric Fourier oracle, relative.
ORACLE_REL_TOL = 1e-6
#: Gate-matrix determinant distance from 1.
GATE_DET_TOL = 1e-12
#: Engine output covariance vs conditioning oracle, absolute.
STEP_ORACLE_TOL = 1e-9
#: Two-step phase-solver residual.
PHASE_RESIDUAL_TOL = gates.PHASE_RESIDUAL_TOL
#: Symplectic-condition residual for constructed maps.
SYMPLECTIC_TOL = quadrature.SYMPLECTIC_TOL
#: Pipeline outputs vs stand-alone per-lane runs, absolute.
LANE_ISOLATION_TOL = 1e-12
#: Largest magnitude of an input_cov, target or cz block entry, and of the
#: delayed-check x_variance; products of a few such numbers, as the engine,
#: the oracle and determinants form them, stay inside the floating-point
#: range.
MAX_CONFIG_ENTRY = 1e50


class ConfigError(ValueError):
    """Invalid or missing configuration; maps to exit code 2."""


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


@dataclass
class Verdict:
    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str  # e.g. "<", "<=", "=="
    constant: str    # name of the threshold constant

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: value {_fmt(self.value)} "
                f"{self.comparison} {_fmt(self.threshold)} ({self.constant})")


@dataclass
class ResultRecord:
    kind: str
    inputs: dict
    scalars: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    events: tuple = ()  # pipeline event log, written separately as JSON lines

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json(self) -> str:
        def clean(obj):
            if isinstance(obj, dict):
                return {k: clean(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [clean(v) for v in obj]
            if isinstance(obj, np.ndarray):
                return clean(obj.tolist())
            if isinstance(obj, (bool, np.bool_)):
                return bool(obj)
            if isinstance(obj, (np.floating, float)):
                return _round12(obj)
            if isinstance(obj, (np.integer,)):
                return int(obj)
            return obj

        payload = {
            "kind": self.kind,
            "inputs": clean(self.inputs),
            "scalars": clean(self.scalars),
            "series": clean(self.series),
            "verdicts": [
                {"name": v.name, "passed": bool(v.passed), "value": clean(v.value),
                 "threshold": clean(v.threshold), "comparison": v.comparison,
                 "constant": v.constant}
                for v in self.verdicts
            ],
            "passed": bool(self.passed),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def series_csv(self, name: str) -> str:
        def cell(v):
            if isinstance(v, (bool, np.bool_)):
                return str(int(v))
            if isinstance(v, (float, np.floating)):
                return _fmt(v)
            return str(v)

        cols = self.series[name]
        lines = [",".join(cols)]
        for row in zip(*cols.values()):
            lines.append(",".join(cell(v) for v in row))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_PI_FORM = re.compile(r"^([+-]?\d*\.?\d*)\*?pi(?:/(\d*\.?\d+))?$")


def parse_angle(text: str) -> float:
    """Angles as plain floats or simple pi fractions: 'pi/2', '-3pi/4', '0.5pi'."""
    t = text.strip().lower().replace(" ", "")
    m = _PI_FORM.match(t)
    try:
        if m:
            num = m.group(1)
            factor = 1.0 if num in ("", "+") else (-1.0 if num == "-" else float(num))
            div = float(m.group(2)) if m.group(2) else 1.0
            angle = factor * math.pi / div
        else:
            angle = float(t)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(angle):
        raise ConfigError(f"angle {text!r} is not finite")
    return angle


def _parse_floats(text: str) -> list:
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _parse_matrix(p: Params, key: str) -> np.ndarray:
    text = p.get_str(key)
    try:
        rows = [[float(tok) for tok in r.split(",")] for r in text.split(";") if r.strip()]
    except ValueError:
        raise ConfigError(f"[{p.kind}] {key} = {text!r} is not a number matrix") from None
    if len({len(r) for r in rows}) > 1:
        raise ConfigError(f"[{p.kind}] {key} = {text!r} has rows of unequal length")
    m = np.array(rows)
    if not np.all(np.isfinite(m)):
        raise ConfigError(f"matrix {text!r} has a value that is not finite")
    if np.any(np.abs(m) > MAX_CONFIG_ENTRY):
        raise ConfigError(f"matrix {text!r} has an entry above {MAX_CONFIG_ENTRY:g} "
                          "in magnitude (MAX_CONFIG_ENTRY)")
    return m


class Params:
    """Section of the config file with field-level error messages."""

    def __init__(self, kind: str, data: dict):
        self.kind = kind
        self.data = dict(data)

    def _raw(self, key, default=None, required=False):
        if key in self.data:
            return self.data[key]
        if required:
            raise ConfigError(f"[{self.kind}] missing required key {key!r}")
        return default

    def get_float(self, key, default=None, required=False):
        raw = self._raw(key, default, required)
        if raw is None or isinstance(raw, float):
            return raw
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"[{self.kind}] {key} = {raw!r} is not a number") from None
        if not math.isfinite(value):
            raise ConfigError(f"[{self.kind}] {key} = {raw!r} is not finite")
        return value

    def get_int(self, key, default=None, required=False):
        raw = self._raw(key, default, required)
        if raw is None or isinstance(raw, int):
            return raw
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"[{self.kind}] {key} = {raw!r} is not an integer") from None

    def get_bool(self, key, default=False):
        raw = self._raw(key, default)
        if isinstance(raw, bool):
            return raw
        if str(raw).strip().lower() in ("1", "true", "yes", "on"):
            return True
        if str(raw).strip().lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{self.kind}] {key} = {raw!r} is not a boolean")

    def get_floats(self, key, default=None, required=False):
        raw = self._raw(key, default, required)
        if raw is None or isinstance(raw, list):
            return raw
        try:
            values = _parse_floats(raw)
        except ValueError:
            raise ConfigError(f"[{self.kind}] {key} = {raw!r} is not a number list") from None
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"[{self.kind}] {key} = {raw!r} has a value that is not finite")
        return values

    def get_angle(self, key, default=None, required=False):
        raw = self._raw(key, default, required)
        if raw is None or isinstance(raw, float):
            return raw
        return parse_angle(str(raw))

    def get_str(self, key, default=None, required=False):
        raw = self._raw(key, default, required)
        return raw if raw is None else str(raw)

    def keys(self):
        return self.data.keys()


@dataclass
class ExperimentConfig:
    kind: str
    params: Params
    seed: int | None
    out_dir: Path
    fmt: str


def load_params(path: str, kind: str) -> Params:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file {path!r} not found or unreadable")
        if not parser.has_section(kind):
            raise ConfigError(f"config file {path!r} has no [{kind}] section")
        return Params(kind, dict(parser.items(kind)))
    except configparser.Error as exc:
        raise ConfigError(f"config file {path!r} is malformed: {exc}") from None


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------

@contextmanager
def _float_range(kind: str, inputs: str):
    """Turn an overflow, underflow or invalid value in numpy into a config
    error that names the ``inputs`` responsible."""
    try:
        with np.errstate(all="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigError(
            f"[{kind}] {inputs} leave the floating-point range ({exc})") from None


def _run_spectrum(cfg: ExperimentConfig) -> ResultRecord:
    p = cfg.params
    kappa = p.get_float("kappa", required=True)
    if kappa <= 0:
        raise ConfigError("[spectrum] kappa must be positive")
    lo = p.get_float("omega_min", 1e-3 * kappa)
    hi = p.get_float("omega_max", 1e3 * kappa)
    points = p.get_int("points", 200)
    factor = p.get_float("excess_factor", 10.0)
    mu = p.get_float("mu", 0.0)
    n_oracle = p.get_int("oracle_points", 9)
    if not (0 < lo < hi) or points < 2:
        raise ConfigError("[spectrum] need 0 < omega_min < omega_max and points >= 2")
    if n_oracle < 2:
        raise ConfigError("[spectrum] oracle_points must be at least 2")
    if mu != 0.0:
        raise ConfigError(
            "[spectrum] the closed-form spectrum holds at mu = 0 only; for "
            "mu > 0 use cvmbqc.laser.y_spectral_variance_oracle directly")

    model = laser.XNoiseModel(factor)
    with _float_range("spectrum", f"kappa = {kappa:g}, omega from {lo:g} to {hi:g} "
                                  f"and excess_factor = {factor:g}"):
        omegas = np.unique(np.concatenate([
            np.logspace(math.log10(lo), math.log10(hi), points), [kappa]]))
        y = laser.y_spectral_variance(omegas, kappa)
        x = laser.x_spectral_variance(omegas, kappa, model)

    oracle_idx = np.unique(np.linspace(0, omegas.size - 1, n_oracle).astype(int))
    oracle_rel = 0.0
    for i in oracle_idx:
        ref = laser.y_spectral_variance_oracle(float(omegas[i]), kappa, mu)
        oracle_rel = max(oracle_rel, abs(ref - y[i]) / y[i])

    at_kappa = 4.0 * float(laser.y_spectral_variance(kappa, kappa))
    uncert = float(np.min(x * y))
    record = ResultRecord(
        kind="spectrum",
        inputs={"kappa": kappa, "omega_min": lo, "omega_max": hi,
                "points": points, "excess_factor": factor, "mu": mu},
        scalars={"four_y_var_at_kappa": at_kappa, "oracle_rel_error": oracle_rel},
        series={"sweep": {"omega": list(map(float, omegas)),
                          "y_var": list(map(float, y)),
                          "x_var": list(map(float, x)),
                          "four_y_var": list(map(float, 4.0 * y))}},
    )
    record.verdicts = [
        Verdict("boundary_value_at_kappa", at_kappa == 0.5, at_kappa, 0.5, "==",
                "VLF_BOUND (4*y_var at omega = kappa sits on the bound)"),
        Verdict("squeezed_below_vacuum", bool(np.all(y < VACUUM_VARIANCE)),
                float(np.max(y)), VACUUM_VARIANCE, "<", "VACUUM_VARIANCE"),
        Verdict("uncertainty_product", uncert >= 1.0 / 16.0, uncert, 1.0 / 16.0,
                ">=", "minimum uncertainty product x_var*y_var >= 1/16"),
        Verdict("oracle_agreement", oracle_rel <= ORACLE_REL_TOL, oracle_rel,
                ORACLE_REL_TOL, "<=", "ORACLE_REL_TOL"),
    ]
    return record


def _run_cluster_check(cfg: ExperimentConfig) -> ResultRecord:
    p = cfg.params
    graph_text = p.get_str("graph", "0 1; 1 0")
    graph = clus.ClusterGraph.from_text(graph_text)
    variances = p.get_floats("y_variance", required=True)
    if graph.n_nodes < 2:
        raise ConfigError("[cluster-check] graph needs at least two nodes")
    if not variances:
        raise ConfigError("[cluster-check] y_variance needs at least one value")

    threshold = clus.min_squeezing_threshold(graph)
    pairwise = graph.n_nodes == 2  # the inseparability sum applies to pairs
    exprs = clus.nullifiers(graph)
    rows = {"y_variance": [], "nullifier_sum": [], "verdict": []}
    verdicts = []
    for v in variances:
        state = clus.generate_cluster([v] * graph.n_nodes, graph)
        if pairwise:
            res = clus.vlf_two_node_check(state, (0, 1))
            nullifier_sum = res.nullifier_sum
            passed = res.entangled
            verdicts.append(Verdict(
                f"entangled[v={v:g}]", passed, nullifier_sum, VLF_BOUND,
                "<", "VLF_BOUND"))
        else:
            # larger graphs: evaluate the nullifier variances directly and
            # check the source squeezing against the edge threshold
            nullifier_sum = float(np.trace(expr_covariance(exprs, state.cov)))
            passed = v < threshold
            verdicts.append(Verdict(
                f"below_edge_threshold[v={v:g}]", passed, float(v), threshold,
                "<", "min_squeezing_threshold(graph)"))
        rows["y_variance"].append(float(v))
        rows["nullifier_sum"].append(nullifier_sum)
        rows["verdict"].append(passed)
    record = ResultRecord(
        kind="cluster-check",
        inputs={"graph": graph.adjacency.tolist(), "y_variance": variances},
        scalars={"min_squeezing_threshold": threshold},
        series={"checks": rows},
        verdicts=verdicts,
    )
    return record


def _run_delayed_check(cfg: ExperimentConfig) -> ResultRecord:
    p = cfg.params
    kappa = p.get_float("kappa", required=True)
    duration = p.get_float("duration", required=True)
    gap = p.get_float("gap", required=True)
    multiples = [int(n) for n in p.get_floats("multiples", [1, 2, 5, 50])]
    k_values = [int(k) for k in p.get_floats("k_values", [-3, -2, -1, 0, 1, 2, 3])]
    x_probe = p.get_float("x_variance", 10.0)
    if duration <= 0 or gap <= 0:
        raise ConfigError("[delayed-check] duration and gap must be positive")
    if not multiples or min(multiples) < 1 or not k_values:
        raise ConfigError("[delayed-check] need multiples >= 1 and at least one k value")
    if abs(x_probe) > MAX_CONFIG_ENTRY:
        raise ConfigError(f"[delayed-check] x_variance is above {MAX_CONFIG_ENTRY:g} "
                          "in magnitude (MAX_CONFIG_ENTRY)")
    period = duration + gap

    rows = {"n": [], "k": [], "omega": [], "lhs": [], "four_y_var": [],
            "entangled": [], "reduced_exactly": []}
    all_reduced = True
    with _float_range("delayed-check", f"kappa = {kappa:g}, period = {period:g}, "
                                       "multiples and k_values"):
        for n in multiples:
            tau = n * period
            for k, omega in zip(k_values,
                                multiplex.admissible_frequencies(tau, k_values).tolist()):
                y = float(laser.y_spectral_variance(omega, kappa))
                x = 0.0 if k == 0 else float(
                    laser.x_spectral_variance(omega, kappa, laser.XNoiseModel(10.0)))
                res = multiplex.delayed_vlf(tau, omega, y, x)
                reduced = res.lhs == 4.0 * y
                all_reduced = all_reduced and reduced
                rows["n"].append(n)
                rows["k"].append(k)
                rows["omega"].append(omega)
                rows["lhs"].append(res.lhs)
                rows["four_y_var"].append(4.0 * y)
                rows["entangled"].append(res.entangled)
                rows["reduced_exactly"].append(reduced)

        tau_probe = multiples[0] * period
        omega_off = math.pi / tau_probe  # half a cycle: maximally off-grid
        probe = multiplex.delayed_vlf(tau_probe, omega_off,
                                      float(laser.y_spectral_variance(omega_off, kappa)),
                                      x_probe)
    record = ResultRecord(
        kind="delayed-check",
        inputs={"kappa": kappa, "duration": duration, "gap": gap,
                "multiples": multiples, "k_values": k_values,
                "x_variance": x_probe},
        scalars={"offgrid_lhs": probe.lhs, "offgrid_entangled": probe.entangled},
        series={"grid": rows},
    )
    record.verdicts = [
        Verdict("grid_reduction_exact", all_reduced, float(all_reduced), 1.0, "==",
                "on-grid frequencies reduce to 4*y_var exactly"),
        Verdict("offgrid_fails", not probe.entangled, probe.lhs,
                multiplex.DELAYED_VLF_BOUND, ">=", "DELAYED_VLF_BOUND"),
    ]
    return record


def _input_cov(p: Params) -> np.ndarray:
    vals = p.get_floats("input_cov", [VACUUM_VARIANCE, 0.0, VACUUM_VARIANCE])
    if len(vals) != 3:
        raise ConfigError(f"[{p.kind}] input_cov needs 3 numbers: xx, xy, yy")
    if max(map(abs, vals)) > MAX_CONFIG_ENTRY:
        raise ConfigError(f"[{p.kind}] input_cov has an entry above "
                          f"{MAX_CONFIG_ENTRY:g} in magnitude (MAX_CONFIG_ENTRY)")
    cov = np.array([[vals[0], vals[1]], [vals[1], vals[2]]])
    if not (vals[0] > 0 and vals[2] > 0):
        raise ConfigError(f"[{p.kind}] input_cov needs positive variances xx and yy")
    if not check_uncertainty(cov):
        raise ConfigError(f"[{p.kind}] input_cov breaks the uncertainty bound "
                          "xx*yy - xy^2 >= 1/16")
    return cov


def _beta_0(p: Params) -> float:
    beta0 = p.get_float("beta_0", gates.DEFAULT_BETA_0)
    # nonpositive values are left to the library's own check
    if not (beta0 <= 0 or 1.0 / MAX_CONFIG_ENTRY <= beta0 <= MAX_CONFIG_ENTRY):
        raise ConfigError(f"[{p.kind}] beta_0 = {beta0:g} is outside "
                          f"[{1.0 / MAX_CONFIG_ENTRY:g}, {MAX_CONFIG_ENTRY:g}] "
                          "(1/MAX_CONFIG_ENTRY to MAX_CONFIG_ENTRY)")
    return beta0


def _cluster_from(p: Params, suffix: str = "") -> gates.TwoNodeCluster:
    v1 = p.get_float(f"y_variance_1{suffix}", p.get_float("y_variance", 0.05))
    v2 = p.get_float(f"y_variance_2{suffix}", p.get_float("y_variance", 0.05))
    factor = p.get_float("excess_factor", 10.0)
    return gates.TwoNodeCluster.from_y_variances(v1, v2, factor)


def _sample_and_feed_forward(cfg: ExperimentConfig, outputs: list,
                             input_blocks: dict) -> tuple:
    """Sample each output's photocurrents from one seeded generator, in
    order, feed them forward, and judge the corrected offsets.

    Returns one record block per output (the currents, the shifts they put
    on the output offsets, the corrected offsets and symbol counts) and the
    feed_forward_offsets_zero verdict over all outputs.
    """
    if cfg.seed is None:
        raise ConfigError(f"[{cfg.kind}] sampling mode needs --seed")
    rng = np.random.default_rng(cfg.seed)
    blocks = []
    for out in outputs:
        currents = gates.sample_currents(out, input_blocks, rng)
        corrected = gates.feed_forward(out, currents)
        blocks.append({
            "currents": {k: _round12(v) for k, v in sorted(currents.items())},
            "feed_forward_shifts": [_round12(e.substitute(currents).offset)
                                    for e in out.exprs],
            "corrected_offsets": [e.offset for e in corrected.exprs],
            "corrected_symbol_count": [len(e.symbols) for e in corrected.exprs],
        })
    offsets = [o for b in blocks for o in b["corrected_offsets"]]
    ok = (all(o == 0.0 for o in offsets)
          and not any(c for b in blocks for c in b["corrected_symbol_count"]))
    verdict = Verdict("feed_forward_offsets_zero", ok,
                      float(max(abs(o) for o in offsets)), 0.0, "==",
                      "feed-forward leaves no classical values")
    return blocks, verdict


def _run_gate(cfg: ExperimentConfig) -> ResultRecord:
    p = cfg.params
    setting = gates.HomodyneSetting(
        p.get_angle("theta_in", required=True),
        p.get_angle("theta_1", required=True),
        _beta_0(p))
    cluster = _cluster_from(p)
    cov_in = _input_cov(p)
    allow = p.get_bool("allow_unentangled", False)

    M = gates.gate_matrix(setting.theta_plus, setting.theta_minus)
    out = gates.run_steps((x_quad(0), y_quad(0)), (cluster,), (setting,),
                          allow_unentangled=allow)
    engine_cov = gates.output_covariance(out, {0: cov_in})
    oracle_cov = gates.single_step_covariance_oracle(cov_in, cluster, setting)
    noise_cov = out.noise_covariance()
    det_err = abs(float(np.linalg.det(M)) - 1.0)
    oracle_err = float(np.max(np.abs(engine_cov - oracle_cov)))

    record = ResultRecord(
        kind="gate",
        inputs={"theta_in": setting.theta_in, "theta_1": setting.theta_1,
                "beta_0": setting.beta_0, "y_variances": cluster.y_variances,
                "x_variances": cluster.x_variances, "input_cov": cov_in.tolist()},
        scalars={"signal_matrix": M.tolist(),
                 "output_covariance": engine_cov.tolist(),
                 "oracle_covariance": oracle_cov.tolist(),
                 "noise_covariance": noise_cov.tolist(),
                 "residuals": {"det_minus_one": det_err, "oracle": oracle_err}},
    )
    record.verdicts = [
        Verdict("gate_determinant", det_err <= GATE_DET_TOL, det_err,
                GATE_DET_TOL, "<=", "GATE_DET_TOL"),
        Verdict("oracle_agreement", oracle_err <= STEP_ORACLE_TOL, oracle_err,
                STEP_ORACLE_TOL, "<=", "STEP_ORACLE_TOL"),
    ]
    if p.get_bool("sampling", False):
        [record.scalars["sampling"]], verdict = _sample_and_feed_forward(
            cfg, [out], {0: cov_in})
        record.verdicts.append(verdict)
    return record


def _run_compose(cfg: ExperimentConfig) -> ResultRecord:
    p = cfg.params
    beta0 = _beta_0(p)
    cov_in = _input_cov(p)
    cluster_1, cluster_2 = (
        _cluster_from(p, s) if {f"y_variance_1{s}", f"y_variance_2{s}"} & p.keys()
        else _cluster_from(p) for s in ("_step1", "_step2"))
    allow = p.get_bool("allow_unentangled", False)

    solver_residual = None
    if "target" in p.keys():
        target = _parse_matrix(p, "target")
        try:
            solution = gates.solve_phases(target, beta_0=beta0)
        except gates.PhaseSolveError as exc:
            raise ConfigError(f"[compose] {exc}") from None
        s1, s2 = solution.setting_1, solution.setting_2
        solver_residual = solution.residual
    else:
        s1 = gates.HomodyneSetting(p.get_angle("theta_in_1", required=True),
                                   p.get_angle("theta_1_1", required=True), beta0)
        s2 = gates.HomodyneSetting(p.get_angle("theta_in_2", required=True),
                                   p.get_angle("theta_1_2", required=True), beta0)

    out = gates.run_steps((x_quad(0), y_quad(0)), (cluster_1, cluster_2), (s1, s2),
                          allow_unentangled=allow)
    engine_cov = gates.output_covariance(out, {0: cov_in})
    mid = gates.single_step_covariance_oracle(cov_in, cluster_1, s1)
    oracle_cov = gates.single_step_covariance_oracle(mid, cluster_2, s2)
    oracle_err = float(np.max(np.abs(engine_cov - oracle_cov)))
    det_err = abs(float(np.linalg.det(out.signal_matrix)) - 1.0)

    record = ResultRecord(
        kind="compose",
        inputs={"theta_in_1": s1.theta_in, "theta_1_1": s1.theta_1,
                "theta_in_2": s2.theta_in, "theta_1_2": s2.theta_1,
                "beta_0": beta0, "input_cov": cov_in.tolist(),
                "y_variances": [cluster_1.y_variances, cluster_2.y_variances]},
        scalars={"signal_matrix": out.signal_matrix.tolist(),
                 "output_covariance": engine_cov.tolist(),
                 "oracle_covariance": oracle_cov.tolist(),
                 "residuals": {"det_minus_one": det_err, "oracle": oracle_err}},
    )
    record.verdicts = [
        Verdict("net_determinant", det_err <= 1e-9, det_err, 1e-9, "<=",
                "composed gate stays determinant-one"),
        Verdict("oracle_agreement", oracle_err <= STEP_ORACLE_TOL, oracle_err,
                STEP_ORACLE_TOL, "<=", "STEP_ORACLE_TOL"),
    ]
    if solver_residual is not None:
        record.scalars["solver_residual"] = solver_residual
        record.verdicts.append(Verdict(
            "phase_solver_residual", solver_residual <= PHASE_RESIDUAL_TOL,
            solver_residual, PHASE_RESIDUAL_TOL, "<=", "PHASE_RESIDUAL_TOL"))
    if p.get_bool("sampling", False):
        [record.scalars["sampling"]], verdict = _sample_and_feed_forward(
            cfg, [out], {0: cov_in})
        record.verdicts.append(verdict)
    return record


def _run_cz(cfg: ExperimentConfig) -> ResultRecord:
    p = cfg.params
    if ("a" in p.keys()) != ("b" in p.keys()):
        raise ConfigError("[cz] provide both blocks a and b, or neither")
    canonical = "a" not in p.keys()
    coeffs = (gates.canonical_cz_coefficients() if canonical
              else gates.TwoModeCoefficients(_parse_matrix(p, "a"), _parse_matrix(p, "b")))
    matrix = gates.cz_transform(coeffs)
    sympl_err = symplectic_residual(matrix)
    record = ResultRecord(
        kind="cz",
        inputs={"a": coeffs.a.tolist(), "b": coeffs.b.tolist(),
                "canonical": canonical},
        scalars={"matrix": matrix.tolist(), "symplectic_residual": sympl_err},
    )
    record.verdicts = [
        Verdict("symplectic", sympl_err < SYMPLECTIC_TOL, sympl_err,
                SYMPLECTIC_TOL, "<", "SYMPLECTIC_TOL"),
    ]
    if canonical:
        exact = bool(np.array_equal(matrix, gates.CZ_MATRIX))
        record.verdicts.append(Verdict(
            "matches_entangling_target", exact, float(exact), 1.0, "==",
            "canonical blocks reproduce the entangling matrix exactly"))
    return record


def _run_pipeline(cfg: ExperimentConfig) -> ResultRecord:
    p = cfg.params
    duration = p.get_float("duration", required=True)
    gap = p.get_float("gap", required=True)
    lanes = p.get_int("lanes", required=True)
    if lanes < 1:
        raise ConfigError("[pipeline] lanes must be at least 1")
    ticks = p.get_int("ticks_per_gap", 100)
    if ticks < 1:
        raise ConfigError("[pipeline] ticks_per_gap must be at least 1")
    if ticks > MAX_CONFIG_ENTRY:
        raise ConfigError(f"[pipeline] ticks_per_gap is above {MAX_CONFIG_ENTRY:g} "
                          "(MAX_CONFIG_ENTRY)")
    beta0 = _beta_0(p)
    allow = p.get_bool("allow_unentangled", False)

    settings = []
    for lane in range(lanes):
        key = f"settings_lane{lane}"
        text = p.get_str(key)
        if text is None:
            raise ConfigError(f"[pipeline] missing {key!r} "
                              "(semicolon-separated 'theta_in, theta_1' pairs)")
        lane_settings = []
        for pair in text.split(";"):
            angles = [parse_angle(tok) for tok in pair.split(",") if tok.strip()]
            if len(angles) != 2:
                raise ConfigError(f"[pipeline] {key}: each step needs two angles")
            lane_settings.append(gates.HomodyneSetting(angles[0], angles[1], beta0))
        settings.append(lane_settings)
    steps = len(settings[0])
    if any(len(s) != steps for s in settings):
        raise ConfigError("[pipeline] all lanes need the same number of steps")

    cluster = _cluster_from(p)
    clusters = [cluster] * (lanes * steps)
    inputs = [(x_quad(0), y_quad(0)) for _ in range(lanes)]
    result = multiplex.simulate_pipeline(duration, gap, inputs, clusters, settings,
                                         ticks_per_gap=ticks,
                                         allow_unentangled=allow)

    cov_in = _input_cov(p)
    isolation = 0.0
    lane_rows = {"lane": [], "signal": [], "covariance": []}
    for lane, out in enumerate(result.outputs):
        direct = gates.run_steps(inputs[lane], [cluster] * steps, settings[lane],
                                 allow_unentangled=allow)
        lane_cov = gates.output_covariance(out, {0: cov_in})
        delta = max(
            float(np.max(np.abs(out.signal_matrix - direct.signal_matrix))),
            float(np.max(np.abs(lane_cov
                                - gates.output_covariance(direct, {0: cov_in})))))
        isolation = max(isolation, delta)
        lane_rows["lane"].append(lane)
        lane_rows["signal"].append(out.signal_matrix.tolist())
        lane_rows["covariance"].append(lane_cov.tolist())

    collisions = result.collisions()
    record = ResultRecord(
        kind="pipeline",
        inputs={"duration": duration, "gap": gap, "lanes": lanes,
                "steps": steps, "ticks_per_gap": ticks},
        scalars={"delay": result.delay.tau,
                 "delay_multiple_of_gap": lanes,
                 "collisions": collisions,
                 "lane_isolation_residual": isolation,
                 "event_count": len(result.events),
                 "lanes_detail": lane_rows},
    )
    record.verdicts = [
        Verdict("no_collisions", collisions == 0, float(collisions), 0.0, "==",
                "lanes never share a beam-splitter event"),
        Verdict("lane_isolation", isolation <= LANE_ISOLATION_TOL, isolation,
                LANE_ISOLATION_TOL, "<=", "LANE_ISOLATION_TOL"),
    ]
    if p.get_bool("sampling", False):
        _, verdict = _sample_and_feed_forward(cfg, result.outputs, {0: cov_in})
        record.verdicts.append(verdict)
    record.events = result.events
    return record


_RUNNERS = {
    "spectrum": _run_spectrum,
    "cluster-check": _run_cluster_check,
    "delayed-check": _run_delayed_check,
    "gate": _run_gate,
    "compose": _run_compose,
    "cz": _run_cz,
    "pipeline": _run_pipeline,
}


def run(cfg: ExperimentConfig) -> ResultRecord:
    """Run one experiment; deterministic for a fixed config and seed."""
    if cfg.kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    return _RUNNERS[cfg.kind](cfg)


def write_outputs(record: ResultRecord, cfg: ExperimentConfig) -> list:
    """Write the JSON record, CSV series, and event log; return the paths."""
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    written = []
    record_path = out / f"{record.kind}.json"
    record_path.write_text(record.to_json())
    written.append(record_path)
    if cfg.fmt == "csv":
        csv_path = out / f"{record.kind}.csv"
        lines = ["name,value,threshold,comparison,passed"]
        for v in record.verdicts:
            lines.append(f"{v.name},{_fmt(v.value)},{_fmt(v.threshold)},"
                         f"{v.comparison},{int(v.passed)}")
        csv_path.write_text("\n".join(lines) + "\n")
        written.append(csv_path)
    for name in record.series:
        path = out / f"{record.kind}_{name}.csv"
        path.write_text(record.series_csv(name))
        written.append(path)
    events = getattr(record, "events", None)
    if events:
        path = out / "events.jsonl"
        path.write_text(multiplex.events_to_jsonl(events))
        written.append(path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cvmbqc",
        description="Simulator of Gaussian one-way computation on two-node "
                    "cluster ensembles from pulsed squeezed light.")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        k = sub.add_parser(kind, help=f"run the {kind} experiment")
        k.add_argument("--config", required=True, help="INI config file")
        k.add_argument("--out", default="out", help="output directory")
        k.add_argument("--seed", type=int, default=None, help="sampling seed")
        k.add_argument("--format", choices=("csv", "json"), default="json",
                       dest="fmt", help="main record format")
    args = parser.parse_args(argv)

    try:
        params = load_params(args.config, args.kind)
        cfg = ExperimentConfig(args.kind, params, args.seed, Path(args.out), args.fmt)
        record = run(cfg)
    except ValueError as exc:  # a ConfigError, or a library input check
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    paths = write_outputs(record, cfg)
    for v in record.verdicts:
        print(v.line())
    for path in paths:
        print(f"wrote {path}")
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
