"""Config-driven command line for the simulator.

Subcommands: spectrum, cluster-check, delayed-check, gate, compose, cz,
pipeline.  Each reads the section of the same name from an INI-style config
file, runs the experiment, writes a JSON record (and CSV series) into the
output directory, prints one line per verdict, and exits 0 only if every
verdict passed (1 on a failed verdict, 2 on usage or config errors).

Every verdict carries the named constant it was judged against and passes
exactly when its recorded comparison holds on the unrounded numbers.  All
floating output uses 12 significant digits with '.' as the decimal
separator, so records are byte-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import operator
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
# (The two-node inseparability bound is cluster.VLF_GUARDED_BOUND.)
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
#: Largest magnitude of an input_cov, target or cz block entry, of the
#: delayed-check x_variance and of the pipeline ticks_per_gap, as the config
#: rule (Params._read) checks them; products of a few such numbers, as the
#: engine, the oracle and determinants form them, stay inside the
#: floating-point range.
MAX_CONFIG_ENTRY = 1e50
#: Largest spectrum ``points`` and ``oracle_points``: each point is an
#: array entry and a record row, so a larger count is a memory error, not
#: a sweep.
_MAX_SWEEP_POINTS = 10**6


class ConfigError(ValueError):
    """Invalid or missing configuration; maps to exit code 2."""


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


#: The comparisons a verdict can record, each read as ``value OP threshold``.
_COMPARISONS = {"<": operator.lt, "<=": operator.le, "==": operator.eq, ">=": operator.ge}


@dataclass(frozen=True)
class Verdict:
    """One acceptance check, ``value comparison threshold``; it passes when
    that comparison holds on the unrounded numbers, so the printed line and
    the pass/fail state are one rule."""

    name: str
    value: float
    threshold: float
    comparison: str  # a key of _COMPARISONS
    constant: str    # name of the threshold constant

    @property
    def passed(self) -> bool:
        return bool(_COMPARISONS[self.comparison](self.value, self.threshold))

    @property
    def tied_in_print(self) -> bool:
        """Whether value and threshold are different numbers (their ``repr``
        differs) that print alike in 12 digits, so the 12-digit record could
        not show which way the comparison went."""
        return (_fmt(self.value) == _fmt(self.threshold)
                and repr(float(self.value)) != repr(float(self.threshold)))

    def printed(self) -> tuple:
        """Value and threshold as the record prints them: 12 significant
        digits, or both with ``repr`` when they are tied in print."""
        if self.tied_in_print:
            return repr(float(self.value)), repr(float(self.threshold))
        return _fmt(self.value), _fmt(self.threshold)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        value, threshold = self.printed()
        return (f"[{status}] {self.name}: value {value} "
                f"{self.comparison} {threshold} ({self.constant})")


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
            # a verdict tied in print keeps its value and threshold unrounded
            "verdicts": [
                {"name": v.name, "passed": bool(v.passed),
                 "value": float(v.value) if v.tied_in_print else clean(v.value),
                 "threshold": float(v.threshold) if v.tied_in_print else clean(v.threshold),
                 "comparison": v.comparison, "constant": v.constant}
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


def _number_list(text: str) -> list:
    """Numbers split by ',' or ';'; empty entries are skipped."""
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _integer(text: str) -> int:
    """An integer literal, read exactly, or an integral float spelling:
    '12', '1e3' and '1.0' are integers; '1.9', 'nan' and 'inf' are not."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
        if not value.is_integer():
            raise ValueError(f"{text!r} is not an integer") from None
        return int(value)


def _integer_list(text: str) -> list:
    """Integers split by ',' or ';'; empty entries are skipped."""
    return [_integer(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _number_rows(text: str) -> list:
    """Rows split by ';', entries by ','."""
    return [[float(tok) for tok in r.split(",")] for r in text.split(";") if r.strip()]


def _angle_pairs(text: str) -> list:
    """Semicolon-separated 'theta_in, theta_1' pairs of angles."""
    pairs = [[parse_angle(tok) for tok in pair.split(",") if tok.strip()]
             for pair in text.split(";")]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"{text!r} has a step without two angles")
    return pairs


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _boolean(text: str) -> bool:
    try:
        return _BOOLEANS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"{text!r} is not a boolean") from None


def _flat(value) -> list:
    """The entries of a parsed value: a number, a list or a list of rows."""
    if not isinstance(value, list):
        return [value]
    return [v for item in value for v in _flat(item)]


class Params:
    """Section of the config file.  Every typed value is read through one
    rule, :meth:`_read`, so every config error names ``[kind] key``; the
    rule notes each key it reads, for :meth:`unread`.  ``inherited`` are
    the keys of ``[DEFAULT]``, which a run may leave unread."""

    def __init__(self, kind: str, data: dict, inherited=()):
        self.kind = kind
        self.data = dict(data)
        self.inherited = frozenset(inherited)
        self.read = set()

    def _read(self, key, parse, what, default=None, required=False, bounded=False):
        """The value of ``key`` as ``parse`` reads its text.

        An absent key gives ``default``, or a missing-key error when
        ``required``.  Text that ``parse`` rejects with a ValueError, a
        float entry that is not finite and, when ``bounded``, an entry above
        ``MAX_CONFIG_ENTRY`` in magnitude each raise a ConfigError naming
        ``[kind] key = 'text'``; ``what`` names the kind of value expected.
        """
        self.read.add(key)
        if key not in self.data:
            if required:
                raise ConfigError(f"[{self.kind}] missing required key {key!r}")
            return default
        text = self.data[key]
        name = f"[{self.kind}] {key} = {text!r}"
        try:
            value = parse(text)
        except ValueError:  # parse_angle's ConfigError is one
            raise ConfigError(f"{name} is not {what}") from None
        entries = _flat(value)
        if not all(math.isfinite(v) for v in entries if isinstance(v, float)):
            raise ConfigError(f"{name} has a value that is not finite")
        if bounded and any(abs(v) > MAX_CONFIG_ENTRY for v in entries):
            raise ConfigError(f"{name} has a value above {MAX_CONFIG_ENTRY:g} "
                              "in magnitude (MAX_CONFIG_ENTRY)")
        return value

    def get_float(self, key, default=None, required=False, bounded=False):
        return self._read(key, float, "a number", default, required, bounded)

    def get_int(self, key, default=None, required=False, bounded=False):
        return self._read(key, _integer, "an integer", default, required, bounded)

    def get_bool(self, key, default=False):
        return self._read(key, _boolean, "a boolean", default)

    def get_floats(self, key, default=None, required=False, bounded=False):
        return self._read(key, _number_list, "a number list", default, required, bounded)

    def get_angle(self, key, default=None, required=False):
        return self._read(key, parse_angle, "an angle", default, required)

    def get_matrix(self, key) -> np.ndarray:
        """A required number matrix, rows split by ';' and entries by ','."""
        rows = self._read(key, _number_rows, "a number matrix", required=True,
                          bounded=True)
        if len({len(r) for r in rows}) > 1:
            raise ConfigError(f"[{self.kind}] {key} = {self.data[key]!r} "
                              "has rows of unequal length")
        return np.array(rows)

    def get_str(self, key, default=None, required=False):
        return self._read(key, str, "text", default, required)

    def keys(self):
        return self.data.keys()

    def unread(self) -> list:
        """The section's own keys that no read has asked for, in file order."""
        return [k for k in self.data if k not in self.read and k not in self.inherited]


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
        return Params(kind, dict(parser.items(kind)), parser.defaults())
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


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a NaN-free array, ascending: ``np.unique``'s
    result, without its import of ``numpy.ma`` on a cold run."""
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


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
    if max(points, n_oracle) > _MAX_SWEEP_POINTS:
        raise ConfigError(f"[spectrum] points and oracle_points must be at most "
                          f"{_MAX_SWEEP_POINTS}")
    if mu != 0.0:
        raise ConfigError(
            "[spectrum] the closed-form spectrum holds at mu = 0 only; for "
            "mu > 0 use cvmbqc.laser.y_spectral_variance_oracle directly")

    model = laser.XNoiseModel(factor)
    with _float_range("spectrum", f"kappa = {kappa:g}, omega from {lo:g} to {hi:g} "
                                  f"and excess_factor = {factor:g}"):
        omegas = _sorted_unique(np.concatenate([
            np.logspace(math.log10(lo), math.log10(hi), points), [kappa]]))
        y = laser.y_spectral_variance(omegas, kappa)
        x = laser.x_spectral_variance(omegas, kappa, model)

    oracle_idx = sorted(set(np.linspace(0, omegas.size - 1, n_oracle).astype(int).tolist()))
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
        Verdict("boundary_value_at_kappa", at_kappa, 0.5, "==",
                "VLF_BOUND (4*y_var at omega = kappa sits on the bound)"),
        Verdict("squeezed_below_vacuum", float(np.max(y)), VACUUM_VARIANCE, "<",
                "VACUUM_VARIANCE"),
        Verdict("uncertainty_product", uncert, 1.0 / 16.0, ">=",
                "minimum uncertainty product x_var*y_var >= 1/16"),
        Verdict("oracle_agreement", float(oracle_rel), ORACLE_REL_TOL, "<=",
                "ORACLE_REL_TOL"),
    ]
    return record


def _run_cluster_check(cfg: ExperimentConfig) -> ResultRecord:
    p = cfg.params
    graph_text = p.get_str("graph", "0 1; 1 0")
    try:
        graph = clus.ClusterGraph.from_text(graph_text)
        # defined only on a graph with an edge, so with at least two nodes
        threshold = clus.min_squeezing_threshold(graph)
    except ValueError as exc:
        raise ConfigError(f"[cluster-check] graph = {graph_text!r}: {exc}") from None
    variances = p.get_floats("y_variance", required=True)
    if not variances:
        raise ConfigError("[cluster-check] y_variance needs at least one value")
    for i, v in enumerate(variances):
        if v in variances[:i]:  # each value names a verdict
            raise ConfigError(f"[cluster-check] y_variance repeats the value {v!r}")

    pairwise = graph.n_nodes == 2  # the inseparability sum applies to pairs
    exprs = clus.nullifiers(graph)
    rows = {"y_variance": [], "nullifier_sum": [], "verdict": []}
    verdicts = []
    for v in variances:
        state = clus.generate_cluster([v] * graph.n_nodes, graph)
        if pairwise:
            nullifier_sum = clus.vlf_two_node_check(state, (0, 1)).nullifier_sum
            verdict = Verdict(f"entangled[v={v!r}]", nullifier_sum,
                              clus.VLF_GUARDED_BOUND, "<", "VLF_BOUND - VLF_GUARD")
        else:
            # larger graphs: evaluate the nullifier variances directly and
            # check the source squeezing against the edge threshold
            nullifier_sum = float(np.trace(expr_covariance(exprs, state.cov)))
            verdict = Verdict(f"below_edge_threshold[v={v!r}]", float(v), threshold,
                              "<", "min_squeezing_threshold(graph)")
        verdicts.append(verdict)
        rows["y_variance"].append(float(v))
        rows["nullifier_sum"].append(nullifier_sum)
        rows["verdict"].append(verdict.passed)
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
    multiples = p._read("multiples", _integer_list, "an integer list", [1, 2, 5, 50])
    k_values = p._read("k_values", _integer_list, "an integer list",
                       [-3, -2, -1, 0, 1, 2, 3])
    x_probe = p.get_float("x_variance", 10.0, bounded=True)
    if duration <= 0 or gap <= 0:
        raise ConfigError("[delayed-check] duration and gap must be positive")
    if not multiples or min(multiples) < 1 or not k_values:
        raise ConfigError("[delayed-check] need multiples >= 1 and at least one k value")
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
        Verdict("grid_reduction_exact", float(all_reduced), 1.0, "==",
                "on-grid frequencies reduce to 4*y_var exactly"),
        Verdict("offgrid_fails", probe.lhs, multiplex.DELAYED_VLF_BOUND, ">=",
                "DELAYED_VLF_BOUND"),
    ]
    return record


def _input_cov(p: Params) -> np.ndarray:
    vals = p.get_floats("input_cov", [VACUUM_VARIANCE, 0.0, VACUUM_VARIANCE], bounded=True)
    if len(vals) != 3:
        raise ConfigError(f"[{p.kind}] input_cov needs 3 numbers: xx, xy, yy")
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
    feed_forward_offsets_zero verdict over all outputs, whose value is the
    largest classical term left: an offset or a symbol coefficient.
    """
    if cfg.seed is None:
        raise ConfigError(f"[{cfg.kind}] sampling mode needs --seed")
    rng = np.random.default_rng(cfg.seed)
    blocks = []
    leftover = []
    for out in outputs:
        currents = gates.sample_currents(out, input_blocks, rng)
        corrected = gates.feed_forward(out, currents)
        leftover += [t for e in corrected.exprs for t in (e.offset, *e.symbols.values())]
        blocks.append({
            "currents": {k: _round12(v) for k, v in sorted(currents.items())},
            "feed_forward_shifts": [_round12(e.substitute(currents).offset)
                                    for e in out.exprs],
            "corrected_offsets": [e.offset for e in corrected.exprs],
            "corrected_symbol_count": [len(e.symbols) for e in corrected.exprs],
        })
    # np.max, unlike max, keeps a NaN term
    verdict = Verdict("feed_forward_offsets_zero", float(np.max(np.abs(leftover))),
                      0.0, "==", "feed-forward leaves no classical values")
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
        Verdict("gate_determinant", det_err, GATE_DET_TOL, "<=", "GATE_DET_TOL"),
        Verdict("oracle_agreement", oracle_err, STEP_ORACLE_TOL, "<=", "STEP_ORACLE_TOL"),
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
        target = p.get_matrix("target")
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
        Verdict("net_determinant", det_err, 1e-9, "<=",
                "composed gate stays determinant-one"),
        Verdict("oracle_agreement", oracle_err, STEP_ORACLE_TOL, "<=", "STEP_ORACLE_TOL"),
    ]
    if solver_residual is not None:
        record.scalars["solver_residual"] = solver_residual
        record.verdicts.append(Verdict(
            "phase_solver_residual", solver_residual, PHASE_RESIDUAL_TOL, "<=",
            "PHASE_RESIDUAL_TOL"))
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
              else gates.TwoModeCoefficients(p.get_matrix("a"), p.get_matrix("b")))
    matrix = gates.cz_transform(coeffs)
    sympl_err = symplectic_residual(matrix)
    record = ResultRecord(
        kind="cz",
        inputs={"a": coeffs.a.tolist(), "b": coeffs.b.tolist(),
                "canonical": canonical},
        scalars={"matrix": matrix.tolist(), "symplectic_residual": sympl_err},
    )
    record.verdicts = [
        Verdict("symplectic", sympl_err, SYMPLECTIC_TOL, "<", "SYMPLECTIC_TOL"),
    ]
    if canonical:
        exact = bool(np.array_equal(matrix, gates.CZ_MATRIX))
        record.verdicts.append(Verdict(
            "matches_entangling_target", float(exact), 1.0, "==",
            "canonical blocks reproduce the entangling matrix exactly"))
    return record


def _run_pipeline(cfg: ExperimentConfig) -> ResultRecord:
    p = cfg.params
    duration = p.get_float("duration", required=True)
    gap = p.get_float("gap", required=True)
    lanes = p.get_int("lanes", required=True)
    if lanes < 1:
        raise ConfigError("[pipeline] lanes must be at least 1")
    ticks = p.get_int("ticks_per_gap", 100, bounded=True)
    if ticks < 1:
        raise ConfigError("[pipeline] ticks_per_gap must be at least 1")
    beta0 = _beta_0(p)
    allow = p.get_bool("allow_unentangled", False)

    lane_angles = [p._read(f"settings_lane{lane}", _angle_pairs,
                           "a list of 'theta_in, theta_1' pairs split by ';'", required=True)
                   for lane in range(lanes)]
    settings = [[gates.HomodyneSetting(theta_in, theta_1, beta0) for theta_in, theta_1 in pairs]
                for pairs in lane_angles]
    steps = len(settings[0])
    if any(len(s) != steps for s in settings):
        raise ConfigError("[pipeline] all lanes need the same number of steps")

    cluster = _cluster_from(p)
    clusters = [cluster] * (lanes * steps)
    inputs = [(x_quad(0), y_quad(0)) for _ in range(lanes)]
    try:
        result = multiplex.simulate_pipeline(duration, gap, inputs, clusters, settings,
                                             ticks_per_gap=ticks,
                                             allow_unentangled=allow)
    except multiplex.LaneCollisionError as exc:
        raise ConfigError(f"[pipeline] {exc}") from None

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
        scalars={"delay": result.delay,
                 "delay_multiple_of_gap": lanes,
                 "collisions": collisions,
                 "lane_isolation_residual": isolation,
                 "event_count": len(result.events),
                 "lanes_detail": lane_rows},
    )
    record.verdicts = [
        Verdict("no_collisions", float(collisions), 0.0, "==",
                "lanes never share a beam-splitter event"),
        Verdict("lane_isolation", isolation, LANE_ISOLATION_TOL, "<=", "LANE_ISOLATION_TOL"),
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
    """Run one experiment; deterministic for a fixed config and seed.

    A key of the kind's section that the run never read, such as a
    misspelt ``samplng`` or a ``settings_lane1`` beyond ``lanes = 1``, is a
    config error: the run did not do what the section asks.
    """
    if cfg.kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    record = _RUNNERS[cfg.kind](cfg)
    unread = cfg.params.unread()
    if unread:
        raise ConfigError("; ".join(f"[{cfg.kind}] {key} is set but never read"
                                    for key in unread))
    return record


def write_outputs(record: ResultRecord, cfg: ExperimentConfig) -> list:
    """Write the CSV series and the event log, then the verdict files: the
    JSON record and, with ``--format csv``, the verdict CSV.  Written last,
    so an output error part way leaves no record that says it passed.
    Returns the paths, verdict files first."""
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    verdict_files = {out / f"{record.kind}.json": record.to_json()}
    if cfg.fmt == "csv":
        lines = ["name,value,threshold,comparison,passed"]
        for v in record.verdicts:
            value, threshold = v.printed()
            lines.append(f"{v.name},{value},{threshold},{v.comparison},{int(v.passed)}")
        verdict_files[out / f"{record.kind}.csv"] = "\n".join(lines) + "\n"
    data_files = {out / f"{record.kind}_{name}.csv": record.series_csv(name)
                  for name in record.series}
    events = getattr(record, "events", None)
    if events:
        data_files[out / "events.jsonl"] = multiplex.events_to_jsonl(events)
    for path, text in (*data_files.items(), *verdict_files.items()):
        path.write_text(text)
    return [*verdict_files, *data_files]


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"need a non-negative integer, got {text!r}")
    return seed


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
        k.add_argument("--seed", type=_seed, default=None, help="sampling seed")
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
    try:
        paths = write_outputs(record, cfg)
    except OSError as exc:  # --out under a file, or naming one
        print(f"output error: cannot write {exc.filename or str(cfg.out_dir)!r}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    for v in record.verdicts:
        print(v.line())
    for path in paths:
        print(f"wrote {path}")
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
