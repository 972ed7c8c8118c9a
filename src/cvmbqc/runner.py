"""Config-driven command line for the simulator.

Subcommands: spectrum, cluster-check, delayed-check, gate, compose, cz,
pipeline.  Each reads the section of the same name from an INI-style config
file, runs the experiment, writes a JSON record (and CSV series) into the
output directory, prints one line per verdict, and exits 0 only if every
verdict passed (1 on a failed verdict, 2 on usage or config errors).

``gate`` and ``compose`` are one path: each builds its settings and
clusters and runs the engine, and ``_judged_chain`` judges the output
against the single-step oracle chained over the same steps and writes the
record; a verdict for both kinds is added there once.

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
from typing import NamedTuple

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

# Named verdict thresholds.  Each is documented by the inequality it encodes.
# (The two-node inseparability bound is cluster.VLF_GUARDED_BOUND.)
#: Closed-form spectrum vs numeric Fourier oracle, relative.
ORACLE_REL_TOL = 1e-6
#: Gate-matrix determinant distance from 1.
GATE_DET_TOL = 1e-12
#: Composed (engine) signal-matrix determinant distance from 1.
NET_DET_TOL = 1e-9
#: Engine output covariance vs conditioning oracle, absolute.
STEP_ORACLE_TOL = 1e-9
#: Two-step phase-solver residual.
PHASE_RESIDUAL_TOL = gates.PHASE_RESIDUAL_TOL
#: Symplectic-condition residual for constructed maps.
SYMPLECTIC_TOL = quadrature.SYMPLECTIC_TOL
#: Pipeline outputs vs stand-alone per-lane runs, absolute.
LANE_ISOLATION_TOL = 1e-12
#: Nullifier covariance of a generated cluster vs its closed form
#: v (I + A^2), relative to the largest entry of the closed form.
NULLIFIER_COV_REL_TOL = 1e-9
#: Largest magnitude of an input_cov, target or cz block entry, of the
#: cluster-check y_variance, of the delayed-check x_variance and of the
#: pipeline ticks_per_gap, as their rows of KEYS bound them; products of a
#: few such numbers, as the engine, the oracle, the nullifier covariance
#: and determinants form them, stay inside the floating-point range.
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


#: The comparisons a verdict can record and a key's lower bound applies,
#: each read as ``value OP threshold``.
_COMPARISONS = {"<": operator.lt, "<=": operator.le, "==": operator.eq, ">=": operator.ge,
                ">": operator.gt}


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
            return factor * math.pi / div
        return float(t)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse angle {text!r}") from None


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


def _entries(text: str, parse) -> list:
    """Entries split by ',' or ';', each read by ``parse``; empty entries
    are skipped."""
    return [parse(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _matrix(text: str) -> np.ndarray:
    """Rows split by ';', entries by ','; numpy refuses rows of unequal
    length with a ValueError."""
    return np.array([[float(tok) for tok in r.split(",")] for r in text.split(";") if r.strip()])


def _angle_pairs(text: str) -> list:
    """Semicolon-separated 'theta_in, theta_1' pairs of angles."""
    pairs = [_entries(pair, parse_angle) for pair in text.split(";")]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"{text!r} has a step without two angles")
    return pairs


def _flat(value) -> list:
    """The entries of a parsed value: a number, a list or a matrix."""
    if not isinstance(value, (list, np.ndarray)):
        return [value]
    return [v for item in value for v in _flat(item)]


# The kinds of value a key can hold: (parser, what its text must be).  A
# parser raises a ValueError, or a LookupError, on text of another kind.
NUMBER = (float, "a number")
INTEGER = (_integer, "an integer")
BOOLEAN = (lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()], "a boolean")
NUMBER_LIST = (lambda text: _entries(text, float), "a number list")
INTEGER_LIST = (lambda text: _entries(text, _integer), "an integer list")
ANGLE = (parse_angle, "an angle")
MATRIX = (_matrix, "a number matrix with rows of equal length")
TEXT = (str, "text")
LANE_ANGLES = (_angle_pairs, "a list of 'theta_in, theta_1' pairs split by ';'")

#: The default of a key that must be set.
REQUIRED = object()


class Fallback(str):
    """The default of a key that takes the value of another key of its kind."""


class Key(NamedTuple):
    """One config key: its kind of value; its default, ``REQUIRED`` or a
    ``Fallback``; the ``(comparison, bound)`` each entry meets; the largest
    magnitude of an entry; and the key beside which it has no effect."""

    value: tuple
    default: object = None
    lower: tuple | None = None
    magnitude: float | None = None
    unless: str | None = None


#: The two-node clusters and the input mode of the engine kinds.
_STEP_KEYS = {
    "beta_0": Key(NUMBER, gates.DEFAULT_BETA_0),
    "y_variance": Key(NUMBER, 0.05),
    **{f"y_variance_{node}": Key(NUMBER, Fallback("y_variance")) for node in (1, 2)},
    "excess_factor": Key(NUMBER, 10.0),
    "input_cov": Key(NUMBER_LIST, (VACUUM_VARIANCE, 0.0, VACUUM_VARIANCE),
                     magnitude=MAX_CONFIG_ENTRY),
    **dict.fromkeys(("allow_unentangled", "sampling"), Key(BOOLEAN, False)),
}

#: Every key of every kind.  ``settings_lane<n>`` stands for one required
#: key per lane n < ``lanes``.  A value of ``None`` is an absent key that
#: the runner gives its meaning.
KEYS = {
    "spectrum": {
        "kappa": Key(NUMBER, REQUIRED, (">", 0)),
        **dict.fromkeys(("omega_min", "omega_max"), Key(NUMBER)),
        "points": Key(INTEGER, 200, (">=", 2), _MAX_SWEEP_POINTS),
        "excess_factor": Key(NUMBER, 10.0),
        "oracle_points": Key(INTEGER, 9, (">=", 2), _MAX_SWEEP_POINTS),
    },
    "cluster-check": {
        "graph": Key(TEXT, "0 1; 1 0"),
        "y_variance": Key(NUMBER_LIST, REQUIRED, magnitude=MAX_CONFIG_ENTRY),
    },
    "delayed-check": {
        "kappa": Key(NUMBER, REQUIRED),
        **dict.fromkeys(("duration", "gap"), Key(NUMBER, REQUIRED, (">", 0))),
        "multiples": Key(INTEGER_LIST, (1, 2, 5, 50), (">=", 1)),
        "k_values": Key(INTEGER_LIST, (-3, -2, -1, 0, 1, 2, 3)),
        "x_variance": Key(NUMBER, 10.0, magnitude=MAX_CONFIG_ENTRY),
    },
    "gate": {
        **dict.fromkeys(("theta_in", "theta_1"), Key(ANGLE, REQUIRED)),
        **_STEP_KEYS,
    },
    "compose": {
        "target": Key(MATRIX, magnitude=MAX_CONFIG_ENTRY),
        **{f"theta_{node}_{step}": Key(ANGLE, REQUIRED, unless="target")
           for step in (1, 2) for node in ("in", "1")},
        **_STEP_KEYS,
        **{f"y_variance_{node}_step{step}": Key(NUMBER, Fallback(f"y_variance_{node}"))
           for step in (1, 2) for node in (1, 2)},
    },
    "cz": dict.fromkeys(("a", "b"), Key(MATRIX, magnitude=MAX_CONFIG_ENTRY)),
    "pipeline": {
        **dict.fromkeys(("duration", "gap"), Key(NUMBER, REQUIRED)),
        "lanes": Key(INTEGER, REQUIRED, (">=", 1)),
        "ticks_per_gap": Key(INTEGER, 100, (">=", 1), MAX_CONFIG_ENTRY),
        "settings_lane<n>": Key(LANE_ANGLES, REQUIRED),
        **_STEP_KEYS,
    },
}


def _value(kind: str, key: str, row: Key, text: dict, values: dict):
    """The typed value of ``key`` by its row: parse, then finite, then
    bounds, each failure a ConfigError naming ``[kind] key = 'text'``."""
    if row.unless in text:
        return None
    if key not in text:
        if row.default is REQUIRED:
            raise ConfigError(f"[{kind}] missing required key {key!r}")
        return values[row.default] if isinstance(row.default, Fallback) else row.default
    name = f"[{kind}] {key} = {text[key]!r}"
    parse, what = row.value
    try:
        value = parse(text[key])
    except (ValueError, LookupError):  # parse_angle's ConfigError is a ValueError
        raise ConfigError(f"{name} is not {what}") from None
    entries = _flat(value)
    if not all(math.isfinite(v) for v in entries if isinstance(v, float)):
        raise ConfigError(f"{name} has a value that is not finite")
    if row.lower and not all(_COMPARISONS[row.lower[0]](v, row.lower[1]) for v in entries):
        raise ConfigError(f"{name} has a value that is not {row.lower[0]} {row.lower[1]:g}")
    if row.magnitude and any(abs(v) > row.magnitude for v in entries):
        named = " (MAX_CONFIG_ENTRY)" if row.magnitude == MAX_CONFIG_ENTRY else ""
        raise ConfigError(f"{name} has a value above {row.magnitude:g} in magnitude{named}")
    return value


def _typed(kind: str, own: dict, shared: dict) -> dict:
    """The values of the kind's keys, by ``KEYS``: the section's ``own``
    text over the ``shared`` text of ``[DEFAULT]``.  A key of its own that
    has no effect is a config error: one the kind does not have, one beside
    the key that excludes it, or a fallback whose every dependent is set."""
    text = {**shared, **own}
    rows, values = {}, {}
    for key, row in KEYS[kind].items():
        # lazily: a lane past the last one set is a missing key
        for name in ((key.replace("<n>", str(n)) for n in range(values["lanes"]))
                     if "<n>" in key else [key]):
            rows[name] = row
            values[name] = _value(kind, name, row, text, values)

    def shadowed(key):  # every key that falls back to it is set or shadowed
        deps = [k for k, r in rows.items() if isinstance(r.default, Fallback) and r.default == key]
        return bool(deps) and all(k in text or shadowed(k) for k in deps)

    idle = [key for key in own
            if key not in rows or rows[key].unless in text or shadowed(key)]
    if idle:
        raise ConfigError("; ".join(f"[{kind}] {key} is set but never read" for key in idle))
    return values


#: The experiment kinds, each a subcommand.
EXPERIMENT_KINDS = tuple(KEYS)


@dataclass
class ExperimentConfig:
    kind: str
    params: dict  # the typed values load_params returns
    seed: int | None
    out_dir: Path
    fmt: str


def load_params(path: str, kind: str) -> dict:
    """The typed values of the ``[kind]`` section of the config file
    ``path``, checked by ``KEYS`` before any run; a ``[DEFAULT]`` key the
    kind has applies where the section does not set it."""
    if kind not in KEYS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    # no header can spell a line break, so [DEFAULT] parses as a section of
    # its own and feeds no other section's interpolation
    parser = configparser.ConfigParser(default_section="\n")
    try:
        if not parser.read(path):
            raise ConfigError(f"config file {path!r} not found or unreadable")
        if not parser.has_section(kind):
            raise ConfigError(f"config file {path!r} has no [{kind}] section")
        own = dict(parser.items(kind))
        shared = dict(parser.items("DEFAULT")) if parser.has_section("DEFAULT") else {}
    except configparser.Error as exc:
        raise ConfigError(f"config file {path!r} is malformed: {exc}") from None
    return _typed(kind, own, shared)


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
    kappa, points, factor = p["kappa"], p["points"], p["excess_factor"]
    lo = 1e-3 * kappa if p["omega_min"] is None else p["omega_min"]
    hi = 1e3 * kappa if p["omega_max"] is None else p["omega_max"]
    if not 0 < lo < hi:
        raise ConfigError("[spectrum] need 0 < omega_min < omega_max")

    with _float_range("spectrum", f"kappa = {kappa:g}, omega from {lo:g} to {hi:g} "
                                  f"and excess_factor = {factor:g}"):
        omegas = _sorted_unique(np.concatenate([
            np.logspace(math.log10(lo), math.log10(hi), points), [kappa]]))
        y = laser.y_spectral_variance(omegas, kappa)
        x = laser.x_spectral_variance(omegas, kappa, factor)

    oracle_idx = sorted(set(
        np.linspace(0, omegas.size - 1, p["oracle_points"]).astype(int).tolist()))
    oracle_rel = 0.0
    for i in oracle_idx:
        ref = laser.y_spectral_variance_oracle(float(omegas[i]), kappa)
        oracle_rel = max(oracle_rel, abs(ref - y[i]) / y[i])

    at_kappa = 4.0 * float(laser.y_spectral_variance(kappa, kappa))
    uncert = float(np.min(x * y))
    record = ResultRecord(
        kind="spectrum",
        # mu: the phase locking of the closed form and of the oracle's default
        inputs={"kappa": kappa, "omega_min": lo, "omega_max": hi,
                "points": points, "excess_factor": factor, "mu": 0.0},
        scalars={"four_y_var_at_kappa": at_kappa, "oracle_rel_error": oracle_rel},
        series={"sweep": {"omega": list(map(float, omegas)),
                          "y_var": list(map(float, y)),
                          "x_var": list(map(float, x)),
                          "four_y_var": list(map(float, 4.0 * y))}},
    )
    record.verdicts = [
        Verdict("boundary_value_at_kappa", at_kappa, clus.VLF_BOUND, "==",
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
    graph_text = cfg.params["graph"]
    try:
        graph = clus.ClusterGraph.from_text(graph_text)
        # defined only on a graph with an edge, so with at least two nodes
        threshold = clus.min_squeezing_threshold(graph)
    except ValueError as exc:
        raise ConfigError(f"[cluster-check] graph = {graph_text!r}: {exc}") from None
    variances = cfg.params["y_variance"]
    if not variances:
        raise ConfigError("[cluster-check] y_variance needs at least one value")
    for i, v in enumerate(variances):
        if v in variances[:i]:  # each value names a verdict
            raise ConfigError(f"[cluster-check] y_variance repeats the value {v!r}")

    pairwise = graph.n_nodes == 2  # the inseparability sum applies to pairs
    exprs = clus.nullifiers(graph)
    adj = graph.adjacency.astype(float)
    unit_cov = np.eye(graph.n_nodes) + adj @ adj  # nullifier covariance at v = 1
    rows = {"y_variance": [], "nullifier_sum": [], "verdict": []}
    verdicts = []
    for v in variances:
        state = clus.generate_cluster([v] * graph.n_nodes, graph)
        if pairwise:
            nullifier_sum = clus.vlf_two_node_check(state, (0, 1)).nullifier_sum
            checks = [Verdict(f"entangled[v={v!r}]", nullifier_sum,
                              clus.VLF_GUARDED_BOUND, "<", "VLF_BOUND - VLF_GUARD")]
        else:
            # larger graphs: check the source squeezing against the edge
            # threshold, and the generated state's nullifier covariance
            # against v (I + A^2), exact for equal y variances and any Q
            null_cov = expr_covariance(exprs, state.cov)
            nullifier_sum = float(np.trace(null_cov))
            want = v * unit_cov
            # divided as Python floats: a quotient past the float range is
            # inf, with no numpy overflow warning
            rel = float(np.max(np.abs(null_cov - want))) / float(np.max(np.abs(want)))
            checks = [Verdict(f"below_edge_threshold[v={v!r}]", float(v), threshold,
                              "<", "min_squeezing_threshold(graph)"),
                      Verdict(f"nullifier_covariance[v={v!r}]", rel, NULLIFIER_COV_REL_TOL,
                              "<=", "NULLIFIER_COV_REL_TOL")]
        verdicts += checks
        rows["y_variance"].append(float(v))
        rows["nullifier_sum"].append(nullifier_sum)
        rows["verdict"].append(all(c.passed for c in checks))
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
    kappa, duration, gap = p["kappa"], p["duration"], p["gap"]
    multiples, k_values, x_probe = p["multiples"], p["k_values"], p["x_variance"]
    if not multiples or not k_values:
        raise ConfigError("[delayed-check] need at least one multiple and one k value")
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
                    laser.x_spectral_variance(omega, kappa, 10.0))
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


def _input_cov(cfg: ExperimentConfig) -> np.ndarray:
    vals = cfg.params["input_cov"]
    if len(vals) != 3:
        raise ConfigError(f"[{cfg.kind}] input_cov needs 3 numbers: xx, xy, yy")
    cov = np.array([[vals[0], vals[1]], [vals[1], vals[2]]])
    if not (vals[0] > 0 and vals[2] > 0):
        raise ConfigError(f"[{cfg.kind}] input_cov needs positive variances xx and yy")
    if not check_uncertainty(cov):
        raise ConfigError(f"[{cfg.kind}] input_cov breaks the uncertainty bound "
                          "xx*yy - xy^2 >= 1/16")
    return cov


def _beta_0(cfg: ExperimentConfig) -> float:
    beta0 = cfg.params["beta_0"]
    # nonpositive values are left to the library's own check
    if not (beta0 <= 0 or 1.0 / MAX_CONFIG_ENTRY <= beta0 <= MAX_CONFIG_ENTRY):
        raise ConfigError(f"[{cfg.kind}] beta_0 = {beta0:g} is outside "
                          f"[{1.0 / MAX_CONFIG_ENTRY:g}, {MAX_CONFIG_ENTRY:g}] "
                          "(1/MAX_CONFIG_ENTRY to MAX_CONFIG_ENTRY)")
    return beta0


def _cluster(p: dict, suffix: str = "") -> gates.TwoNodeCluster:
    return gates.TwoNodeCluster.from_y_variances(
        p[f"y_variance_1{suffix}"], p[f"y_variance_2{suffix}"], p["excess_factor"])


def _sample_and_feed_forward(cfg: ExperimentConfig, outputs: list,
                             input_blocks: dict) -> tuple:
    """Sample each output's photocurrents from one seeded generator, in
    order, feed them forward, and judge the corrected offsets.

    Returns the currents and the corrected output of each output, and the
    feed_forward_offsets_zero verdict over all outputs, whose value is the
    largest classical term left: an entry of an output's ``offset`` or of
    its ``classical`` rows.
    """
    rng = np.random.default_rng(cfg.seed)
    currents, corrected = [], []
    for out in outputs:
        currents.append(gates.sample_currents(out, input_blocks, rng))
        corrected.append(gates.feed_forward(out, currents[-1]))
    leftover = np.concatenate([t.ravel() for c in corrected for t in (c.offset, c.classical)])
    # np.max, unlike max, keeps a NaN term
    verdict = Verdict("feed_forward_offsets_zero", float(np.max(np.abs(leftover))),
                      0.0, "==", "feed-forward leaves no classical values")
    return currents, corrected, verdict


def _judged_chain(cfg: ExperimentConfig, out: gates.GateOutput, clusters: tuple,
                  settings: tuple, cov_in: np.ndarray, inputs: dict, scalars: dict,
                  determinant: Verdict, extra: tuple = ()) -> ResultRecord:
    """The record of a ``gate`` or ``compose`` run: ``out``, the engine's
    output of ``settings`` on ``clusters`` from mode 0, judged against the
    single-step oracle chained over the same steps from ``cov_in``.

    ``inputs``, ``scalars``, ``determinant`` and ``extra`` are the kind's
    own; ``determinant.value`` is the recorded ``det_minus_one``.  The
    verdicts run: the determinant, oracle_agreement, the ``extra`` ones,
    then in sampling mode feed_forward_offsets_zero, with the sampled
    currents, the shifts they put on the output offsets, the corrected
    offsets and symbol counts in the ``sampling`` block.
    """
    engine_cov = gates.output_covariance(out, {0: cov_in})
    oracle_cov = cov_in
    for cluster, setting in zip(clusters, settings):
        oracle_cov = gates.single_step_covariance_oracle(oracle_cov, cluster, setting)
    oracle_err = float(np.max(np.abs(engine_cov - oracle_cov)))
    record = ResultRecord(
        kind=cfg.kind, inputs=inputs,
        scalars={**scalars, "output_covariance": engine_cov.tolist(),
                 "oracle_covariance": oracle_cov.tolist(),
                 "residuals": {"det_minus_one": determinant.value, "oracle": oracle_err}},
        verdicts=[determinant, Verdict("oracle_agreement", oracle_err, STEP_ORACLE_TOL, "<=",
                                       "STEP_ORACLE_TOL"), *extra])
    if cfg.params["sampling"]:
        [currents], [corrected], verdict = _sample_and_feed_forward(cfg, [out], {0: cov_in})
        record.scalars["sampling"] = {
            "currents": {k: _round12(v) for k, v in sorted(currents.items())},
            "feed_forward_shifts": [_round12(v) for v in (
                out.offset + out.classical @ [currents[n] for n in out.current_names])],
            "corrected_offsets": corrected.offset.tolist(),
            "corrected_symbol_count": np.count_nonzero(corrected.classical, axis=1).tolist(),
        }
        record.verdicts.append(verdict)
    return record


def _run_gate(cfg: ExperimentConfig) -> ResultRecord:
    p = cfg.params
    setting = gates.HomodyneSetting(p["theta_in"], p["theta_1"], _beta_0(cfg))
    cluster = _cluster(p)
    cov_in = _input_cov(cfg)
    # M itself, not the engine's signal: its product with the identity
    # loses the sign of a zero entry
    M = gates.gate_matrix(setting.theta_plus, setting.theta_minus)
    out = gates.run_steps((x_quad(0), y_quad(0)), (cluster,), (setting,),
                          allow_unentangled=p["allow_unentangled"])
    det_err = abs(float(np.linalg.det(M)) - 1.0)
    return _judged_chain(
        cfg, out, (cluster,), (setting,), cov_in,
        {"theta_in": setting.theta_in, "theta_1": setting.theta_1,
         "beta_0": setting.beta_0, "y_variances": cluster.y_variances,
         "x_variances": cluster.x_variances, "input_cov": cov_in.tolist()},
        {"signal_matrix": M.tolist(), "noise_covariance": out.noise_covariance().tolist()},
        Verdict("gate_determinant", det_err, GATE_DET_TOL, "<=", "GATE_DET_TOL"))


def _run_compose(cfg: ExperimentConfig) -> ResultRecord:
    p = cfg.params
    beta0 = _beta_0(cfg)
    cov_in = _input_cov(cfg)
    clusters = tuple(_cluster(p, s) for s in ("_step1", "_step2"))

    scalars, extra = {}, ()
    if p["target"] is not None:
        try:
            solution = gates.solve_phases(p["target"], beta_0=beta0)
        except gates.PhaseSolveError as exc:
            raise ConfigError(f"[compose] {exc}") from None
        settings = (solution.setting_1, solution.setting_2)
        scalars["solver_residual"] = solution.residual
        extra = (Verdict("phase_solver_residual", solution.residual, PHASE_RESIDUAL_TOL, "<=",
                         "PHASE_RESIDUAL_TOL"),)
    else:
        settings = tuple(gates.HomodyneSetting(p[f"theta_in_{step}"], p[f"theta_1_{step}"], beta0)
                         for step in (1, 2))

    out = gates.run_steps((x_quad(0), y_quad(0)), clusters, settings,
                          allow_unentangled=p["allow_unentangled"])
    s1, s2 = settings
    scalars["signal_matrix"] = out.signal_matrix.tolist()
    det_err = abs(float(np.linalg.det(out.signal_matrix)) - 1.0)
    return _judged_chain(
        cfg, out, clusters, settings, cov_in,
        {"theta_in_1": s1.theta_in, "theta_1_1": s1.theta_1,
         "theta_in_2": s2.theta_in, "theta_1_2": s2.theta_1,
         "beta_0": beta0, "input_cov": cov_in.tolist(),
         "y_variances": [c.y_variances for c in clusters]},
        scalars,
        Verdict("net_determinant", det_err, NET_DET_TOL, "<=",
                "composed gate stays determinant-one"), extra)


def _run_cz(cfg: ExperimentConfig) -> ResultRecord:
    a, b = cfg.params["a"], cfg.params["b"]
    if (a is None) != (b is None):
        raise ConfigError("[cz] provide both blocks a and b, or neither")
    canonical = a is None
    coeffs = gates.canonical_cz_coefficients() if canonical else gates.TwoModeCoefficients(a, b)
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
    duration, gap, lanes, ticks = p["duration"], p["gap"], p["lanes"], p["ticks_per_gap"]
    beta0 = _beta_0(cfg)
    allow = p["allow_unentangled"]
    settings = [[gates.HomodyneSetting(theta_in, theta_1, beta0)
                 for theta_in, theta_1 in p[f"settings_lane{lane}"]] for lane in range(lanes)]
    steps = len(settings[0])
    if any(len(s) != steps for s in settings):
        raise ConfigError("[pipeline] all lanes need the same number of steps")

    cluster = _cluster(p)
    cov_in = _input_cov(cfg)
    clusters = [cluster] * (lanes * steps)
    inputs = [(x_quad(0), y_quad(0)) for _ in range(lanes)]
    try:
        result = multiplex.simulate_pipeline(duration, gap, inputs, clusters, settings,
                                             ticks_per_gap=ticks,
                                             allow_unentangled=allow)
    except multiplex.LaneCollisionError as exc:
        raise ConfigError(f"[pipeline] {exc}") from None

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
    if p["sampling"]:
        # the record keeps no per-lane sampling block, only the verdict
        *_, verdict = _sample_and_feed_forward(cfg, result.outputs, {0: cov_in})
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
    """Run one experiment on the values ``load_params`` checked;
    deterministic for a fixed config and seed."""
    if cfg.params.get("sampling") and cfg.seed is None:
        raise ConfigError(f"[{cfg.kind}] sampling mode needs --seed")
    return _RUNNERS[cfg.kind](cfg)


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
    if record.events:
        data_files[out / "events.jsonl"] = multiplex.events_to_jsonl(record.events)
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
