"""Property test of the command-line contract over generated configs.

Whatever the numbers in a section of any of the seven kinds, a run ends
with exit code 0 (all verdicts pass), 1 (a verdict fails) or 2 (a config
error), and never with a traceback.  A run that ends 0 or 1 writes a
record whose verdict names are unique and whose ``passed`` is the AND of
its verdicts'.
"""

import io
import json
import os
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cvmbqc import runner  # noqa: E402
from cvmbqc.runner import main  # noqa: E402

#: Numbers as they could appear in a config: edge values, non-finite
#: spellings, angles and arbitrary floats.
NUMBER = st.one_of(
    st.sampled_from(["0", "-0", "-1", "-0.05", "1e-300", "1e308", "nan", "inf",
                     "-inf", "0.01", "0.05", "0.125", "0.25", "1", "10",
                     "pi/2", "-pi/4", "pi/0", "0.3", "0.9"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
NUMBER_LIST = st.lists(NUMBER, max_size=4).map(", ".join)
GRAPH = st.sampled_from(["0 1; 1 0", "0 1 0; 1 0 1; 0 1 0",
                         "0 1 1 1; 1 0 0 0; 1 0 0 0; 1 0 0 0",
                         "0 0; 0 0", "0", "0 1; 0 0", "0 2; 2 0", "1 0; 0 0"])
BOOL = st.sampled_from(["true", "false"])


#: kind -> every key its strategies draw
DRAWN = {}


def section(kind, keys, required=None):
    """Config text of one section: every key of ``required``, any subset of ``keys``."""
    DRAWN.setdefault(kind, set()).update(keys, required or {})
    return st.fixed_dictionaries(required or {}, optional=keys).map(
        lambda drawn: f"[{kind}]\n" + "".join(f"{k} = {v}\n" for k, v in drawn.items()))


def mostly(valid, other=NUMBER):
    """One of the ``valid`` spellings seven draws in eight, else ``other``.

    A config with a dozen keys reaches the engine only when all of them are
    valid, so each key must be valid far more often than not."""
    return st.integers(0, 7).flatmap(lambda i: other if i == 0 else st.sampled_from(valid))


SPECTRUM = section(
    "spectrum",
    {"omega_min": mostly(["1e-3", "0.01", "0.5"]),
     "omega_max": mostly(["1e3", "100", "20"]),
     "points": mostly(["40", "200", "2"]),
     "excess_factor": mostly(["10", "1", "2.5"]),
     "oracle_points": mostly(["9", "2", "5"])},
    required={"kappa": mostly(["1", "0.5", "1.3", "2"])})
CLUSTER_CHECK = section(
    "cluster-check",
    {"graph": mostly(["0 1; 1 0", "0 1 0; 1 0 1; 0 1 0",
                      "0 1 1 1; 1 0 0 0; 1 0 0 0; 1 0 0 0"], GRAPH)},
    required={"y_variance": mostly(["0.05", "0.01, 0.1", "0.2, 0.05, 0.01", "0.3"],
                                   NUMBER_LIST)})
DELAYED_CHECK = section(
    "delayed-check",
    {"multiples": mostly(["1, 2, 5, 50", "1", "3, 7"], NUMBER_LIST),
     "k_values": mostly(["-3, -2, -1, 0, 1, 2, 3", "0", "1, 2"], NUMBER_LIST),
     "x_variance": mostly(["10", "0.5", "100"])},
    required={"kappa": mostly(["1", "0.5", "2"]),
              "duration": mostly(["5.0", "20", "1"]),
              "gap": mostly(["1.0", "5", "0.5"])})
VARIANCE = mostly(["0.05", "0.01", "0.1"])
STEP_KEYS = {
    "beta_0": mostly(["1e6", "3", "0.5"]), "y_variance": VARIANCE,
    "excess_factor": mostly(["1", "10", "2.5"]),
    "input_cov": mostly(["0.25, 0, 0.25", "0.5, 0.1, 0.2", "1, -0.3, 0.5"], NUMBER_LIST),
    "allow_unentangled": BOOL, "sampling": BOOL,
    "y_variance_1": VARIANCE, "y_variance_2": VARIANCE,
}
GATE = section("gate", STEP_KEYS,
               required={"theta_in": mostly(["0.9", "pi/2", "-0.4", "2.5"]),
                         "theta_1": mostly(["0.35", "0", "1.2"])})
# compose either from four explicit angles or from a target the phase
# solver inverts; both then run the engine and two oracle steps
COMPOSE_KEYS = {**STEP_KEYS, **{f"y_variance_{node}_step{step}": VARIANCE
                                for node in (1, 2) for step in (1, 2)}}
COMPOSE_ANGLES = section("compose", COMPOSE_KEYS, required={
    "theta_in_1": mostly(["0.9", "pi/2"]), "theta_1_1": mostly(["0.35", "0"]),
    "theta_in_2": mostly(["1.4", "-0.4"]), "theta_1_2": mostly(["0.6", "1.2"])})
MATRIX = st.lists(NUMBER, min_size=4, max_size=4).map(
    lambda v: f"{v[0]}, {v[1]}; {v[2]}, {v[3]}")
TARGET = mostly(["1, 0.5; 0, 1", "2, 0; 0, 0.5", "0, 1; -1, 0", "-1, 0; 0, -1",
                 "1e4, 0; 0, 1e-4"],
                st.one_of(st.sampled_from(["2, 0; 0, 1", "1, 0; 0"]), MATRIX))
COMPOSE_TARGET = section("compose", COMPOSE_KEYS, required={"target": TARGET})
# cz: both blocks, one block (a config error) or none (the canonical pair)
BLOCK = mostly(["1, 0; 1, 1", "1, 0; -1, 1", "1, 0; 0, 1", "2, 0; 0, 0.5", "0, 1; -1, 0"],
               st.one_of(st.sampled_from(["1, 0; 0", "1, 0; 0, 1; 0, 0", ""]), MATRIX))
CZ = section("cz", {"a": BLOCK, "b": BLOCK})
# pipeline: every lane runs the same number of steps, two in the valid spellings
LANE = mostly(["0.9, 0.35; 1.4, 0.6", "1.0, 0.3; 1.2, 0.5", "pi/2, 0; -0.4, 1.2"],
              st.one_of(st.sampled_from(["0.9", "", ";", "0.9, 0.35", "0.3, 0.3; 1, 2"]),
                        st.lists(NUMBER, min_size=2, max_size=2).map(", ".join)))
PIPELINE = section(
    "pipeline",
    {**STEP_KEYS,
     "ticks_per_gap": mostly(["100", "1", "7", "1" + "0" * 60]),
     "settings_lane1": LANE, "settings_lane2": LANE},
    required={"duration": mostly(["5.0", "1", "2.5"]), "gap": mostly(["1.0", "0.5", "1"]),
              "lanes": mostly(["1", "2", "3"]), "settings_lane0": LANE})
FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def test_strategies_draw_exactly_the_keys_of_each_table():
    # settings_lane<n> is drawn for the lanes 0..2 that ``lanes`` can name
    for kind, rows in runner.KEYS.items():
        expected = {name for key in rows for name in (
            [key.replace("<n>", str(n)) for n in range(3)] if "<n>" in key else [key])}
        assert DRAWN[kind] == expected, kind


def run_cli(kind, text):
    """Exit code, stderr and parsed record (None if none was written) of
    ``runner.main`` on one config, in-process."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.ini")
        with open(path, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        argv = [kind, "--config", path, "--out", out, "--seed", "3"]
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except Exception:  # what would reach the user as a traceback
                traceback.print_exc()
                code = None
        record_path = os.path.join(out, f"{kind}.json")
        record = None
        if os.path.exists(record_path):
            with open(record_path) as fh:
                record = json.load(fh)
    return code, err.getvalue(), record


def check_contract(kind, text):
    code, err, record = run_cli(kind, text)
    assert "Traceback" not in err, f"{text}\n{err}"
    assert code in (0, 1, 2), f"{text}\nexit {code}\n{err}"
    if code in (0, 1):
        names = [v["name"] for v in record["verdicts"]]
        assert len(set(names)) == len(names), f"{text}\nrepeated name in {names}"
        assert record["passed"] is all(v["passed"] for v in record["verdicts"]), text
        assert code == (0 if record["passed"] else 1), text


@FUZZ
@given(SPECTRUM)
def test_spectrum_contract(text):
    check_contract("spectrum", text)


#: Adjacency rows of a 50-node star, hub first.
STAR_50 = "; ".join(" ".join("1" if (i == 0) != (j == 0) else "0" for j in range(50))
                    for i in range(50))


@FUZZ
@given(CLUSTER_CHECK)
# a variance whose nullifier covariance once overflowed into a
# RuntimeWarning traceback, or wrote Infinity and NaN into the record
@example(f"[cluster-check]\ngraph = {STAR_50}\ny_variance = 1e307\n")
def test_cluster_check_contract(text):
    check_contract("cluster-check", text)


@FUZZ
@given(DELAYED_CHECK)
def test_delayed_check_contract(text):
    check_contract("delayed-check", text)


@FUZZ
@given(GATE)
# inputs that once ended in a ZeroDivisionError traceback
@example("[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ny_variance = 0\n")
@example("[gate]\ntheta_in = pi/0\ntheta_1 = 0.35\n")
# a local-oscillator amplitude whose double or inverse leaves the float range
@example("[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\nbeta_0 = 1e308\nsampling = true\n")
@example("[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\nbeta_0 = 5e-324\n")
def test_gate_contract(text):
    check_contract("gate", text)


@FUZZ
@given(COMPOSE_ANGLES)
def test_compose_angles_contract(text):
    check_contract("compose", text)


@FUZZ
@given(COMPOSE_TARGET)
def test_compose_target_contract(text):
    check_contract("compose", text)


@FUZZ
@given(CZ)
def test_cz_contract(text):
    check_contract("cz", text)


PIPELINE_BASE = "[pipeline]\nlanes = 1\nsettings_lane0 = 0.9, 0.35\n"


@FUZZ
@given(PIPELINE)
# inputs that once ended in an OverflowError, a ZeroDivisionError or a
# RuntimeWarning traceback
@example(PIPELINE_BASE + "duration = 1e308\ngap = 1e-300\n")
@example(PIPELINE_BASE + "duration = 5\ngap = 5e-324\nticks_per_gap = 10\n")
@example(PIPELINE_BASE + "duration = 5\ngap = 1\nticks_per_gap = 1" + "0" * 400 + "\n")
@example(PIPELINE_BASE + "duration = 5\ngap = 1\nbeta_0 = 1e308\nsampling = true\n")
def test_pipeline_contract(text):
    check_contract("pipeline", text)
