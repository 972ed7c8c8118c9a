"""Property test of the command-line contract over generated configs.

Whatever the numbers in a ``[cluster-check]``, ``[gate]`` or ``[compose]``
section, a run ends with exit code 0 (all verdicts pass), 1 (a verdict
fails) or 2 (a config error), and never with a traceback.
"""

import io
import os
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

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


def section(kind, keys, required=None):
    """Config text of one section: every key of ``required``, any subset of ``keys``."""
    return st.fixed_dictionaries(required or {}, optional=keys).map(
        lambda drawn: f"[{kind}]\n" + "".join(f"{k} = {v}\n" for k, v in drawn.items()))


def mostly(valid, other=NUMBER):
    """One of the ``valid`` spellings seven draws in eight, else ``other``.

    A config with a dozen keys reaches the engine only when all of them are
    valid, so each key must be valid far more often than not."""
    return st.integers(0, 7).flatmap(lambda i: other if i == 0 else st.sampled_from(valid))


CLUSTER_CHECK = section(
    "cluster-check",
    {"graph": mostly(["0 1; 1 0", "0 1 0; 1 0 1; 0 1 0",
                      "0 1 1 1; 1 0 0 0; 1 0 0 0; 1 0 0 0"], GRAPH)},
    required={"y_variance": mostly(["0.05", "0.01, 0.1", "0.2, 0.05, 0.01", "0.3"],
                                   NUMBER_LIST)})
VARIANCE = mostly(["0.05", "0.01", "0.1"])
STEP_KEYS = {
    "beta_0": mostly(["1e6", "3", "0.5"]), "y_variance": VARIANCE,
    "excess_factor": mostly(["1", "10", "2.5"]),
    "input_cov": mostly(["0.25, 0, 0.25", "0.5, 0.1, 0.2", "1, -0.3, 0.5"], NUMBER_LIST),
    "allow_unentangled": BOOL, "sampling": BOOL,
}
GATE = section("gate", {**STEP_KEYS, "y_variance_1": VARIANCE, "y_variance_2": VARIANCE},
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
FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def run_cli(kind, text):
    """Exit code and stderr of ``runner.main`` on one config, in-process."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.ini")
        with open(path, "w") as fh:
            fh.write(text)
        argv = [kind, "--config", path, "--out", os.path.join(tmp, "out"), "--seed", "3"]
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except Exception:  # what would reach the user as a traceback
                traceback.print_exc()
                code = None
    return code, err.getvalue()


def check_contract(kind, text):
    code, err = run_cli(kind, text)
    assert "Traceback" not in err, f"{text}\n{err}"
    assert code in (0, 1, 2), f"{text}\nexit {code}\n{err}"


@FUZZ
@given(CLUSTER_CHECK)
def test_cluster_check_contract(text):
    check_contract("cluster-check", text)


@FUZZ
@given(GATE)
# inputs that once ended in a ZeroDivisionError traceback
@example("[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ny_variance = 0\n")
@example("[gate]\ntheta_in = pi/0\ntheta_1 = 0.35\n")
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
