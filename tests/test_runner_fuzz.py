"""Property test of the command-line contract over generated configs.

Whatever the numbers in a ``[cluster-check]`` or ``[gate]`` section, a run
ends with exit code 0 (all verdicts pass), 1 (a verdict fails) or 2 (a
config error), and never with a traceback.
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


def section(kind, keys):
    """Config text of one section holding any subset of ``keys``."""
    return st.fixed_dictionaries({}, optional=keys).map(
        lambda drawn: f"[{kind}]\n" + "".join(f"{k} = {v}\n" for k, v in drawn.items()))


CLUSTER_CHECK = section("cluster-check", {"graph": GRAPH, "y_variance": NUMBER_LIST})
# half of the angle draws are a valid, non-degenerate pair, so the other
# keys reach the engine rather than stopping at the phase check
GATE = section("gate", {
    "theta_in": st.one_of(st.just("0.9"), NUMBER),
    "theta_1": st.one_of(st.just("0.35"), NUMBER),
    "beta_0": NUMBER, "y_variance": NUMBER, "y_variance_1": NUMBER,
    "y_variance_2": NUMBER, "excess_factor": NUMBER, "input_cov": NUMBER_LIST,
    "allow_unentangled": BOOL, "sampling": BOOL,
})
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
