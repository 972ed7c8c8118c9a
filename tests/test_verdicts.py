"""Verdicts that a faulty library function makes fail.

Each case names a verdict, the kind and config that emit it, and a fault:
a monkeypatched library function, never an edit of the runner's
comparison.  The config passes as written; with the fault in place the
run exits 1 and the record marks that verdict false.
"""

import json
from dataclasses import replace

import pytest

from cvmbqc import gates
from cvmbqc.runner import main


def gate_matrix_off_determinant(real):
    """gate_matrix scaled by 1.01, so its determinant is 1.0201."""
    return lambda theta_plus, theta_minus: 1.01 * real(theta_plus, theta_minus)


def run_steps_scaled_signal(real):
    """run_steps whose net gate is scaled by 1.01 (its exprs rebuilt to match)."""
    def scaled(*args, **kwargs):
        out = real(*args, **kwargs)
        return replace(out, signal_matrix=1.01 * out.signal_matrix, exprs=None)
    return scaled


#: verdict -> (kind, config body, patched gates function, fault)
CASES = {
    "gate_determinant": (
        "gate", "[gate]\ntheta_in = 0.9\ntheta_1 = 0.35\ny_variance = 0.05\n",
        "gate_matrix", gate_matrix_off_determinant),
    "net_determinant": (
        "compose", "[compose]\ntheta_in_1 = 0.9\ntheta_1_1 = 0.35\n"
                   "theta_in_2 = 1.4\ntheta_1_2 = 0.6\ny_variance = 0.05\n",
        "run_steps", run_steps_scaled_signal),
}


def run_kind(tmp_path, kind, body, out):
    config = tmp_path / "exp.ini"
    config.write_text(body)
    code = main([kind, "--config", str(config), "--out", str(tmp_path / out)])
    record = json.loads((tmp_path / out / f"{kind}.json").read_text())
    return code, {v["name"]: v for v in record["verdicts"]}


@pytest.mark.parametrize("verdict", sorted(CASES))
def test_fault_fails_the_verdict(tmp_path, monkeypatch, capsys, verdict):
    kind, body, name, fault = CASES[verdict]
    code, verdicts = run_kind(tmp_path, kind, body, "ok")
    assert code == 0 and verdicts[verdict]["passed"] is True

    monkeypatch.setattr(gates, name, fault(getattr(gates, name)))
    code, verdicts = run_kind(tmp_path, kind, body, "bad")
    assert code == 1
    assert verdicts[verdict]["passed"] is False
    assert verdicts[verdict]["value"] > verdicts[verdict]["threshold"]
    assert f"[FAIL] {verdict}" in capsys.readouterr().out

