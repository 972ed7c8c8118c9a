"""The README's library quick start and command-line example run against
this checkout."""

import configparser
import json
import re
from pathlib import Path

from cvmbqc.runner import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.S | re.M)


def test_python_blocks_run():
    blocks = readme_blocks("python")
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_cli_example_runs(tmp_path):
    [block] = readme_blocks("ini")
    cfg = tmp_path / "exp.ini"
    cfg.write_text(block)
    parser = configparser.ConfigParser()
    parser.read_string(block)
    # the [cluster-check] sweep shows two sources too noisy to entangle
    expected = {"spectrum": 0, "cluster-check": 1, "compose": 0, "pipeline": 0}
    assert parser.sections() == list(expected)
    for kind, code in expected.items():
        out = tmp_path / kind
        assert main([kind, "--config", str(cfg), "--out", str(out), "--seed", "7"]) == code
    record = json.loads((tmp_path / "cluster-check" / "cluster-check.json").read_text())
    verdicts = {v["name"]: v["passed"] for v in record["verdicts"]}
    assert verdicts == {"entangled[v=0.24]": False, "entangled[v=0.125]": False,
                        "entangled[v=0.01]": True}
