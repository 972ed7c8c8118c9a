"""The README's library quick start and command-line example run against
this checkout, and its config key tables list the keys of ``runner.KEYS``."""

import configparser
import json
import re
from pathlib import Path

import pytest

from cvmbqc import runner
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


def key_tables() -> dict:
    """kind -> [(key, value, default)] from the README's config key tables,
    each table headed by the kinds it serves."""
    tables = {}
    for header, body in re.findall(r"^#### (.*)\n\n\| key \|.*\n\|[-| ]+\n((?:\|.*\n)+)",
                                   README.read_text(), re.M):
        for kind in re.findall(r"`\[([\w-]+)\]`", header):
            for line in body.splitlines():
                key, value, default, _meaning = (c.strip() for c in line.strip("|").split("|"))
                tables.setdefault(kind, []).append((key.strip("`"), value, default))
    return tables


def spells_default(cell: str, row: runner.Key) -> bool:
    """Whether a README default cell states the default of ``row``."""
    if row.default is runner.REQUIRED:
        return cell == "required"
    if isinstance(row.default, runner.Fallback):
        return cell == f"from `{row.default}`"
    if row.default is None:
        return cell == "—"
    parse, _what = row.value
    expected = list(row.default) if isinstance(row.default, tuple) else row.default
    return cell.startswith("`") and cell.endswith("`") and parse(cell[1:-1]) == expected


@pytest.mark.parametrize("kind", runner.EXPERIMENT_KINDS)
def test_key_tables_match_the_runner(kind):
    rows = key_tables()[kind]
    keys = [key for key, _value, _default in rows]
    assert sorted(keys) == sorted(runner.KEYS[kind]), "a key missing, extra or twice"
    for key, value, default in rows:
        row = runner.KEYS[kind][key]
        assert value == row.value[1], key
        assert spells_default(default, row), (key, default, row.default)
