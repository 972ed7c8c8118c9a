"""The README's library quick start and command-line example run against
this checkout, its config key tables list the keys of ``runner.KEYS``, and
the names of its removed-names table are gone from the package."""

import configparser
import dataclasses
import importlib
import json
import pkgutil
import re
import typing
from pathlib import Path

import pytest

import cvmbqc
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


def removed_names() -> list:
    """The names in the first cells of the README's "Removed names and their
    replacements" table: each backticked dotted name (``module.name``,
    ``Class.member``) or name with an argument list, its arguments dropped.
    What a cell says from "the " on names an argument or a config key of a
    name that stays, so it is not read."""
    table = re.search(r"^Removed names and their replacements:\n\n\| removed \|.*\n\|[-| ]+\n"
                      r"((?:\|.*\n)+)", README.read_text(), re.M)
    assert table, "README has no removed-names table"
    names = []
    for line in table.group(1).splitlines():
        cell = re.split(r"(?<!\\)\|", line.strip("|"))[0]
        cell = re.split(r"(?:^|\s)the\s", cell.strip())[0]
        for token in re.findall(r"`([^`]+)`", cell):
            name = re.fullmatch(r"([A-Za-z_]\w*(?:\.\w+)*)(\(.*\))?", token)
            if name and ("." in name.group(1) or name.group(2)):
                names.append(name.group(1))
    return names


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names something in ``cvmbqc`` or one of its modules,
    reading a dataclass field that has no class attribute through its type."""
    roots = [cvmbqc] + [importlib.import_module(f"cvmbqc.{m.name}")
                        for m in pkgutil.iter_modules(cvmbqc.__path__)
                        if not m.name.startswith("_")]
    for obj in roots:
        for part in dotted.split("."):
            if hasattr(obj, part):
                obj = getattr(obj, part)
            elif (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and part in {f.name for f in dataclasses.fields(obj)}):
                obj = typing.get_type_hints(obj)[part]
            else:
                break
        else:
            return True
    return False


def test_removed_names_are_gone():
    names = removed_names()
    assert "quadrature.is_symplectic" in names and "single_step" in names
    assert not [name for name in names if resolves(name)]
