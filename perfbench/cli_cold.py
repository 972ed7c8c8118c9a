"""cli-cold: each op is one fresh ``python -m cvmbqc <kind>`` subprocess.

Why: users pay interpreter start and ``import cvmbqc`` (with scipy) on every
CLI run, and the engine does almost no work here, so this is the only
workload where a cold-start change shows, and where an engine change must
show nothing.  The kind cycles through all seven kinds, in a seeded order
per cycle, from one config drawn from the workload seed; sampling is on for
gate, compose and pipeline, and every op writes to a fresh ``--out`` dir.

This module does not import the library at load time; the traced run's
in-process pass imports it when it starts.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import KINDS
from tracing import NULL, CheckFailed

SAMPLING_KINDS = ("gate", "compose", "pipeline")
#: Lanes of the pipeline kind in the generated config.
CONFIG_LANES = 4
#: A cold CLI op that runs longer than this counts as failed.
OP_TIMEOUT_S = 120


def _setting(rng: random.Random) -> tuple:
    """(theta_in, theta_1) with theta+ ~ U(-pi, pi), theta- = pi/2 + U(-0.3, 0.3)."""
    tp = rng.uniform(-math.pi, math.pi)
    tm = math.pi / 2 + rng.uniform(-0.3, 0.3)
    return (tp + tm) / 2, (tp - tm) / 2


def make_config(seed: int) -> tuple:
    """INI text for all seven kinds, and the --seed of each sampling kind."""
    rng = random.Random(seed)
    gate_in, gate_1 = _setting(rng)
    lanes = "\n".join(
        f"settings_lane{lane} = " + "; ".join(
            "{!r}, {!r}".format(*_setting(rng)) for _ in range(2))
        for lane in range(CONFIG_LANES))
    variances = ", ".join(repr(rng.uniform(0.01, 0.1)) for _ in range(3))
    text = f"""\
[spectrum]
kappa = {rng.uniform(0.5, 2.0)!r}

[cluster-check]
y_variance = {variances}

[delayed-check]
kappa = {rng.uniform(0.5, 2.0)!r}
duration = 5.0
gap = 1.0

[gate]
theta_in = {gate_in!r}
theta_1 = {gate_1!r}
y_variance = {rng.uniform(0.03, 0.1)!r}
excess_factor = 10
sampling = true

[compose]
target = 1, {rng.uniform(-1.0, 1.0)!r}; 0, 1
y_variance = {rng.uniform(0.03, 0.1)!r}
excess_factor = 10
sampling = true

[cz]

[pipeline]
duration = 5.0
gap = 1.0
lanes = {CONFIG_LANES}
{lanes}
y_variance = 0.05
excess_factor = 10
sampling = true
"""
    return text, {kind: rng.randrange(2 ** 31) for kind in SAMPLING_KINDS}


class ColdCli:
    """Config, scratch directory and record checks of one cli-cold run."""

    def __init__(self, root: Path, seed: int, work: Path, env: dict):
        self.root = root
        self.env = env
        self.work = work
        self.rng = random.Random(seed)
        text, self.seeds = make_config(seed)
        work.mkdir(parents=True, exist_ok=True)
        self.config = work / "config.ini"
        self.config.write_text(text)
        self.records = {}   # kind -> bytes of the first record in this run
        self.n_out = 0

    def cycles(self):
        """Blocks of ops: all seven kinds, in a seeded order per cycle."""
        while True:
            yield self.rng.sample(KINDS, len(KINDS))

    def _args(self, kind: str, out: Path) -> list:
        args = [kind, "--config", str(self.config), "--out", str(out)]
        if kind in self.seeds:
            args += ["--seed", str(self.seeds[kind])]
        return args

    def fresh_out(self) -> Path:
        self.n_out += 1
        return self.work / f"out{self.n_out}"

    def check_record(self, kind: str, out: Path, layer: str) -> None:
        """The record says passed and matches the run's first record of its kind."""
        path = out / f"{kind}.json"
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise CheckFailed(layer, f"{kind}: no record ({exc})") from None
        if json.loads(data).get("passed") is not True:
            raise CheckFailed(layer, f"{kind}: record says passed != true")
        first = self.records.setdefault(kind, data)
        if data != first:
            raise CheckFailed(layer, f"{kind}: record differs from the run's first")

    def cold_op(self, kind: str, tr=NULL) -> None:
        out = self.fresh_out()
        proc = subprocess.run(
            [sys.executable, "-m", "cvmbqc"] + self._args(kind, out),
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise CheckFailed("runner", f"{kind}: exit {proc.returncode} {tail}")
        self.check_record(kind, out, "runner")

    def close(self) -> None:
        """Remove the config and every op's output directory."""
        shutil.rmtree(self.work, ignore_errors=True)

    # -- traced run only ---------------------------------------------------

    def _python(self, args: list) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable] + args, cwd=self.root, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=OP_TIMEOUT_S, check=True)

    def interp_start_ms(self, repeats: int) -> float:
        """Median wall time of a bare ``python -c pass``: the floor of every op."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self._python(["-c", "pass"])
            times.append((time.perf_counter() - start) * 1e3)
        return statistics.median(times)

    def import_ms(self, repeats: int) -> tuple:
        """Median (import cvmbqc, its scipy share) in ms, from ``-X importtime``."""
        total, scipy = [], []
        for _ in range(repeats):
            err = self._python(["-X", "importtime", "-c", "import cvmbqc"]).stderr
            t, s = parse_importtime(err.decode())
            total.append(t)
            scipy.append(s)
        return statistics.median(total), statistics.median(scipy)

    def in_process_op(self, kind: str, tr=NULL) -> None:
        """``load_params`` -> ``run`` -> ``write_outputs`` in this process.

        When traced, the laser and phase-solver entry points the runner
        calls are wrapped in spans for the duration of the op.
        """
        from cvmbqc import runner

        out = self.fresh_out()
        undo = traced_library(tr) if tr.enabled else []
        try:
            with tr.span("runner.load_params"):
                params = runner.load_params(str(self.config), kind)
            cfg = runner.ExperimentConfig(kind, params, self.seeds.get(kind), out, "json")
            with tr.span(f"runner.run.{kind}"):
                record = runner.run(cfg)
            with tr.span("runner.write_outputs"):
                paths = runner.write_outputs(record, cfg)
        finally:
            restore(undo)
        tr.count("runner.write_outputs.bytes", sum(p.stat().st_size for p in paths))
        self.check_record(kind, out, "runner")


def parse_importtime(text: str) -> tuple:
    """(cumulative ms of ``cvmbqc``, ms of its outermost scipy imports).

    ``-X importtime`` prints children before parents, indenting each name by
    two spaces per nesting level; an outermost scipy import is one with no
    scipy import among its ancestors.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e3))
    total = scipy = 0.0
    ancestors = []  # names on the path from the root, parents read first
    for depth, name, ms in reversed(rows):
        del ancestors[depth:]
        if depth == 0 and name == "cvmbqc":
            total = ms
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in ancestors):
            scipy += ms
        ancestors.append(name)
    return total, scipy


def traced_library(tr) -> list:
    """Wrap the laser and phase-solver entry points the runner calls in spans.

    Returns the undo list for :func:`restore`.  Only module attributes are
    replaced, in this process; no library file changes.
    """
    from cvmbqc import gates, laser

    patches = [(laser, "y_spectral_variance", "laser.spectrum"),
               (laser, "x_spectral_variance", "laser.spectrum"),
               (laser, "y_spectral_variance_oracle", "laser.oracle"),
               (gates, "solve_phases", "gates.solve_phases")]
    undo = []
    for module, attr, span in patches:
        original = getattr(module, attr)
        undo.append((module, attr, original))
        setattr(module, attr, tr.wrap(original, span))
    return undo


def restore(undo) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)
