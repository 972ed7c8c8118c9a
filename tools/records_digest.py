"""Digest of everything the CLI writes for the benchmark's generated configs.

    PYTHONPATH=src python tools/records_digest.py

For each seed 0-40, writes the INI text of ``perfbench/cli_cold.make_config``
(all seven kinds, sampling on for gate, compose and pipeline) and runs
every kind in-process through ``cvmbqc.runner.main``, in a fresh output
directory under a temporary working directory.  Then runs ``cluster-check``
on the graphs of ``GRAPHS``: a 50-node chain and a 50-node star, each
swept over several source variances, a 3-node chain swept over 0.01 and
0.25 (exit 1), and a two-node pair swept across the guard band of its
inseparability bound (exit 1), and ``pipeline`` on the sampled shapes of
``PIPELINES``: 1 lane of 1 step, 3 lanes of 3 steps, 2 lanes of 4 steps
on a finer tick grid, and 16 lanes of 4 steps, the shape of the benchmark's
``pipeline-wide`` ops.  Then runs ``gate`` and ``compose`` unsampled on
the configs of ``UNSAMPLED``, whose lines a change to the photocurrent
draw must leave alone; the last of them pins the sign of a zero in the
``gate`` record's ``signal_matrix``.  Prints one line per run: seed,
graph, pipeline shape or unsampled config, kind, exit code, the sha256 of
stdout and of stderr, then the relative path and sha256 of every file
written.  The cvmbqc on the path is the one digested, so two checkouts
compare with ``diff``:

    PYTHONPATH=src python tools/records_digest.py > change.txt
    PYTHONPATH=../parent/src python tools/records_digest.py > parent.txt

A record that depends on the string hash seed shows up as a difference
between runs under two values of PYTHONHASHSEED.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from cli_cold import make_config  # noqa: E402  (read only: the benchmark's configs)
from metrics import KINDS  # noqa: E402

from cvmbqc.runner import main as cli_main  # noqa: E402

#: ``make_config`` seeds digested.
SEEDS = range(41)


def _chain(n: int) -> list:
    return [[int(abs(i - j) == 1) for j in range(n)] for i in range(n)]


def _star(n: int) -> list:
    return [[int((i == 0) != (j == 0)) for j in range(n)] for i in range(n)]


#: ``cluster-check`` runs: name -> (adjacency rows, y_variance list).
#: The 50-node star's edge threshold is 1/52, so its last two variances fail.
#: The pair straddles the guard band below its bound of 1/2: the sums at
#: 0.1249999999999999, 0.12499999999995 and 0.125 lie below 1/2 but within
#: VLF_GUARD of it and fail, 0.124999999999 passes, and 0.13 is above 1/2.
GRAPHS = {
    "chain50": (_chain(50), "0.001, 0.01, 0.05, 0.1, 0.16"),
    "star50": (_star(50), "0.001, 0.005, 0.019, 0.02, 0.05"),
    "chain3": (_chain(3), "0.01, 0.25"),
    "pair-guard": (_chain(2), "0.1249999999999999, 0.12499999999995, 0.124999999999, "
                              "0.125, 0.13"),
}


#: sampled ``pipeline`` runs beyond ``make_config``'s 4 lanes of 2 steps:
#: name -> (lanes, steps, timing keys).
PIPELINES = {
    "1x1": (1, 1, "duration = 5.0\ngap = 1.0\n"),
    "3x3": (3, 3, "duration = 5.0\ngap = 1.0\n"),
    "2x4-fine": (2, 4, "duration = 2.5\ngap = 0.5\nticks_per_gap = 7\n"),
    "16x4": (16, 4, "duration = 5.0\ngap = 1.0\n"),
}
#: ``--seed`` of the ``PIPELINES`` runs.
PIPELINE_SEED = 7

#: unsampled engine runs: name -> (kind, config body).
UNSAMPLED = {
    "gate-angles": ("gate", "theta_in = 0.9\ntheta_1 = 0.35\n"),
    "gate-input": ("gate", "theta_in = -1.2\ntheta_1 = 0.4\ny_variance = 0.02\n"
                           "input_cov = 0.5, 0.1, 0.3\n"),
    "compose-angles": ("compose", "theta_in_1 = 0.9\ntheta_1_1 = 0.2\n"
                                  "theta_in_2 = 1.4\ntheta_1_2 = 0.6\n"),
    "compose-target": ("compose", "target = 2, 0.5; -1, 0.25\ny_variance = 0.03\n"
                                  "input_cov = 0.3, -0.05, 0.25\n"),
    # gate_matrix's lower-left entry is -0.0 here, the engine's signal 0.0
    "gate-signed-zero": ("gate", "theta_in = 0.5\ntheta_1 = -0.5\n"),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_run(label: str, kind: str, out: Path, extra: list) -> str:
    """Runs ``kind`` on ``config.ini`` in the cwd, writing to ``out``; one line."""
    args = [kind, "--config", "config.ini", "--out", str(out)] + extra
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(args)
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    return " ".join(
        [label, kind, f"exit={code}",
         f"stdout={sha(stdout.getvalue().encode())}",
         f"stderr={sha(stderr.getvalue().encode())}"]
        + [f"{p.relative_to(out).as_posix()}={sha(p.read_bytes())}" for p in files])


def digest_seed(seed: int) -> list:
    """One line per kind for the config of ``seed``; runs in the cwd."""
    text, seeds = make_config(seed)
    Path("config.ini").write_text(text)
    return [digest_run(f"seed={seed}", kind, Path(f"out{seed}") / kind,
                       ["--seed", str(seeds[kind])] if kind in seeds else [])
            for kind in KINDS]


def digest_graph(name: str) -> str:
    """The ``cluster-check`` line for the graph ``name`` of ``GRAPHS``; runs in the cwd."""
    rows, variances = GRAPHS[name]
    graph = "; ".join(" ".join(map(str, row)) for row in rows)
    Path("config.ini").write_text(
        f"[cluster-check]\ngraph = {graph}\ny_variance = {variances}\n")
    return digest_run(f"graph={name}", "cluster-check", Path(f"out-{name}"), [])


def digest_pipeline(name: str) -> str:
    """The ``pipeline`` line for the shape ``name`` of ``PIPELINES``; runs in the cwd."""
    lanes, steps, timing = PIPELINES[name]
    settings = "".join(
        f"settings_lane{lane} = " + "; ".join(
            f"{0.9 + 0.1 * lane + 0.05 * step!r}, {0.2 + 0.07 * step!r}"
            for step in range(steps)) + "\n"
        for lane in range(lanes))
    Path("config.ini").write_text(
        f"[pipeline]\n{timing}lanes = {lanes}\n{settings}"
        "y_variance = 0.05\nexcess_factor = 10\nsampling = true\n")
    return digest_run(f"pipeline={name}", "pipeline", Path(f"out-pipeline-{name}"),
                      ["--seed", str(PIPELINE_SEED)])


def digest_unsampled(name: str) -> str:
    """The line for the run ``name`` of ``UNSAMPLED``; runs in the cwd."""
    kind, body = UNSAMPLED[name]
    Path("config.ini").write_text(f"[{kind}]\n{body}excess_factor = 10\n")
    return digest_run(f"unsampled={name}", kind, Path(f"out-unsampled-{name}"), [])


def main() -> int:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for seed in SEEDS:
                for line in digest_seed(seed):
                    print(line)
            for name in GRAPHS:
                print(digest_graph(name))
            for name in PIPELINES:
                print(digest_pipeline(name))
            for name in UNSAMPLED:
                print(digest_unsampled(name))
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
