"""Digest of everything the CLI writes for the benchmark's generated configs.

    PYTHONPATH=src python tools/records_digest.py

For each seed 0-40, writes the INI text of ``perfbench/cli_cold.make_config``
(all seven kinds, sampling on for gate, compose and pipeline) and runs
every kind in-process through ``cvmbqc.runner.main``, in a fresh output
directory under a temporary working directory.  Prints one line per run:
seed, kind, exit code, the sha256 of stdout and of stderr, then the
relative path and sha256 of every file written.  The cvmbqc on the path
is the one digested, so two checkouts compare with ``diff``:

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


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_seed(seed: int) -> list:
    """One line per kind for the config of ``seed``; runs in the cwd."""
    text, seeds = make_config(seed)
    Path("config.ini").write_text(text)
    lines = []
    for kind in KINDS:
        out = Path(f"out{seed}") / kind
        args = [kind, "--config", "config.ini", "--out", str(out)]
        if kind in seeds:
            args += ["--seed", str(seeds[kind])]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(args)
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
        lines.append(" ".join(
            [f"seed={seed}", kind, f"exit={code}",
             f"stdout={sha(stdout.getvalue().encode())}",
             f"stderr={sha(stderr.getvalue().encode())}"]
            + [f"{p.relative_to(out).as_posix()}={sha(p.read_bytes())}" for p in files]))
    return lines


def main() -> int:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for seed in SEEDS:
                for line in digest_seed(seed):
                    print(line)
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
