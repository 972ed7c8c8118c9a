"""The records digest of tools/records_digest.py against its committed copy.

Every record the CLI writes for the digested configs must stay byte-identical
to ``tests/data/records_digest.txt``.  A change that moves a record on
purpose regenerates that file and names the moved lines in CHANGES.md; any
other change to a record fails here.  Lines starting with ``#`` are the
file's header (the numpy version and platform it was made on), not digest.
The digest runs under two string hash seeds, and each run must match, so a
record that depends on the hash seed fails here too.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = ROOT / "tests" / "data" / "records_digest.txt"

#: Differing lines shown on failure.
SHOWN = 5

#: The variables that set the BLAS thread count, named on failure: the
#: digest's rounding-level values can move with it.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _digest_lines(text: str) -> list:
    return [line for line in text.splitlines() if not line.startswith("#")]


def _check_digest(hash_seed: str) -> None:
    """Run the digest under ``PYTHONHASHSEED=hash_seed`` and compare it with
    the committed file."""
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning",
         str(ROOT / "tools" / "records_digest.py")],
        capture_output=True, text=True, env=env, check=False)
    assert run.returncode == 0, run.stderr
    committed_text = COMMITTED.read_text()
    committed, produced = _digest_lines(committed_text), _digest_lines(run.stdout)
    differing = [(n, old, new) for n, (old, new) in enumerate(zip(committed, produced), 1)
                 if old != new]
    if differing or len(committed) != len(produced):
        header = next((line for line in committed_text.splitlines()
                       if line.startswith("# made with")), "# made with: no header")
        shown = "\n".join(f"line {n}:\n  committed {old}\n  produced  {new}"
                          for n, old, new in differing[:SHOWN])
        threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}"
                            for name in THREAD_VARIABLES)
        raise AssertionError(
            f"{len(differing)} of {len(committed)} digest lines differ, and the digest "
            f"has {len(produced)} lines against {len(committed)} committed.\n"
            f"committed {header[2:]}; this run used numpy {np.__version__}, "
            f"PYTHONHASHSEED={hash_seed} and {threads}.\n{shown}")


def test_records_digest_matches_the_committed_file():
    for hash_seed in ("1", "2"):
        _check_digest(hash_seed)
