#!/usr/bin/env python3
"""Run the eight CLI defaults and five runs off p = q = r = 2, and hash
everything they leave behind.

Usage (from anywhere)::

    python3 tools/cli_defaults.py DIR

Runs ``figure1``, ``singularity``, ``stability-audit``, ``rate-fit``,
``demo`` and ``example --id 1.2/1.3/1.4`` with no setting but ``--out out``,
then ``stability-audit --p 3 --q 3``, ``rate-fit --q 2 --r 3``,
``demo --p 3``, ``example --id 1.3 --p 3 --q 3 --r 3`` and
``example --id 1.4 --q 3 --r 4``, each in a fresh interpreter on this
checkout's ``src``, with ``DIR/<run>`` as its working directory, so that
no printed path names ``DIR``.  Writes
``DIR/SHA256SUMS``: one ``<sha256>  <run>/<file>`` line per output file,
one each for the run's stdout and stderr, and one ``exit <code>  <run>``
line.  Two checkouts give the same bytes exactly when::

    diff parent/SHA256SUMS change/SHA256SUMS

is empty.  ``DIR`` must not hold the runs' directories yet.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
RUNS = {
    "figure1": ["figure1"],
    "singularity": ["singularity"],
    "stability-audit": ["stability-audit"],
    "rate-fit": ["rate-fit"],
    "demo": ["demo"],
    "example-1.2": ["example", "--id", "1.2"],
    "example-1.3": ["example", "--id", "1.3"],
    "example-1.4": ["example", "--id", "1.4"],
    "stability-audit-p3-q3": ["stability-audit", "--p", "3", "--q", "3"],
    "rate-fit-q2-r3": ["rate-fit", "--q", "2", "--r", "3"],
    "demo-p3": ["demo", "--p", "3"],
    "example-1.3-p3-q3-r3": ["example", "--id", "1.3", "--p", "3", "--q", "3", "--r", "3"],
    "example-1.4-q3-r4": ["example", "--id", "1.4", "--q", "3", "--r", "4"],
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: cli_defaults.py DIR", file=sys.stderr)
        return 1
    top = Path(argv[0]).resolve()
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    lines = []
    for name, args in RUNS.items():
        cwd = top / name
        cwd.mkdir(parents=True, exist_ok=False)
        with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
            code = subprocess.call(
                [sys.executable, "-m", "otpush.cli", *args, "--out", "out"],
                cwd=cwd, env=env, stdout=out, stderr=err)
        for path in sorted(p for p in cwd.rglob("*") if p.is_file()):
            lines.append(f"{_sha256(path)}  {path.relative_to(top).as_posix()}")
        lines.append(f"exit {code}  {name}")
        print(f"{name}: exit {code}")
    (top / "SHA256SUMS").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
