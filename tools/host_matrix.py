#!/usr/bin/env python3
"""Run ``tools/cli_defaults.py`` under kernel settings of other x86 hosts
and print which output bytes move.

Usage (from anywhere)::

    python3 tools/host_matrix.py DIR

Runs ``cli_defaults.py DIR/default`` first, then once more per setting
below into ``DIR/<setting>``, each setting applied to those child
processes only:

* ``openblas-haswell``: ``OPENBLAS_CORETYPE=Haswell``, the BLAS kernels of
  an AVX2-only host;
* ``openblas-prescott``: ``OPENBLAS_CORETYPE=Prescott``, its baseline
  kernels;
* ``numpy-no-avx512``: ``NPY_DISABLE_CPU_FEATURES`` set to numpy's AVX-512
  dispatch targets;
* ``numpy-no-avx2``: the same, and ``X86_V3`` (AVX2) as well.

numpy 2.4 dispatches to exactly those four targets above its ``X86_V2``
baseline.  Per setting, prints the ``SHA256SUMS`` lines of its run that
differ from the default run's, or that the setting is unsupported on this
host: a probe interpreter under it fails, writes to stderr, or runs the
same numpy loops and BLAS core as the default.  Exits 0 unless a run of
``cli_defaults.py`` fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

CLI_DEFAULTS = Path(__file__).resolve().parent / "cli_defaults.py"
_NPY_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
SETTINGS = {
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": _NPY_AVX512},
    "numpy-no-avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 " + _NPY_AVX512},
}
# numpy's enabled dispatch targets and OpenBLAS's core, as one line
_PROBE = """
import ctypes, numpy
from numpy._core import _multiarray_umath as m
targets = [t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)]
core = None
for lib in sorted({l.split()[-1] for l in open("/proc/self/maps") if "openblas" in l}):
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        fn = getattr(ctypes.CDLL(lib), name, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            core = fn().decode()
print(" ".join(targets), core)
"""


def _probe(setting: dict) -> tuple[int, str, str]:
    done = subprocess.run([sys.executable, "-c", _PROBE], env=dict(os.environ, **setting),
                          capture_output=True, text=True)
    return done.returncode, done.stdout.strip(), done.stderr.strip()


def read_sums(path: Path) -> dict[str, str]:
    """The lines of a ``SHA256SUMS`` file, keyed by what follows the two
    spaces: a file's path, or the run name of an ``exit`` line."""
    return {line.split("  ", 1)[1]: line for line in path.read_text().splitlines()}


def differing(default: dict[str, str], other: dict[str, str]) -> list[str]:
    """The lines of ``other`` that ``default`` lacks, in ``other``'s order,
    then ``missing <key>`` for each key of ``default`` that ``other``
    lacks."""
    return ([line for key, line in other.items() if default.get(key) != line]
            + [f"missing {key}" for key in default if key not in other])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: host_matrix.py DIR", file=sys.stderr)
        return 1
    top = Path(argv[0]).resolve()
    base = _probe({})
    runs = {"default": {}, **SETTINGS}
    report = []
    for name, setting in runs.items():
        label = " ".join(f"{k}={v!r}" for k, v in setting.items()) or "no setting"
        if setting:
            code, kernels, err = _probe(setting)
            if code or err or kernels == base[1]:
                why = err.splitlines()[-1] if err else f"kernels stay {kernels}"
                report.append(f"{name} ({label}): unsupported on this host: {why}")
                continue
        print(f"== {name} ({label})", flush=True)
        if subprocess.call([sys.executable, str(CLI_DEFAULTS), str(top / name)],
                           env=dict(os.environ, **setting)):
            return 1
        if setting:
            lines = differing(read_sums(top / "default" / "SHA256SUMS"),
                              read_sums(top / name / "SHA256SUMS"))
            report.append(f"{name} ({label}): {len(lines)} lines differ")
            report += [f"  {line}" for line in lines]
    print("\n".join([f"default kernels: {base[1]}", *report]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
