"""One workload run in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json RESULT.json [--trace]

The first thing this process does is ``import otpush.cli``; the moment that
import returns is reported so the parent can time set-up from its own spawn
timestamp (both read ``time.monotonic``, which is system-wide on Linux).
Then it runs the workload's timed call once, optionally with span recording,
and writes a JSON result.  The parent reads CPU time and peak memory for
this process from ``os.wait4``.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import otpush.cli  # noqa: E402  (its import time is what setup_s measures)

IMPORTED = time.monotonic()

import importlib.util  # noqa: E402
import json  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _openblas_threads() -> dict:
    """Thread count of the OpenBLAS builds bundled with numpy and scipy
    (wheels ship them in ``numpy.libs``/``scipy.libs``; both are loaded by
    the time this runs, so opening them again returns the loaded copy)."""
    import ctypes
    import glob

    libs = []
    for package in (numpy, scipy):
        site = os.path.dirname(os.path.dirname(package.__file__))
        libs += sorted(glob.glob(os.path.join(
            site, f"{package.__name__}.libs", "*openblas*.so*")))
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


def environment() -> dict:
    from otpush import _kernels

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "numba_active": bool(_kernels.NUMBA_ACTIVE),
            "openblas_threads": _openblas_threads()}


def main(spec_path: str, result_path: str, traced: bool) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    if spec["name"] == "scan":
        calls = workloads.scan_instances(spec["seed"])

        def work():
            return workloads.run_scan(calls)
    else:
        def work():
            try:
                return otpush.cli.main(spec["argv"])
            except SystemExit as e:
                return e.code

    recorder = spans.Recorder()
    if traced:
        for target, name, attrs in spans.PATCHES:
            recorder.patch(target, name, attrs)
        work = recorder.wrap(spans.ROOT, work)
    t0 = time.perf_counter()
    out = work()
    run_s = time.perf_counter() - t0

    result = {"imported": IMPORTED, "run_s": run_s, "env": environment()}
    if spec["name"] == "scan":
        result.update(rc=0, values=out)
    else:
        result.update(rc=int(out or 0), values=None)
    if traced:
        result["layers"] = spans.layer_metrics(recorder.spans)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], "--trace" in sys.argv[3:])
