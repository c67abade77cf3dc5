"""The names the benchmark harness under ``perfbench/`` relies on.

The traced benchmark run rebinds every target in ``perfbench/spans.py``'s
``PATCHES`` and reads the kernels' arguments and results; the child's
environment block reads ``otpush._kernels.NUMBA_ACTIVE``.  A rename or a
deletion in ``src/otpush`` that breaks either would otherwise show only when
the benchmark runs.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter, as the benchmark child does, so the patches
# never reach the modules this test process shares with other tests.
_PATCH_ALL = textwrap.dedent("""
    import importlib.util
    import sys

    import numpy as np

    spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    from otpush import _kernels

    rec = spans.Recorder()
    for target, name, attrs in spans.PATCHES:
        rec.patch(target, name, attrs)

    flow, u, v, status = _kernels.ssp_flow(
        np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1, 1]), np.array([1, 1]),
        max_iters=100)
    assert status == 0 and rec.spans[-1]["name"] == "kernels.ssp_flow"
    # the center alone misses the kink 0.05 away: ambiguous
    _kernels.ball_activity_2d(
        np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2),
        np.array([[0.05, 0.0], [0.05, 0.0], [3.0, 0.0]]), 0.1, 1e-12)
    ball = rec.spans[-1]
    assert ball["name"] == "kernels.ball_activity_2d", ball
    assert ball["points"] == 3 and ball["ambiguous"] == 2, ball
    assert _kernels.NUMBA_ACTIVE is False
""")


def test_perfbench_patch_targets_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PATCH_ALL, str(REPO / "perfbench" / "spans.py")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
