"""The names the benchmark harness under ``perfbench/`` relies on.

The traced benchmark run rebinds every target in ``perfbench/spans.py``'s
``PATCHES`` and reads the kernels' arguments and results; the child's
environment block reads ``otpush._kernels.NUMBA_ACTIVE``.  Some targets are
kept only for this list: no otpush code calls ``_kernels.ball_activity_2d``
any more, so the check below calls it directly, and it goes together with
the benchmark change that drops its metrics.  So is
``maximum_bipartite_matching``, which ``discrete_ot`` resolves from SciPy
on access.  The bottleneck probe count is the number of matching and
max-flow spans recorded under a bottleneck span, so ``bottleneck_solve``
must keep calling ``maximum_flow`` by the patched name.  A rename or a deletion in ``src/otpush`` that breaks any of
this would otherwise show only when the benchmark runs.  So would a change
to the bits of the ``scan`` workload's values, which
``test_scan_values_match_reference_digests`` checks for a few seeds.
"""

import importlib.util
import json
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

    # the audit's bottleneck and 1D distances, through the names the
    # experiments module calls, under one root span as a workload runs them
    from otpush import experiments
    from otpush.geometry_measures import DiscreteMeasure, Domain, Measure1D

    dom = Domain.ball(np.zeros(1), 2.0)
    mu = DiscreteMeasure(np.array([[0.0], [1.0], [1.2]]), np.full(3, 1 / 3), dom)
    nu = DiscreteMeasure(np.array([[0.1], [1.5], [0.9]]), np.full(3, 1 / 3), dom)

    def audit_like():
        experiments.bottleneck_solve(mu, nu)
        experiments.wasserstein_1d(Measure1D.uniform(dom, -0.5, 0.5),
                                   Measure1D.dirac(dom, 0.0), 2.0)

    rec.spans.clear()
    rec.wrap(spans.ROOT, audit_like)()
    names = [(s["name"], rec.spans[s["parent"]]["name"])
             for s in rec.spans if s["parent"] is not None]
    assert ("discrete_ot.max_flow", "discrete_ot.bottleneck") in names, names
    layer = spans.layer_metrics(rec.spans)
    assert layer["discrete_ot.bottleneck.calls"] == 1, layer
    assert layer["discrete_ot.bottleneck.probes"] >= 1, layer
    assert layer["geometry_measures.wasserstein_1d.calls"] == 1, layer
""")


def test_perfbench_patch_targets_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PATCH_ALL, str(REPO / "perfbench" / "spans.py")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scan_values_match_reference_digests():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    reference = json.loads((REPO / "perfbench" / "reference.json").read_text())["scan"]
    for seed in range(3):
        values = workloads.run_scan(workloads.scan_instances(seed))
        assert workloads.output_digest({"name": "scan"}, values) == reference[str(seed)], seed
