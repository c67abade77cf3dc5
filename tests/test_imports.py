"""What importing and running otpush loads.

``import otpush`` loads NumPy only, and no solve loads SciPy: the transport
solves use in-house graph searches.  SciPy is needed only by the LP
reference ``discrete_ot._solve_highs`` that tests compare against, which
imports ``scipy.sparse`` and ``scipy.optimize`` when called (together about
0.65 s and 45 MiB), and by the names that the traced benchmark patches,
which ``discrete_ot`` resolves on first access.  The CLI runs load no
``numpy.ma`` either: NumPy 2.4's ``np.unique`` without index outputs
imports it (8-12 ms and about 1 MiB), so the package takes sorted distinct
values from ``geometry_measures._sorted_distinct``.  The checks run in a
fresh interpreter, since this test process may already hold SciPy from
other tests.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_SCRIPT = textwrap.dedent("""
    import os
    import sys
    import tempfile

    import numpy as np

    import otpush.cli
    from otpush import discrete_ot
    from otpush.geometry_measures import DiscreteMeasure, Domain

    def scipy_loaded():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    assert not scipy_loaded(), ("import otpush.cli", scipy_loaded())
    with tempfile.TemporaryDirectory() as tmp:
        # the singularity suite has no size knob; it runs at its defaults
        for argv in (["figure1", "--grid", "16"],
                     ["stability-audit", "--seed", "0", "--count-1d", "4",
                      "--count-2d", "2"],
                     ["singularity", "--seed", "2"],
                     ["demo", "--seed", "1"],
                     ["rate-fit"]):
            out = os.path.join(tmp, argv[0])
            assert otpush.cli.main(argv + ["--out", out]) == 0, argv
            assert not scipy_loaded(), (argv, scipy_loaded())
            assert "numpy.ma" not in sys.modules, argv

    # the LP reference still works, loading scipy.sparse and
    # scipy.optimize itself
    rng = np.random.default_rng(3)
    dom = Domain.ball(np.zeros(2), 2.0)
    w, v = rng.uniform(0.2, 1.0, 6), rng.uniform(0.2, 1.0, 9)
    mu = DiscreteMeasure(rng.uniform(-0.7, 0.7, (6, 2)), w / w.sum(), dom)
    nu = DiscreteMeasure(rng.uniform(-0.7, 0.7, (9, 2)), v / v.sum(), dom)
    ssp = discrete_ot.solve(mu, nu, 2.0)[1]
    assert not scipy_loaded(), ("solve", scipy_loaded())
    # the bottleneck's maximum flow is otpush's own
    assert discrete_ot.maximum_flow.__module__ == "otpush.discrete_ot"
    assert discrete_ot.maximum_flow(2, [0], [1], [10 ** 12], 0, 1) == (10 ** 12, [10 ** 12])
    discrete_ot.bottleneck_solve(mu, nu)
    assert not scipy_loaded(), ("bottleneck_solve", scipy_loaded())
    highs = discrete_ot._solve_highs(discrete_ot.cost_matrix(mu.points, nu.points, 2.0),
                                     mu.weights, nu.weights)
    assert abs(highs - ssp) <= 1e-9, (highs, ssp)
    assert "scipy.sparse" in sys.modules and "scipy.optimize" in sys.modules

    # the names the traced benchmark patches resolve to SciPy's functions
    import scipy.optimize
    from scipy.sparse import csgraph

    assert discrete_ot.linear_sum_assignment is scipy.optimize.linear_sum_assignment
    assert discrete_ot.shortest_path is csgraph.shortest_path
    assert discrete_ot.maximum_bipartite_matching is csgraph.maximum_bipartite_matching
    try:
        discrete_ot.no_such_name
    except AttributeError:
        pass
    else:
        raise AssertionError("unknown module attribute resolved")
""")


# A failed SSP solve raises with the instance's shape, cap and unrouted
# units; nothing re-solves it, so SciPy stays unloaded.  A general-weight
# ``bottleneck_solve`` runs no SSP solve: with the failing kernel in place
# it returns the same level.
_SSP_FAILURE_SCRIPT = textwrap.dedent("""
    import sys

    import numpy as np

    from otpush import _kernels, discrete_ot
    from otpush.geometry_measures import DiscreteMeasure, Domain

    real = _kernels.ssp_flow
    seen = []

    def failing(status):
        def kernel(cost, supply, demand, *, max_iters):
            seen.append(max_iters)
            flow, u, v, _ = real(cost, supply, demand, max_iters=2)
            return flow, u, v, status
        return kernel

    rng = np.random.default_rng(5)
    dom = Domain.ball(np.zeros(2), 2.0)
    w, v = rng.uniform(0.2, 1.0, 6), rng.uniform(0.2, 1.0, 9)
    mu = DiscreteMeasure(rng.uniform(-0.7, 0.7, (6, 2)), w / w.sum(), dom)
    nu = DiscreteMeasure(rng.uniform(-0.7, 0.7, (9, 2)), v / v.sum(), dom)
    flow = real(discrete_ot.cost_matrix(mu.points, nu.points, 2.0),
                discrete_ot._scaled_units(mu.weights, discrete_ot.MASS_SCALE),
                discrete_ot._scaled_units(nu.weights, discrete_ot.MASS_SCALE),
                max_iters=2)[0]
    unrouted = discrete_ot.MASS_SCALE - int(flow.sum())
    assert unrouted > 0
    level = discrete_ot.bottleneck_solve(mu, nu)[1]
    for status, reason in ((1, "iteration cap hit"), (2, "no sink")):
        _kernels.ssp_flow = failing(status)
        try:
            discrete_ot.solve(mu, nu, 2.0)
        except discrete_ot.SolverError as exc:
            msg = str(exc)
        else:
            raise AssertionError("SSP failure passed silently")
        for part in ("6x9", reason, f"status {status}", "= 214",
                     f"{unrouted} of {discrete_ot.MASS_SCALE} units"):
            assert part in msg, (part, msg)
        assert discrete_ot.bottleneck_solve(mu, nu)[1] == level
    assert seen == [214, 214], seen
    assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "SSP failure"
""")


def _run_fresh(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scipy_optimize_loads_only_for_highs():
    _run_fresh(_SCRIPT)


def test_ssp_failure_raises_without_highs():
    _run_fresh(_SSP_FAILURE_SCRIPT)


def test_every_export_resolves():
    # ``otpush.__all__`` and each module's ``__all__`` name only what exists
    import importlib
    import pkgutil

    import otpush

    modules = [otpush] + [importlib.import_module(f"otpush.{info.name}")
                          for info in pkgutil.iter_modules(otpush.__path__)]
    exported = [(m.__name__, name) for m in modules for name in getattr(m, "__all__", ())]
    assert len(exported) > len(otpush.__all__)
    missing = [(mod, name) for mod, name in exported
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing, missing
