"""What importing and running otpush loads.

``scipy.optimize`` (about 0.26 s and 17 MiB to import) is needed only by the
``highs`` engine, which imports it on first use.  The checks run in a fresh
interpreter, since this test process may already hold ``scipy.optimize``
from other tests.
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

    assert "scipy.optimize" not in sys.modules, "import otpush.cli"
    with tempfile.TemporaryDirectory() as tmp:
        assert otpush.cli.main(["figure1", "--grid", "8",
                                "--out", os.path.join(tmp, "fig")]) == 0
        assert otpush.cli.main(["stability-audit", "--seed", "0",
                                "--count-1d", "4", "--count-2d", "2",
                                "--out", os.path.join(tmp, "audit")]) == 0
    assert "scipy.optimize" not in sys.modules, "figure1 and stability-audit"

    # the HiGHS engine still works, loading scipy.optimize itself
    rng = np.random.default_rng(3)
    dom = Domain.ball(np.zeros(2), 2.0)
    w, v = rng.uniform(0.2, 1.0, 6), rng.uniform(0.2, 1.0, 9)
    mu = DiscreteMeasure(rng.uniform(-0.7, 0.7, (6, 2)), w / w.sum(), dom)
    nu = DiscreteMeasure(rng.uniform(-0.7, 0.7, (9, 2)), v / v.sum(), dom)
    ssp = discrete_ot.solve(mu, nu, 2.0, engine="ssp")[1]
    highs = discrete_ot.solve(mu, nu, 2.0, engine="highs")[1]
    assert abs(highs - ssp) <= 1e-9, (highs, ssp)
    assert "scipy.optimize" in sys.modules

    import scipy.optimize

    assert discrete_ot.linear_sum_assignment is scipy.optimize.linear_sum_assignment
    try:
        discrete_ot.no_such_name
    except AttributeError:
        pass
    else:
        raise AssertionError("unknown module attribute resolved")
""")


# A failed SSP solve raises with the instance's shape, cap and unrouted
# units; it is not re-solved by HiGHS, so ``scipy.optimize`` stays unloaded.
# The same holds for the 0/1-cost solves of a general-weight
# ``bottleneck_solve``, on the 6x9 instance widened by a second row or
# column for each atom with a fractional unit count and a dummy row and
# column: 13x19.
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
    for status, reason in ((1, "iteration cap hit"), (2, "no sink")):
        _kernels.ssp_flow = failing(status)
        for engine in ("ssp", "auto"):
            try:
                discrete_ot.solve(mu, nu, 2.0, engine=engine)
            except discrete_ot.SolverError as exc:
                msg = str(exc)
            else:
                raise AssertionError("SSP failure passed silently")
            for part in ("6x9", reason, f"status {status}", "= 214",
                         f"{unrouted} of {discrete_ot.MASS_SCALE} units"):
                assert part in msg, (part, msg)
        try:
            discrete_ot.bottleneck_solve(mu, nu)
        except discrete_ot.SolverError as exc:
            msg = str(exc)
        else:
            raise AssertionError("SSP failure in bottleneck_solve passed silently")
        for part in ("13x19", reason, f"status {status}", "= 384"):
            assert part in msg, (part, msg)
    assert seen == [214, 214, 384] * 2, seen
    assert "scipy.optimize" not in sys.modules, "SSP failure"
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
