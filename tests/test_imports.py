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


def test_scipy_optimize_loads_only_for_highs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
