"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion, prints exactly one
``[PASS]``/``[FAIL]`` line to the terminal (bypassing capture) and enforces
the criterion's tolerance and runtime budget.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from otpush.convex_analysis import covering_number_sigma, kink_ladder
from otpush.discrete_ot import cost_matrix, solve
from otpush.experiments import (SweepConfig, audit_stability_bound,
                                fit_holder_rate, run_example, run_figure1,
                                run_singularity_suite)
from otpush.geometry_measures import DiscreteMeasure, Domain
from otpush.pcost_maps import grad_xi_p, grad_xi_p_inverse


def _report(capfd, number, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {number}: {description}"
    if detail:
        line += f" — {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def singularity_run():
    start = time.monotonic()
    rep = run_singularity_suite(SweepConfig(seed=0))
    return rep, time.monotonic() - start


def test_criterion_01_dirac_split_exact(capfd):
    start = time.monotonic()
    rep = run_example("1.2")
    elapsed = time.monotonic() - start
    row = dict(zip(rep.columns, rep.rows[0]))
    ok = row["w_out"] == 2.0 and row["w_in"] == 0.0 and elapsed < 1.0
    _report(capfd, 1, "Dirac-split example returns (2, 0) exactly", ok,
            f"pair=({row['w_out']}, {row['w_in']}), {elapsed:.2f}s")


def test_criterion_02_shrinking_block_exact_and_grid(capfd):
    start = time.monotonic()
    rep = run_example("1.3", SweepConfig(eps=(0.1, 0.01)))
    elapsed = time.monotonic() - start
    worst_exact = 0.0
    worst_grid = 0.0
    for row_arr in rep.rows:
        row = dict(zip(rep.columns, row_arr))
        eps = row["eps"]
        worst_exact = max(worst_exact,
                          abs(row["w_out"] - math.sqrt(2.0)),
                          abs(row["w_in"] - eps / (2.0 * math.sqrt(3.0))))
        worst_grid = max(worst_grid,
                         abs(row["w_out_grid"] - row["w_out"]),
                         abs(row["w_in_grid"] - row["w_in"]))
    ok = worst_exact <= 1e-12 and worst_grid <= 1e-3 and elapsed < 10.0
    _report(capfd, 2, "shrinking-block distances exact and grid-checked", ok,
            f"closed-form err={worst_exact:.2e}, grid err={worst_grid:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_03_rate_exponents(capfd):
    start = time.monotonic()
    rep_a = fit_holder_rate(SweepConfig(q=2.0, r=2.0))
    rep_b = fit_holder_rate(SweepConfig(q=2.0, r=3.0))
    elapsed = time.monotonic() - start
    err_a = abs(rep_a.slope - 1.0 / 3.0)
    err_b = abs(rep_b.slope - 3.0 / 8.0)
    ok = err_a <= 0.02 and err_b <= 0.03 and elapsed < 30.0
    _report(capfd, 3, "log-log slopes hit 1/3 and 3/8", ok,
            f"slope(2,2)={rep_a.slope:.5f}, slope(2,3)={rep_b.slope:.5f}, "
            f"{elapsed:.2f}s")


def test_criterion_04_ladder_covering_counts(capfd):
    start = time.monotonic()
    mismatches = []
    for n_kinks, lip in itertools.product((2, 4, 8, 16), (1.0, 3.0)):
        eta = 0.5 / (8.0 * (n_kinks + 1))  # strictly below R/(8(N+1))
        rep = covering_number_sigma(kink_ladder(n_kinks, lip, 1.0), eta,
                                    2.0 * lip / n_kinks, 1.0)
        if rep.count != n_kinks:
            mismatches.append((n_kinks, lip, rep.count))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 10.0
    _report(capfd, 4, "kink-ladder covering equals the kink count", ok,
            f"mismatches={mismatches}, {elapsed:.2f}s")


def test_criterion_05_integral_scaling_and_bounds(capfd, singularity_run):
    rep, elapsed = singularity_run
    kind = rep.rows[:, rep.columns.index("kind")]
    a_col = rep.columns.index("a")
    val = rep.rows[:, rep.columns.index("value")]
    bound = rep.rows[:, rep.columns.index("bound")]
    ratios = rep.rows[kind == 1][:, a_col]
    integral = rep.rows[kind == 2]
    violations = int((integral[:, rep.columns.index("value")] >
                      integral[:, rep.columns.index("bound")]).sum())
    n_1d = int((integral[:, rep.columns.index("dim")] == 1).sum())
    n_2d = int((integral[:, rep.columns.index("dim")] == 2).sum())
    ok = (len(ratios) == 3 and np.abs(ratios - 8.0).max() <= 1e-6
          and n_1d >= 100 and n_2d >= 20 and violations == 0
          and elapsed < 120.0)
    _report(capfd, 5, "integral estimates scale as 8*eta and obey the bound",
            ok, f"ratio err={np.abs(ratios - 8.0).max():.2e}, "
                f"{n_1d}+{n_2d} instances, violations={violations}, "
                f"{elapsed:.1f}s")


def test_criterion_06_local_diam_inequality(capfd, singularity_run):
    rep, _ = singularity_run
    kind = rep.rows[:, rep.columns.index("kind")]
    rows = rep.rows[kind == 4]
    lhs = rows[:, rep.columns.index("value")]
    rhs = rows[:, rep.columns.index("bound")]
    violations = int((lhs > rhs * (1 + 1e-9) + 1e-12).sum())
    ok = len(rows) >= 100 and violations == 0
    _report(capfd, 6, "pointwise diameter-vs-gradient-integral inequality", ok,
            f"{len(rows)} instances, violations={violations}")


def test_criterion_07_gradient_inverse_roundtrip_and_holder(capfd):
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    holder_violations = 0
    for p in (2.0, 2.5, 3.0, 4.0):
        z = rng.standard_normal((10_000, 2)) * rng.uniform(0.05, 2.0)
        norms = np.maximum(np.linalg.norm(z, axis=1), 1e-300)
        back = grad_xi_p_inverse(grad_xi_p(z, p), p)
        worst_rel = max(worst_rel,
                        (np.linalg.norm(back - z, axis=1) / norms).max())
        a = rng.uniform(-1, 1, (10_000, 2))
        b = rng.uniform(-1, 1, (10_000, 2))
        keep = (np.linalg.norm(a, axis=1) <= 1) & (np.linalg.norm(b, axis=1) <= 1)
        a, b = a[keep], b[keep]
        lhs = np.linalg.norm(grad_xi_p_inverse(a, p) - grad_xi_p_inverse(b, p),
                             axis=1)
        # the modulus 3 / p^{1/(p-1)} |z|^{1/(p-1)}
        rhs = 3.0 / p ** (1.0 / (p - 1.0)) * np.linalg.norm(a - b, axis=1) ** (1.0 / (p - 1.0))
        holder_violations += int((lhs > rhs * (1 + 1e-12) + 1e-15).sum())
    ok = worst_rel <= 1e-10 and holder_violations == 0
    _report(capfd, 7, "gradient-map inverse round-trips and is Holder", ok,
            f"worst rel={worst_rel:.2e}, holder violations={holder_violations}")


def test_criterion_08_stability_bound_audits(capfd):
    start = time.monotonic()
    combos = [(2.0, 2.0, 2.0), (2.0, 3.0, 2.0), (3.0, 3.0, 2.0)]
    total_rows = 0
    for p, q, r in combos:
        rep = audit_stability_bound(SweepConfig(p=p, q=q, r=r, seed=11))
        assert rep.passed
        w_out = rep.rows[:, rep.columns.index("w_out")]
        assert (w_out <= rep.rows[:, rep.columns.index("bound_r")]).all()
        assert (w_out <= rep.rows[:, rep.columns.index("bound_inf")]).all()
        total_rows += len(rep.rows)
    # the exponent pair outside the admissible range is a configuration error
    with pytest.raises(ValueError):
        audit_stability_bound(SweepConfig(p=3.0, q=2.0, r=2.0))
    elapsed = time.monotonic() - start
    ok = total_rows >= 3 * 250 and elapsed < 300.0
    _report(capfd, 8, "transport stability bounds hold on every audit", ok,
            f"{total_rows} audited rows across {len(combos)} exponent combos, "
            f"invalid combo rejected, {elapsed:.1f}s")


def test_criterion_09_solver_vs_permutation_oracle(capfd):
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 3))
        dom = Domain.ball(np.zeros(d), 2.0)
        mu = DiscreteMeasure(rng.uniform(-1, 1, (n, d)), np.full(n, 1.0 / n), dom)
        nu = DiscreteMeasure(rng.uniform(-1, 1, (n, d)), np.full(n, 1.0 / n), dom)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        _, value, _ = solve(mu, nu, p)
        cost = cost_matrix(mu.points, nu.points, p)
        oracle = min(sum(cost[i, perm[i]] for i in range(n)) / n
                     for perm in itertools.permutations(range(n)))
        worst = max(worst, abs(value - oracle))
    ok = worst <= 1e-10
    _report(capfd, 9, "exact solver matches the permutation oracle", ok,
            f"200 instances, worst gap={worst:.2e}")


def test_criterion_10_figure_pipeline(capfd, tmp_path):
    start = time.monotonic()
    rep = run_figure1(SweepConfig(seed=0, out=str(tmp_path / "fig")))
    elapsed = time.monotonic() - start
    manifest = json.loads((tmp_path / "fig" / "manifest.json").read_text())
    checks = manifest["checks"]
    budget = 2.0 * checks["cell_diagonal"]
    files_ok = (set(manifest["files"]) ==
                {"0.00", "0.25", "0.50", "0.75", "1.00"})
    for entry in manifest["files"].values():
        files_ok &= (tmp_path / "fig" / entry["csv"]).exists()
    ok = (rep.passed and files_ok
          and checks["endpoint_residual_start"] <= budget
          and checks["endpoint_residual_end"] <= budget
          and elapsed < 180.0)
    _report(capfd, 10, "interpolation pipeline reproduces its endpoints", ok,
            f"residuals=({checks['endpoint_residual_start']:.4f}, "
            f"{checks['endpoint_residual_end']:.4f}) vs {budget:.4f}, "
            f"{elapsed:.1f}s")
