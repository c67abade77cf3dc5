"""Experiment scenarios: sweeps, audits, figure pipeline, reporting."""

import hashlib
import json
import math

import numpy as np
import pytest

from otpush import experiments
from otpush.experiments import (BoundViolationError, ExperimentReport,
                                SweepConfig, _audit_row, audit_stability_bound,
                                fit_holder_rate, fit_loglog, holder_exponent,
                                pushforward_measure1d, random_max_affine,
                                run_demo, run_example, run_figure1,
                                run_singularity_suite, stability_constant)
from otpush.geometry_measures import (DiscreteMeasure, Domain, Measure1D, discretize,
                                      uniform_grid, wasserstein_1d)
from otpush.pcost_maps import CConcavePotential
from otpush.pushforward import pushforward_tmap


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------

def test_stability_constant_value():
    # 2^(8(d+1)) p^3 (q/(q-p+1))^(1/q) d^2 (1+beta_d) (1+M) (1+R)^(2+p+d)
    expect = (2.0 ** 16) * 8.0 * (2.0 ** 0.5) * 1.0 * 3.0 * 2.0 * (2.0 ** 5)
    assert stability_constant(1, 2.0, 2.0, 1.0, 1.0) == pytest.approx(
        expect, rel=1e-15)
    assert stability_constant(1, 2.0, 2.0, 1.0, 1.0) > 1e8
    with pytest.raises(ValueError):
        stability_constant(1, 3.0, 2.0, 1.0, 1.0)  # needs q > p - 1


def test_holder_exponent_values():
    assert holder_exponent(2.0, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert holder_exponent(2.0, 3.0) == pytest.approx(3.0 / 8.0, abs=1e-15)


def test_fit_loglog():
    x = np.logspace(-3, -1, 9)
    slope, stderr = fit_loglog(x, 4.0 * x ** 0.75)
    assert slope == pytest.approx(0.75, abs=1e-9)
    assert stderr <= 1e-9
    slope2, stderr2 = fit_loglog(np.array([0.1, 1.0]), np.array([0.3, 3.0]))
    assert slope2 == pytest.approx(1.0, abs=1e-12)
    assert stderr2 == 0.0
    with pytest.raises(ValueError):
        fit_loglog(np.array([0.1, -0.2, 0.3]), np.ones(3))
    with pytest.raises(ValueError):
        fit_loglog(np.array([0.1, 0.1, 0.1]), np.ones(3))


def test_sweep_config_validation():
    SweepConfig(eps=(0.01, 0.1))
    with pytest.raises(ValueError):
        SweepConfig(eps=(0.7,))
    with pytest.raises(ValueError):
        SweepConfig(p=1.5)
    for name in ("p", "q", "r"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                SweepConfig(**{name: bad})
    for bad in ({"p": 3.0, "q": 2.0}, {"r": 1.0}):  # q <= p - 1, r <= 1
        cfg = SweepConfig(**bad)
        for driver in (fit_holder_rate, audit_stability_bound):
            with pytest.raises(ValueError, match="needs"):
                driver(cfg)
    grid = SweepConfig().eps_grid()
    assert len(grid) == 7
    assert grid[0] == pytest.approx(1e-3) and grid[-1] == pytest.approx(1e-1)


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_example_dirac_split():
    rep = run_example("1.2")
    assert rep.passed
    row = dict(zip(rep.columns, rep.rows[0]))
    assert row["w_out"] == 2.0
    assert row["w_in"] == 0.0
    assert math.isinf(row["bound"])


def test_example_shrinking_block():
    cfg = SweepConfig(eps=(0.1, 0.01), q=2.0, r=2.0)
    rep = run_example("1.3", cfg)
    assert rep.passed
    for row_arr in rep.rows:
        row = dict(zip(rep.columns, row_arr))
        eps = row["eps"]
        assert row["w_out"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert row["w_in"] == pytest.approx(eps / (2 * math.sqrt(3)), abs=1e-12)
        assert abs(row["w_out_grid"] - row["w_out"]) <= 1e-3
        assert abs(row["w_in_grid"] - row["w_in"]) <= 1e-3


@pytest.mark.parametrize("grid,p,q", [(7, 2.0, 2.0), (9, 2.0, 2.0), (9, 3.0, 3.0),
                                      (1, 2.0, 2.0)])
def test_example_shrinking_block_coarse_grids_keep_the_cell_bounds(grid, p, q):
    # an odd grid puts one cell's center on the singular point 0, where the
    # min-norm selection sends its mass 1/grid to 0, distance 1 from the
    # Dirac image at 1; the rest splits evenly between -1 and 1
    rep = run_example("1.3", SweepConfig(grid=grid, p=p, q=q))
    assert rep.passed, rep.failures
    w_out_grid = (2.0 ** (q - 1.0) * (1.0 - 1.0 / grid) + 1.0 / grid) ** (1.0 / q)
    for row_arr in rep.rows:
        row = dict(zip(rep.columns, row_arr))
        assert abs(row["w_in_grid"] - row["w_in"]) <= row["eps"] / (2 * grid)
        assert row["w_out_grid"] == pytest.approx(w_out_grid, abs=1e-12)
        assert abs(row["w_out_grid"] - row["w_out"]) <= 2.0 * grid ** (-1.0 / q)


@pytest.mark.parametrize("q,r", [(2.0, 2.0), (2.0, 3.0), (3.0, 2.0)])
def test_example_atom_pinch_closed_forms(q, r):
    cfg = SweepConfig(eps=(0.02, 0.1), q=q, r=r)
    rep = run_example("1.4", cfg)
    for row_arr in rep.rows:
        row = dict(zip(rep.columns, row_arr))
        eps = row["eps"]
        assert row["w_out"] == pytest.approx(2.0 * (eps / 2) ** (1 / q),
                                             rel=1e-12)
        expect_in = (2.0 / (r + 1)) ** (1 / r) * (eps / 2) ** ((r + 1) / r)
        assert row["w_in"] == pytest.approx(expect_in, rel=1e-12)
        assert row["w_inf"] == pytest.approx(eps / 2, rel=1e-12)


def test_example_unknown_id():
    with pytest.raises(ValueError):
        run_example("9.9")


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------

def test_rate_fit_recovers_exponents():
    rep = fit_holder_rate(SweepConfig(q=2.0, r=2.0))
    assert abs(rep.slope - 1.0 / 3.0) <= 0.02
    rep2 = fit_holder_rate(SweepConfig(q=2.0, r=3.0))
    assert abs(rep2.slope - 3.0 / 8.0) <= 0.03
    assert rep.passed and rep2.passed


def test_rate_fit_guards():
    with pytest.raises(ValueError):
        fit_holder_rate(SweepConfig(eps=(0.01, 0.02, 0.04)))
    with pytest.raises(ValueError):
        fit_holder_rate(SweepConfig(eps=(0.01, 0.02, 0.03, 0.04, 0.05)))


def test_rate_fit_excludes_out_of_regime_points():
    # r = 50 keeps w_in large at big eps, so wide grids trip the exclusion
    eps = tuple(np.logspace(-3, math.log10(0.3), 8))
    rep = fit_holder_rate(SweepConfig(q=2.0, r=50.0, eps=eps))
    assert rep.metadata["excluded_points"] >= 1


# ---------------------------------------------------------------------------
# stability audits
# ---------------------------------------------------------------------------

def test_audit_small_run_all_kinds():
    cfg = SweepConfig(p=2.0, q=2.0, r=2.0, count_1d=6, count_2d=2, grid=12, seed=3)
    rep = audit_stability_bound(cfg)
    assert rep.passed
    kinds = set(rep.rows[:, rep.columns.index("kind")].astype(int))
    assert {0, 1, 2, 4} <= kinds
    # trivial rows: identical measures have zero distances
    trivial = rep.rows[rep.rows[:, rep.columns.index("kind")] == 0]
    w_in_col = rep.columns.index("w_in")
    w_out_col = rep.columns.index("w_out")
    assert (trivial[:, w_in_col] == 0).all()
    assert (trivial[:, w_out_col] == 0).all()
    # every audited row satisfies both bounds
    assert (rep.rows[:, rep.columns.index("w_out")] <=
            rep.rows[:, rep.columns.index("bound_r")]).all()
    assert (rep.rows[:, rep.columns.index("w_out")] <=
            rep.rows[:, rep.columns.index("bound_inf")]).all()


def test_audit_1d_w_inf_against_closed_forms(monkeypatch):
    """Closed-form W_inf of the 1D perturbations: a collapse of width w to
    its center moves mass by at most w/2 and exactly w/2 at the block's
    ends, and a cell-center discretization with cells of width at most h
    moves no mass further than h/2.  On the default audit at seed 0, 40 of
    the 200 rows break them (3 collapses, 37 discretizations): where two
    quantile functions' cumulative masses differ only by rounding, the
    piece between them is 1e-16 to 1.6e-15 wide and its quantile gap is
    reported as W_inf (ROADMAP direction 2).  The count pins today's cut
    points; it drops to 0 when that is mended."""
    widths = []

    def recording(measure, resolution):
        # the first center of each interval sits half a cell in
        disc = discretize(measure, resolution)
        x = disc.points[:, 0]
        widths.append(max(2.0 * (x[(x >= lo) & (x <= hi)].min() - lo)
                          for lo, hi, _ in measure.intervals))
        return disc

    monkeypatch.setattr(experiments, "discretize", recording)
    rep = audit_stability_bound(SweepConfig(seed=0))
    rows = rep.rows[(rep.rows[:, 0] == 1.0) & (rep.rows[:, 1] < 3.0)]
    assert len(rows) == 200
    kind, eps, w_inf = rows[:, 1], rows[:, 2], rows[:, 6]
    collapse = kind == 1.0
    discretized = kind == 2.0
    assert discretized.sum() == len(widths) == 99
    off_collapse = np.abs(w_inf[collapse] - eps[collapse] / 2.0) > 1e-12
    off_cells = w_inf[discretized] > np.array(widths) / 2.0 + 1e-12
    assert (off_collapse.sum(), off_cells.sum()) == (3, 37)


def test_audit_check_raises_on_violation():
    # q = r = 2: with c = 1 and w_in = 1 the rate bound is 1; w_inf = 9
    # makes the sup bound 3
    with pytest.raises(BoundViolationError) as exc:
        _audit_row(SweepConfig(seed=7), 1, 1, 0.1, 1.0, 1.0, 9.0, 2.0, eps=0.1)
    assert exc.value.dump["seed"] == 7
    assert "2.0" in str(exc.value)
    with pytest.raises(RuntimeError):
        _audit_row(SweepConfig(seed=1), 1, 1, 0.1, 1.0, 1.0, 1.0, math.nan)
    # within both bounds: silent, and the row in report order
    assert _audit_row(SweepConfig(), 2, 3, 0.1, 1.0, 1.0, 1.0, 0.5) == [
        2.0, 3.0, 0.1, 1.0, 0.5, 1.0, 1.0, 1.0]


_DUMP_KEYS = {"dim", "kind", "p", "q", "r", "w_in", "w_inf", "w_out",
              "bound_r", "bound_inf", "seed"}


def test_every_audit_kind_dumps_the_common_keys(monkeypatch):
    """With a constant of 1e-300 every kind with a positive output distance
    fails, and each dump carries the common keys with the row's values.
    Kind 0 (identical measures) has w_out = 0 = c * 0 for any constant, so
    its rows still pass."""
    monkeypatch.setattr(experiments, "stability_constant", lambda *args: 1e-300)
    cfg = SweepConfig(p=2.0, q=3.0, r=2.5, seed=5, count_1d=1, count_2d=0)
    rng = np.random.default_rng(cfg.seed)
    grid = uniform_grid(Domain.ball(np.zeros(2), 1.0), 12)
    rho_d = DiscreteMeasure(grid.points, grid.weights, Domain.ball(np.zeros(2), 2.0))
    runs = {(1, 1): lambda: experiments._audit_one_1d(rng, cfg, 1),
            (1, 2): lambda: experiments._audit_one_1d(rng, cfg, 2),
            (2, 3): lambda: experiments._audit_one_2d(rng, cfg, 3, rho_d, 2.0 / 12),
            # count_1d = 1 runs one kind-0 row, then the atom-pinch rows
            (1, 4): lambda: audit_stability_bound(cfg)}
    for (dim, kind), run in runs.items():
        with pytest.raises(BoundViolationError, match="rate-form") as exc:
            run()
        dump = exc.value.dump
        assert _DUMP_KEYS <= set(dump), (kind, _DUMP_KEYS - set(dump))
        assert (dump["dim"], dump["kind"], dump["seed"]) == (dim, kind, 5)
        assert (dump["p"], dump["q"], dump["r"]) == (2.0, 3.0, 2.5)
        assert dump["w_out"] > dump["bound_r"] > 0.0
        assert dump["bound_r"] == 1e-300 * dump["w_in"] ** holder_exponent(3.0, 2.5)
        assert dump["bound_inf"] == 1e-300 * dump["w_inf"] ** (1.0 / 3.0)
    for row in (experiments._audit_one_1d(rng, cfg, 0),
                experiments._audit_one_2d(rng, cfg, 0, rho_d, 2.0 / 12)):
        assert row[4] == row[5] == row[7] == 0.0


# ---------------------------------------------------------------------------
# random max-affine draws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["lip_max", "R"])
def test_random_max_affine_rejects_non_finite_arguments(name, bad):
    args = {"lip_max": 1.0, "R": 1.0, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        random_max_affine(np.random.default_rng(0), 2, 3, **args)


@pytest.mark.parametrize("d,k", [(1, 2), (1, 5), (1, 8), (2, 3), (2, 6)])
def test_random_max_affine_every_piece_active(d, k):
    rng = np.random.default_rng(100 * d + k)
    f = random_max_affine(rng, d, k, lip_max=1.0, R=1.0)
    assert len(f.slopes) == k
    assert f.lip <= 1.0 + 1e-12
    if d == 1:
        xs = np.linspace(-1, 1, 4097)[:, None]
    else:
        ax = np.linspace(-1, 1, 91)
        gx, gy = np.meshgrid(ax, ax)
        xs = np.column_stack([gx.ravel(), gy.ravel()])
        xs = xs[(xs ** 2).sum(1) <= 1.0]
    winners = np.unique(f.piece_values(xs).argmax(axis=1))
    assert len(winners) == k


def test_random_max_affine_3d_not_implemented():
    with pytest.raises(NotImplementedError):
        random_max_affine(np.random.default_rng(0), 3, 4, 1.0, 1.0)


# ---------------------------------------------------------------------------
# exact 1D pushforward of mixed measures
# ---------------------------------------------------------------------------

def test_pushforward_measure1d_against_grid_oracle():
    dom = Domain.ball(np.zeros(1), 1.0)
    rng = np.random.default_rng(8)
    for trial in range(10):
        m_atoms = int(rng.integers(2, 5))
        atoms = np.sort(rng.uniform(-0.8, 0.8, (m_atoms, 1)), axis=0)
        while np.diff(atoms.ravel()).min() < 0.1 or not (
                atoms.min() <= 0 <= atoms.max()):
            atoms = np.sort(rng.uniform(-0.8, 0.8, (m_atoms, 1)), axis=0)
        pot = CConcavePotential(atoms, rng.uniform(-0.02, 0.02, m_atoms),
                                2.0, 1.0)
        if pot.max_active_distance(4097) > 1.0:
            continue
        rho = Measure1D.uniform(dom, -0.5, 0.5)
        exact = pushforward_measure1d(pot, rho)
        approx = pushforward_tmap(pot, discretize(rho, 4000)).image
        # grid discretization misassigns at most one cell of mass per
        # boundary between adjacent cells of the map
        h = 2.0 / 4000  # bounding box [-1, 1] at resolution 4000
        cuts = m_atoms - 1
        exact_w = {float(x): w for x, w in zip(exact.points.ravel(),
                                               exact.weights)}
        approx_w = {float(x): w for x, w in zip(approx.points.ravel(),
                                                approx.weights)}
        assert set(approx_w) <= set(exact_w)
        for x, w in exact_w.items():
            assert abs(approx_w.get(x, 0.0) - w) <= 2 * h + 1e-12
        # W2 between measures with mass defect delta scales like sqrt(delta)
        d = wasserstein_1d(Measure1D.from_discrete(exact),
                           Measure1D.from_discrete(approx), 2.0)
        assert d <= math.sqrt(cuts * h * 4.0) + 1e-12


def test_pushforward_measure1d_boundary_atom_goes_right():
    dom = Domain.ball(np.zeros(1), 1.0)
    pot = CConcavePotential(np.array([[-0.5], [0.5]]), np.zeros(2), 2.0, 1.0)
    # the Laguerre cut sits exactly at 0; an atom there maps to the right cell
    m = Measure1D.from_pieces(dom, (), [(0.0, 1.0)])
    img = pushforward_measure1d(pot, m)
    assert img.points.ravel().tolist() == [0.5]
    assert img.weights.tolist() == [1.0]


def test_pushforward_measure1d_mass_and_split():
    dom = Domain.ball(np.zeros(1), 1.0)
    pot = CConcavePotential(np.array([[-0.5], [0.5]]), np.zeros(2), 2.0, 1.0)
    rho = Measure1D.uniform(dom, -0.5, 0.5)
    img = pushforward_measure1d(pot, rho)
    got = dict(zip(img.points.ravel(), img.weights))
    assert got[-0.5] == pytest.approx(0.5, abs=1e-15)
    assert got[0.5] == pytest.approx(0.5, abs=1e-15)


def _loop_pushforward_measure1d(pot, m):
    """``pushforward_measure1d`` with its per-atom ``searchsorted`` loop."""
    active, cuts = pot._cells_1d()
    bounds = np.concatenate([[-np.inf], cuts, [np.inf]])
    masses = np.zeros(len(active))
    for lo, hi, mass in m.intervals:
        den = mass / (hi - lo)
        left = np.maximum(lo, bounds[:-1])
        right = np.minimum(hi, bounds[1:])
        masses += den * np.maximum(right - left, 0.0)
    for x, mass in m.atoms:
        idx = int(np.searchsorted(cuts, x, side="right"))
        masses[idx] += mass
    pts = pot.atoms[active]
    keep = masses > 0.0
    return DiscreteMeasure(pts[keep], masses[keep], Domain.ball(np.zeros(1), pot.R))


def test_pushforward_measure1d_atom_binning_has_the_loop_bits():
    dom = Domain.ball(np.zeros(1), 1.0)
    rng = np.random.default_rng(12)
    pot = CConcavePotential(np.array([[-0.6], [-0.1], [0.3], [0.7]]),
                            np.array([0.0, 0.01, -0.02, 0.0]), 2.0, 1.0)
    cuts = pot._cells_1d()[1]
    assert len(cuts) >= 2
    measures = [
        # atoms exactly on every cut, with intervals around them
        Measure1D.from_pieces(dom, [(-0.9, -0.8, 0.3)],
                              [(c, 0.7 / len(cuts)) for c in cuts]),
        # seven atoms in one cell, masses that do not add up exactly
        Measure1D.from_pieces(dom, [(0.2, 0.9, 0.3)],
                              [(x, 0.1) for x in np.linspace(-0.95, -0.8, 7)]),
        # random atoms, a cut twice among them
        Measure1D.from_pieces(dom, (), [(x, 1.0 / 24) for x in np.concatenate(
            [rng.uniform(-1.0, 1.0, 24 - len(cuts) - 1), cuts, cuts[:1]])]),
    ]
    for m in measures:
        got = pushforward_measure1d(pot, m)
        want = _loop_pushforward_measure1d(pot, m)
        assert got.points.tobytes() == want.points.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_rejects_nan_rows():
    with pytest.raises(ValueError):
        ExperimentReport(scenario="demo", columns=("a",),
                         rows=np.array([[math.nan]]))


def test_report_csv_is_deterministic(tmp_path):
    rep = ExperimentReport(scenario="demo", columns=("a", "b"),
                           rows=np.array([[1.0, 2.0], [3.0, 0.1]]),
                           constants={"c": 1.5}, metadata={"note": "x"},
                           slope=0.5, slope_stderr=0.001)
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    rep.to_csv(p1)
    rep.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.startswith("# scenario=demo\n")
    assert "a,b\n" in text
    assert "# constants: c=1.5" in text
    assert "passed=True" in text


def test_demo_scenario_exercises_singular_policies():
    rep = run_demo(SweepConfig(seed=5, grid=128))
    assert rep.passed
    hits = rep.rows[:, rep.columns.index("singular_hits")]
    assert (hits >= 1).all()


# ---------------------------------------------------------------------------
# singularity suite (small smoke; the full suite runs in the acceptance tests)
# ---------------------------------------------------------------------------

def test_singularity_suite_small():
    cfg = SweepConfig(seed=2, count_1d=6, count_2d=2)
    rep = run_singularity_suite(cfg)
    assert rep.passed
    kind_col = rep.columns.index("kind")
    ladders = rep.rows[rep.rows[:, kind_col] == 0]
    # kink count reproduced exactly for every ladder
    val_col = rep.columns.index("value")
    a_col = rep.columns.index("a")
    assert (ladders[:, val_col] == ladders[:, a_col]).all()
    ratios = rep.rows[rep.rows[:, kind_col] == 1]
    assert np.abs(ratios[:, a_col] - 8.0).max() <= 1e-6


# ---------------------------------------------------------------------------
# figure pipeline
# ---------------------------------------------------------------------------

def _figure_digest(out):
    """sha256 over the name and bytes of every file in ``out``."""
    digest = hashlib.sha256()
    for name in sorted(f.name for f in out.iterdir()):
        digest.update(name.encode())
        digest.update((out / name).read_bytes())
    return digest.hexdigest()


# ``_figure_digest`` of every file ``figure1 --grid 24`` writes.  Its 576
# cells do not divide the 1e12 mass units, so its solves route leftover
# units one short path at a time, which grid 16 (256 cells) never does.
_FIGURE24_DIGEST = "5518b333e59b54311d064050934ea264b7d072cf68ff99c21f0daebb10235327"


def test_figure_pipeline_small(tmp_path):
    rep = run_figure1(SweepConfig(grid=24, seed=0, out=str(tmp_path)))
    assert rep.passed
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["files"]) == {"0.00", "0.25", "0.50", "0.75", "1.00"}
    checks = manifest["checks"]
    assert checks["endpoint_residual_start"] <= 2 * checks["cell_diagonal"]
    assert checks["endpoint_residual_end"] <= 2 * checks["cell_diagonal"]
    for stem in manifest["files"].values():
        assert (tmp_path / stem["csv"]).exists()
        assert (tmp_path / stem["svg"]).exists()
    assert _figure_digest(tmp_path) == _FIGURE24_DIGEST


# sha256 over the name and bytes of every file ``figure1 --grid 16`` writes
# but its report ``figure1.csv``, which records the output directory.
_FIGURE16_DIGEST = "b5b5474f6ddf593c09f3937a7cf0621bfef15173a3bfd3f8809be6df5322e5d5"


def test_figure_pipeline_bytes_are_pinned(tmp_path):
    assert run_figure1(SweepConfig(grid=16, out=str(tmp_path))).passed
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == ["manifest.json"] + [
        f"mu_t{t}.{ext}" for t in ("0.00", "0.25", "0.50", "0.75", "1.00")
        for ext in ("csv", "svg")]
    assert _figure_digest(tmp_path) == _FIGURE16_DIGEST


def test_figure_pipeline_custom_and_malformed_targets(tmp_path):
    good = {"kind": "discrete",
            "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "points": [[0.3, 0.3], [0.7, 0.7]], "weights": [0.5, 0.5]}
    other = {"kind": "discrete",
             "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
             "points": [[0.2, 0.8], [0.8, 0.2], [0.5, 0.5]],
             "weights": [0.25, 0.25, 0.5]}
    p_good = tmp_path / "a.json"
    p_other = tmp_path / "b.json"
    p_good.write_text(json.dumps(good))
    p_other.write_text(json.dumps(other))
    rep = run_figure1(SweepConfig(grid=16, seed=1, out=str(tmp_path / "custom"),
                                  targets=(str(p_good), str(p_other))))
    assert rep.passed

    bad = {"kind": "measure1d",
           "domain": {"kind": "ball", "center": [0.0], "radius": 1.0},
           "intervals": [[-0.5, 0.5, 1.0]]}
    p_bad = tmp_path / "bad.json"
    p_bad.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="figure target"):
        run_figure1(SweepConfig(grid=16, seed=1, out=str(tmp_path / "broken"),
                                targets=(str(p_good), str(p_bad))))


def test_figure_target_needs_a_cell_per_atom(tmp_path):
    # the built-in targets have 113 and 152 atoms; at grid 12 the last 8 of
    # the 152 got 0 of the 144 cells, were dropped, and the run passed
    with pytest.raises(ValueError, match="152 atoms needs at least 152 grid cells, got 144"):
        run_figure1(SweepConfig(grid=12, out=str(tmp_path / "g12")))
    assert run_figure1(SweepConfig(grid=13, out=str(tmp_path / "g13"))).passed
