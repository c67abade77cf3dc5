"""Reproducible experiment drivers for transport-map stability.

Scenarios
---------
* ``run_example`` -- the three closed-form counterexample families on the
  interval: a Dirac source with two optimal selections, a shrinking uniform
  block against a Dirac, and a uniform density with an epsilon-mass atom
  pinched at the midpoint.  Each returns exact input/output Wasserstein
  distances alongside a discrete-grid cross-check.
* ``fit_holder_rate`` -- log-log slope of output vs. input distance over an
  epsilon sweep of the atom-pinch family; the fitted exponent is compared
  against the sharp rate r / (q (r + 1)).
* ``audit_stability_bound`` -- randomized audits of the quantitative
  stability inequality  W_q(image, perturbed image) <= c * W_r(in)^{r/(q(r+1))}
  and its sup-distance variant c * W_inf(in)^{1/q}, on exact 1D instances and
  grid-discretized 2D instances.  Violations abort with a full instance dump.
* ``run_singularity_suite`` -- covering-number equalities for kink ladders,
  the exact integral ratio for the absolute value, randomized integral and
  covering bounds, and the local diameter-vs-gradient-integral inequality.
* ``run_figure1`` -- barycentric interpolation pipeline: two pixel clouds are
  coupled to a common uniform grid, and the interpolant measures are exported
  as CSV + SVG with a manifest.
* ``run_demo`` -- a small qualitative gallery of singular selections (no
  quantitative gate).

Determinism: every scenario derives all randomness from a single
``numpy.random.default_rng(seed)`` (PCG64) taken from its config; identical
configs produce byte-identical CSV/SVG/manifest output (floats are written
with ``repr``, dictionaries are emitted with sorted keys, and no timestamps
are recorded).  Sweep points are pure functions of (config, point), so they
may be evaluated in any order; reports are always assembled in increasing
epsilon order.  NaN anywhere in a report is a hard error, never a row.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .convex_analysis import (MaxAffineFunction, _disc_grid, _require_positive,
                              covering_number_sigma, integral_diam_estimate,
                              kink_ladder, verify_lemma_diam_l1)
from .discrete_ot import bottleneck_solve, wasserstein
from .geometry_measures import (DiscreteMeasure, Domain, Measure1D,
                                _sorted_distinct, discretize, measure_from_json,
                                uniform_grid, unit_ball_volume, wasserstein_1d)
from .pcost_maps import CConcavePotential
from .pushforward import (SelectionPolicy, lot_interpolant,
                          potential_from_discrete_ot, pushforward_tmap)


# ---------------------------------------------------------------------------
# constants and fits
# ---------------------------------------------------------------------------

def stability_constant(d: int, p: float, q: float, R: float,
                       density_bound: float) -> float:
    """Explicit constant of the stability inequality.

    c = 2^{8(d+1)} p^3 (q/(q-p+1))^{1/q} d^2 (1+beta_d) (1+M) (1+R)^{2+p+d}
    with beta_d the unit-ball volume and M a sup bound on the source density.
    Requires q > p - 1 (the inequality's hypothesis); raises ValueError
    otherwise.
    """
    if not q > p - 1.0:
        raise ValueError(f"stability constant needs q > p - 1, got q={q}, p={p}")
    if density_bound < 0 or R <= 0:
        raise ValueError("density bound must be nonnegative and R positive")
    beta = unit_ball_volume(d)
    return (2.0 ** (8 * (d + 1)) * p ** 3 * (q / (q - p + 1.0)) ** (1.0 / q)
            * d * d * (1.0 + beta) * (1.0 + density_bound)
            * (1.0 + R) ** (2.0 + p + d))


def holder_exponent(q: float, r: float) -> float:
    """Sharp stability exponent r / (q (r + 1))."""
    if not (q > 0 and r > 1.0):
        raise ValueError("need q > 0 and r > 1")
    return r / (q * (r + 1.0))


def _bounds(cfg: SweepConfig, c: float, w_in: float, w_inf: float) -> tuple[float, float]:
    """Right-hand sides of the stability inequality: the rate form
    c W_r^{r/(q(r+1))} and the sup form c W_inf^{1/q}."""
    return c * w_in ** holder_exponent(cfg.q, cfg.r), c * w_inf ** (1.0 / cfg.q)


def fit_loglog(x, y) -> tuple[float, float]:
    """Least-squares slope of log y against log x, with its standard error.

    Both inputs must be strictly positive with at least two distinct
    abscissae.  The standard error is sqrt(RSS / ((n - 2) * Sxx)) for n > 2
    and 0.0 at n == 2.
    """
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.ndim != 1 or ax.shape != ay.shape or ax.size < 2:
        raise ValueError("fit needs two 1D arrays of equal length >= 2")
    if not (np.isfinite(ax).all() and np.isfinite(ay).all()
            and (ax > 0).all() and (ay > 0).all()):
        raise ValueError("fit inputs must be finite and positive")
    lx = np.log(ax)
    ly = np.log(ay)
    sxx = float(((lx - lx.mean()) ** 2).sum())
    if sxx <= 0.0:
        raise ValueError("fit abscissae are all identical")
    slope = float(((lx - lx.mean()) * (ly - ly.mean())).sum() / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (slope * lx + intercept)
    n = lx.size
    stderr = math.sqrt(float((resid ** 2).sum()) / ((n - 2) * sxx)) if n > 2 else 0.0
    return slope, stderr


# ---------------------------------------------------------------------------
# config and report
# ---------------------------------------------------------------------------

_EPS_DEFAULT = tuple(float(e) for e in np.logspace(-3.0, -1.0, 7))


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of the scenario drivers; each driver reads only some of
    the fields (``cli._READS`` lists which).

    The scenario is the driver the config is passed to; the config does not
    name it.  ``eps`` left empty means "use the scenario default grid"; any
    provided epsilon must lie in (0, 1/2).  ``grid`` of 0 means the scenario
    default resolution.  The exponents p, q and r must be finite, with
    p >= 2; ``fit_holder_rate`` and ``audit_stability_bound`` further need
    q > p - 1 and r > 1 (the hypotheses of the inequality they exercise).
    Types are checked: integers and real exponents (no bools), lists for
    ``eps`` and ``targets`` (not strings), a path or None for ``out``.
    """

    eps: tuple[float, ...] = ()
    p: float = 2.0
    q: float = 2.0
    r: float = 2.0
    grid: int = 0
    seed: int = 0
    out: str | None = None
    count_1d: int = 200
    count_2d: int = 50
    targets: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("grid", "seed", "count_1d", "count_2d", "p", "q", "r"):
            v = getattr(self, name)
            kind = numbers.Real if name in ("p", "q", "r") else numbers.Integral
            if isinstance(v, bool) or not isinstance(v, kind):
                raise TypeError(f"{name} must be {kind.__name__.lower()}, got {v!r}")
            if kind is numbers.Real and not math.isfinite(v):
                raise ValueError(f"exponent {name} must be finite, got {v!r}")
        for name, kind, what in (("eps", numbers.Real, "numbers"),
                                 ("targets", (str, os.PathLike), "file names")):
            items = getattr(self, name)
            if not (isinstance(items, (list, tuple, np.ndarray)) and all(
                    isinstance(v, kind) and not isinstance(v, bool) for v in items)):
                raise TypeError(f"{name} must be a list of {what}, got {items!r}")
        if not (self.out is None or isinstance(self.out, (str, os.PathLike))):
            raise TypeError(f"out must be a directory name, got {self.out!r}")
        eps = tuple(float(e) for e in self.eps)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "targets", tuple(self.targets))
        for e in eps:
            if not 0.0 < e < 0.5:
                raise ValueError(f"epsilon {e} outside (0, 1/2)")
        if self.p < 2.0:
            raise ValueError("cost exponent p must be >= 2")
        if self.grid < 0:
            raise ValueError("grid resolution must be nonnegative")
        if self.count_1d < 1 or self.count_2d < 0:
            raise ValueError("need count_1d >= 1 and count_2d >= 0")

    def eps_grid(self, default: tuple[float, ...] = _EPS_DEFAULT) -> tuple[float, ...]:
        return tuple(sorted(self.eps)) if self.eps else tuple(sorted(default))


def _check_inequality_exponents(cfg: SweepConfig, scenario: str) -> None:
    """The stability inequality's hypotheses q > p - 1 and r > 1."""
    if not cfg.q > cfg.p - 1.0:
        raise ValueError(f"scenario {scenario!r} needs q > p - 1, "
                         f"got q={cfg.q}, p={cfg.p}")
    if not cfg.r > 1.0:
        raise ValueError(f"scenario {scenario!r} needs r > 1, got r={cfg.r}")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass(frozen=True)
class ExperimentReport:
    """Tabular scenario outcome with provenance constants.

    ``rows`` is a float matrix with one entry per ``columns``; NaN values are
    rejected at construction (a scenario must fail loudly rather than record
    NaN).  ``to_csv`` output is byte-deterministic: floats via ``repr``,
    dictionaries in sorted key order, no timestamps.
    """

    scenario: str
    columns: tuple[str, ...]
    rows: np.ndarray
    constants: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    failures: tuple[str, ...] = ()
    slope: float | None = None
    slope_stderr: float | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float).reshape(-1, len(self.columns))
        if np.isnan(rows).any():
            raise ValueError("NaN in report rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "failures", tuple(self.failures))
        if self.slope is not None and math.isnan(self.slope):
            raise ValueError("NaN slope")

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_csv(self, path) -> None:
        lines = [f"# scenario={self.scenario}"]
        for name, dic in (("constants", self.constants), ("metadata", self.metadata)):
            if dic:
                body = ",".join(f"{k}={_fmt(v)}" for k, v in sorted(dic.items()))
                lines.append(f"# {name}: {body}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(repr(float(v)) for v in row))
        tail = []
        if self.slope is not None:
            tail.append(f"slope={self.slope!r}")
            tail.append(f"slope_stderr={self.slope_stderr!r}")
        tail.append(f"passed={self.passed}")
        lines.append("# " + ",".join(tail))
        for f in self.failures:
            lines.append(f"# failure: {f}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


class BoundViolationError(RuntimeError):
    """An audited inequality failed; carries the offending instance."""

    def __init__(self, message: str, dump: dict):
        super().__init__(message + "\n" + json.dumps(dump, sort_keys=True,
                                                     default=_json_default))
        self.dump = dump


def _json_default(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o)!r}")


# ---------------------------------------------------------------------------
# exact 1D pushforward through a Laguerre-form potential
# ---------------------------------------------------------------------------

def pushforward_measure1d(pot: CConcavePotential, m: Measure1D) -> DiscreteMeasure:
    """Exact pushforward of a 1D mixed measure through the transport map.

    Interval mass is split across the potential's Laguerre cells
    (``CConcavePotential._cells_1d``, cached on the potential, so the
    pushforwards of a source and its perturbation share one computation) by
    exact overlap integrals; an atom sitting exactly on a cell boundary (a
    singular point of the map) is sent to the right cell -- one fixed
    measurable selection of the optimal map.  One ``searchsorted`` finds
    every atom's cell, and ``np.add.at`` adds the atom masses in atom
    order, the order of the per-atom loop it replaces, so the sums keep
    their bits.
    """
    active, cuts = pot._cells_1d
    bounds = np.concatenate([[-np.inf], cuts, [np.inf]])
    masses = np.zeros(len(active))
    for lo, hi, mass in m.intervals:
        den = mass / (hi - lo)
        left = np.maximum(lo, bounds[:-1])
        right = np.minimum(hi, bounds[1:])
        masses += den * np.maximum(right - left, 0.0)
    np.add.at(masses, np.searchsorted(cuts, m.atoms[:, 0], side="right"), m.atoms[:, 1])
    pts = pot.atoms[active]
    keep = masses > 0.0
    return DiscreteMeasure(pts[keep], masses[keep],
                           Domain.ball(np.zeros(1), pot.R))


# ---------------------------------------------------------------------------
# closed-form example families
# ---------------------------------------------------------------------------

def _sign_potential(p: float) -> CConcavePotential:
    """Unit-ball potential whose transport map is sign(x): atoms at -1, +1."""
    return CConcavePotential(np.array([[-1.0], [1.0]]), np.zeros(2), p, 1.0)


def _example_12(cfg: SweepConfig) -> ExperimentReport:
    dom = Domain.ball(np.zeros(1), 1.0)
    pot = _sign_potential(cfg.p)
    src = DiscreteMeasure(np.zeros((1, 1)), np.ones(1), dom)
    img_right = pushforward_tmap(pot, src, SelectionPolicy.fixed(1)).image
    img_left = pushforward_tmap(pot, src, SelectionPolicy.fixed(0)).image
    w_out = wasserstein(img_right, img_left, cfg.q)
    rows = [[0.0, 0.0, w_out, math.inf]]
    return ExperimentReport(
        scenario="example-1.2",
        columns=("eps", "w_in", "w_out", "bound"),
        rows=np.asarray(rows),
        constants={"p": cfg.p, "q": cfg.q},
        metadata={"bound_note": "source is a Dirac (no density bound); "
                                "the stability bound is vacuous here",
                  "selections": "fixed(+1) vs fixed(-1) at the singular point"},
        failures=() if w_out == 2.0 else (f"two-selection gap {w_out!r} != 2.0",),
    )


def _example_13(cfg: SweepConfig) -> ExperimentReport:
    """Uniform blocks of width eps shrinking onto the sign map's singular
    point 0, with a ``grid``-cell discretization as cross-check.

    The grid distances are checked against bounds from the cell width
    h = eps / grid.  Input: |w_in_grid - w_in| <= W_r(rho_d, rho) <= h/2,
    since every cell's mass moves at most to its center.  Output: only a
    cell straddling 0 (at most one, of mass 1/grid) can have its mass sent
    elsewhere than the exact image sends it, by at most the atoms'
    diameter 2, so |w_out_grid - w_out| <= 2 (1/grid)^(1/q).
    """
    dom = Domain.ball(np.zeros(1), 1.0)
    pot = _sign_potential(cfg.p)
    grid = cfg.grid or 10_000
    expo = holder_exponent(cfg.q, cfg.r)
    delta0 = Measure1D.dirac(dom, 0.0)
    img_dirac = pushforward_measure1d(pot, delta0)
    dirac_dm = DiscreteMeasure(np.zeros((1, 1)), np.ones(1), dom)
    rows = []
    failures = []
    for eps in cfg.eps_grid(default=(0.01, 0.1)):
        rho = Measure1D.from_pieces(dom, [(-eps / 2.0, eps / 2.0, 1.0)])
        w_in = wasserstein_1d(rho, delta0, cfg.r)
        img = pushforward_measure1d(pot, rho)
        w_out = wasserstein_1d(Measure1D.from_discrete(img),
                               Measure1D.from_discrete(img_dirac), cfg.q)
        c = stability_constant(1, cfg.p, cfg.q, 1.0, 1.0 / eps)
        bound = _bounds(cfg, c, w_in, 0.0)[0]  # the rate form; no W_inf column here
        rho_d = discretize(rho, grid)
        w_in_grid = wasserstein(rho_d, dirac_dm, cfg.r)
        img_grid = pushforward_tmap(pot, rho_d).image
        w_out_grid = wasserstein(img_grid, img_dirac, cfg.q)
        if abs(w_in_grid - w_in) > eps / (2.0 * grid):
            failures.append(f"grid input distance off at eps={eps!r}: "
                            f"{w_in_grid!r} vs {w_in!r}")
        if abs(w_out_grid - w_out) > 2.0 * grid ** (-1.0 / cfg.q):
            failures.append(f"grid output distance off at eps={eps!r}: "
                            f"{w_out_grid!r} vs {w_out!r}")
        if w_out > bound:
            failures.append(f"bound violated at eps={eps!r}")
        rows.append([eps, w_in, w_out, bound, w_in_grid, w_out_grid])
    return ExperimentReport(
        scenario="example-1.3",
        columns=("eps", "w_in", "w_out", "bound", "w_in_grid", "w_out_grid"),
        rows=np.asarray(rows),
        constants={"p": cfg.p, "q": cfg.q, "r": cfg.r, "exponent": expo},
        metadata={"grid_cells": grid,
                  "density_bound": "1/eps per row (uniform block of width eps)",
                  "note": "output gap stays at sqrt(2) while the input "
                          "distance vanishes"},
        failures=tuple(failures),
    )


def _atom_pinch_rows(cfg: SweepConfig, eps_grid: tuple[float, ...]) -> np.ndarray:
    """Rows (eps, w_in, w_out, bound, w_inf, bound_inf) for the family that
    pinches an epsilon block of the uniform density into a midpoint atom."""
    dom = Domain.ball(np.zeros(1), 1.0)
    pot = _sign_potential(cfg.p)
    base = Measure1D.from_pieces(dom, [(-0.5, 0.5, 1.0)])
    img_base = Measure1D.from_discrete(pushforward_measure1d(pot, base))
    c = stability_constant(1, cfg.p, cfg.q, 1.0, 1.0)
    rows = []
    for eps in eps_grid:
        pinched = Measure1D.lebesgue_on(
            dom, [(-0.5, -eps / 2.0), (eps / 2.0, 0.5)], [(0.0, eps)])
        w_in = wasserstein_1d(base, pinched, cfg.r)
        w_inf = wasserstein_1d(base, pinched, math.inf)
        img = Measure1D.from_discrete(pushforward_measure1d(pot, pinched))
        w_out = wasserstein_1d(img_base, img, cfg.q)
        bound_r, bound_inf = _bounds(cfg, c, w_in, w_inf)
        rows.append([eps, w_in, w_out, bound_r, w_inf, bound_inf])
    return np.asarray(rows)


def _atom_pinch_report(cfg: SweepConfig, scenario: str, rows: np.ndarray,
                       fit: tuple[float, float], metadata: dict) -> ExperimentReport:
    """Report on atom-pinch rows and their fitted (slope, stderr), failing
    on any row over the rate-form or the sup-form bound."""
    failures = [f"{form}-form bound violated" for form, col in (("rate", 3), ("sup", 5))
                if (rows[:, 2] > rows[:, col]).any()]
    return ExperimentReport(
        scenario=scenario,
        columns=("eps", "w_in", "w_out", "bound", "w_inf", "bound_inf"),
        rows=rows,
        constants={"p": cfg.p, "q": cfg.q, "r": cfg.r,
                   "c": stability_constant(1, cfg.p, cfg.q, 1.0, 1.0),
                   "target_exponent": holder_exponent(cfg.q, cfg.r)},
        metadata=metadata,
        failures=tuple(failures),
        slope=fit[0],
        slope_stderr=fit[1],
    )


def _example_14(cfg: SweepConfig) -> ExperimentReport:
    rows = _atom_pinch_rows(cfg, cfg.eps_grid())
    return _atom_pinch_report(
        cfg, "example-1.4", rows, fit_loglog(rows[:, 1], rows[:, 2]),
        {"family": "uniform density with an eps block pinched to "
                   "a midpoint atom; the map is sign(x)"})


def run_example(example_id: str, cfg: SweepConfig | None = None) -> ExperimentReport:
    """Run one closed-form example family ("1.2", "1.3" or "1.4")."""
    runner = {"1.2": _example_12, "1.3": _example_13, "1.4": _example_14}
    if example_id not in runner:
        raise ValueError(f"unknown example id {example_id!r}; "
                         f"expected one of {tuple(runner)}")
    return runner[example_id](cfg or SweepConfig())


# ---------------------------------------------------------------------------
# rate fit
# ---------------------------------------------------------------------------

def fit_holder_rate(cfg: SweepConfig) -> ExperimentReport:
    """Fit the output-vs-input log-log slope on the atom-pinch family.

    Requires an epsilon grid with at least five points spanning at least two
    decades.  Rows whose input distance exceeds R/10 = 0.1 are excluded from
    the fit (the power law is an asymptotic statement; the exclusion count is
    recorded in metadata).  Degenerate grids (duplicate inputs) are an error.
    """
    _check_inequality_exponents(cfg, "rate")
    eps_grid = cfg.eps_grid()
    if len(eps_grid) < 5:
        raise ValueError("rate fit needs at least five epsilon points")
    if eps_grid[-1] / eps_grid[0] < 99.999:
        raise ValueError("rate fit needs an epsilon grid spanning two decades")
    rows = _atom_pinch_rows(cfg, eps_grid)
    w_in, w_out = rows[:, 1], rows[:, 2]
    if _sorted_distinct(w_in).size < w_in.size:
        raise ValueError("degenerate epsilon grid: duplicate input distances")
    keep = w_in <= 0.1
    excluded = int((~keep).sum())
    if keep.sum() < 2:
        raise ValueError("too few sweep points below the asymptotic cutoff")
    fit = fit_loglog(w_in[keep], w_out[keep])
    return _atom_pinch_report(
        cfg, "rate", rows, fit,
        {"excluded_points": excluded,
         "exclusion_rule": "drop rows with w_in > 0.1 (= R/10)",
         "slope_abs_error": abs(fit[0] - holder_exponent(cfg.q, cfg.r))})


# ---------------------------------------------------------------------------
# randomized stability audits
# ---------------------------------------------------------------------------

def _random_valid_potential_1d(rng: np.random.Generator, p: float) -> CConcavePotential:
    """Random Laguerre-form potential with two to five atoms whose active
    differences stay in the unit ball (so the cost's Lipschitz/concavity
    constants genuinely apply)."""
    for _ in range(500):
        m = int(rng.integers(2, 6))
        atoms = np.sort(rng.uniform(-0.85, 0.85, m))
        if atoms[0] > 0.0 or atoms[-1] < 0.0 or np.diff(atoms).min() < 0.05:
            continue
        offsets = rng.uniform(-0.03, 0.03, m)
        pot = CConcavePotential(atoms[:, None], offsets, p, 1.0)
        if pot.max_active_distance(2049) <= 1.0:
            return pot
    raise RuntimeError("could not draw a valid 1D potential")


def _random_valid_potential_2d(rng: np.random.Generator, p: float) -> CConcavePotential:
    """Random planar Laguerre-form potential, checked on the 2-ball.

    Two to six atoms lie in the 0.6-ball, at least 0.1 apart, with offsets
    in +-0.03.  Nothing bounds the active differences by construction: a
    point near the rim of the R = 2 ball can be up to 2.6 from its active
    atom.  So a draw is kept only when ``max_active_distance`` finds every
    |x - y_active(x)| <= R at the points of a 64 x 64 grid that lie in that
    ball (a sample, not a certificate); a rejected draw is drawn again, up
    to 500 times.
    """
    R = 2.0
    for _ in range(500):
        m = int(rng.integers(2, 7))
        pts = rng.uniform(-0.6, 0.6, (4 * m, 2))
        pts = pts[np.linalg.norm(pts, axis=1) <= 0.6][:m]
        if len(pts) < m:
            continue
        if m > 1:
            dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
            if (dists + np.eye(m)).min() < 0.1:
                continue
        offsets = rng.uniform(-0.03, 0.03, m)
        pot = CConcavePotential(pts, offsets, p, R)
        if pot.max_active_distance(4096) <= R:
            return pot
    raise RuntimeError("could not draw a valid 2D potential")


def _random_rho_1d(rng: np.random.Generator, dom: Domain) -> tuple[Measure1D, float]:
    """Random interval mixture on [-1/2, 1/2] with its exact density sup."""
    for _ in range(200):
        k = int(rng.integers(1, 3))
        pts = np.sort(rng.uniform(-0.5, 0.5, 2 * k))
        lens = pts[1::2] - pts[0::2]
        if lens.min() < 0.05:
            continue
        raw = lens * rng.uniform(0.5, 1.5, k)
        masses = raw / raw.sum()
        intervals = [(float(pts[2 * i]), float(pts[2 * i + 1]), float(masses[i]))
                     for i in range(k)]
        density_sup = float((masses / lens).max())
        return Measure1D.from_pieces(dom, intervals), density_sup
    raise RuntimeError("could not draw a 1D source density")


def _collapse_perturbation(rng: np.random.Generator, rho: Measure1D,
                           dom: Domain) -> tuple[Measure1D, float]:
    """Collapse a centered sub-block of one interval into an atom."""
    iv = rho.intervals
    j = int(rng.integers(0, len(iv)))
    lo, hi, mass = iv[j]
    length = hi - lo
    den = mass / length
    frac = float(rng.uniform(0.1, 0.6))
    w = frac * length
    c = 0.5 * (lo + hi)
    new_iv = [tuple(row) for i, row in enumerate(iv) if i != j]
    new_iv += [(lo, c - w / 2.0, den * (c - w / 2.0 - lo)),
               (c + w / 2.0, hi, den * (hi - c - w / 2.0))]
    atoms = [(c, den * w)]
    return Measure1D.from_pieces(dom, sorted(new_iv), atoms), w


def _audit_row(cfg: SweepConfig, dim: int, kind: int, eps: float, c: float,
               w_in: float, w_inf: float, w_out: float, /, **instance) -> list[float]:
    """The report row of one audit instance, checked against both bounds:
    NaN raises RuntimeError and a violation BoundViolationError, each with
    one dump, the instance fields plus the keys common to every kind."""
    bound_r, bound_inf = _bounds(cfg, c, w_in, w_inf)
    dump = {**instance, "dim": dim, "kind": kind, "p": cfg.p, "q": cfg.q, "r": cfg.r,
            "w_in": w_in, "w_inf": w_inf, "w_out": w_out,
            "bound_r": bound_r, "bound_inf": bound_inf, "seed": cfg.seed}
    if any(math.isnan(v) for v in (w_out, bound_r, bound_inf)):
        raise RuntimeError("NaN in audit instance:\n"
                           + json.dumps(dump, sort_keys=True, default=_json_default))
    for form, bound in (("rate", bound_r), ("sup", bound_inf)):
        if w_out > bound:
            raise BoundViolationError(
                f"{form}-form stability bound violated: {w_out!r} > {bound!r}", dump)
    return [float(dim), float(kind), eps, w_in, w_out, bound_r, w_inf, bound_inf]


def _audit_one_1d(rng: np.random.Generator, cfg: SweepConfig,
                  kind: int) -> list[float]:
    dom = Domain.ball(np.zeros(1), 1.0)
    pot = _random_valid_potential_1d(rng, cfg.p)
    rho, density_sup = _random_rho_1d(rng, dom)
    if kind == 0:
        rho_t, eps = rho, 0.0
    elif kind == 1:
        rho_t, eps = _collapse_perturbation(rng, rho, dom)
    else:
        cells = int(rng.integers(50, 400))
        rho_t = Measure1D.from_discrete(discretize(rho, cells))
        eps = 1.0 / cells
    w_in = wasserstein_1d(rho, rho_t, cfg.r)
    w_inf = wasserstein_1d(rho, rho_t, math.inf)
    img = Measure1D.from_discrete(pushforward_measure1d(pot, rho))
    img_t = Measure1D.from_discrete(pushforward_measure1d(pot, rho_t))
    w_out = wasserstein_1d(img, img_t, cfg.q)
    c = stability_constant(1, cfg.p, cfg.q, 1.0, density_sup)
    return _audit_row(cfg, 1, kind, eps, c, w_in, w_inf, w_out,
                      atoms=pot.atoms, offsets=pot.offsets,
                      rho_intervals=rho.intervals, rho_atoms=rho.atoms,
                      pert_intervals=rho_t.intervals, pert_atoms=rho_t.atoms)


def _jitter_into_ball(rng: np.random.Generator, points: np.ndarray,
                      scale: float) -> np.ndarray:
    pts = points + rng.uniform(-scale, scale, points.shape)
    norms = np.linalg.norm(pts, axis=1)
    over = norms > 1.0
    if over.any():
        pts[over] *= ((1.0 - 1e-12) / norms[over])[:, None]
    return pts


def _audit_one_2d(rng: np.random.Generator, cfg: SweepConfig, kind: int,
                  rho_d: DiscreteMeasure, h: float) -> list[float]:
    pot = _random_valid_potential_2d(rng, cfg.p)
    if kind == 0:
        rho_t, eps = rho_d, 0.0
    else:
        scale = float(rng.uniform(0.1, 0.45)) * h / 2.0
        pts = _jitter_into_ball(rng, rho_d.points, scale)
        rho_t = DiscreteMeasure(pts, rho_d.weights.copy(), rho_d.domain)
        eps = scale
    w_in = wasserstein(rho_d, rho_t, cfg.r)
    w_inf = bottleneck_solve(rho_d, rho_t)[1]
    img = pushforward_tmap(pot, rho_d).image
    img_t = pushforward_tmap(pot, rho_t).image
    w_out = wasserstein(img, img_t, cfg.q)
    density_sup = 1.0 / unit_ball_volume(2)
    c = stability_constant(2, cfg.p, cfg.q, pot.R, density_sup)
    return _audit_row(cfg, 2, kind, eps, c, w_in, w_inf, w_out,
                      atoms=pot.atoms, offsets=pot.offsets, R=pot.R,
                      grid_step=h, jitter=eps)


def audit_stability_bound(cfg: SweepConfig) -> ExperimentReport:
    """Randomized audit of both stability inequalities.

    1D instances are exact: random valid potentials, random interval-mixture
    sources, perturbed either by collapsing a sub-block to an atom or by
    cell-center discretization; every distance is computed in closed form on
    quantile functions.  2D instances discretize the uniform ball density on
    a grid and jitter the cell centers; the O(h) discretization slack is
    negligible against the explicit constant: 1.4e8 in 1D at density bound
    M = 1 (1.5e9 at M = 20), 3.0e12 in 2D at p = q = 2 (3.1e13 at p = q = 3;
    R = 2).  The first instance of each dimension is the trivial
    identical-perturbation row (0 <= 0).  Any violation raises
    BoundViolationError with a full instance dump; NaN is a hard error.
    """
    _check_inequality_exponents(cfg, "stability")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for i in range(cfg.count_1d):
        kind = 0 if i == 0 else (1 if i % 2 else 2)
        rows.append(_audit_one_1d(rng, cfg, kind))
    if cfg.count_2d:
        res = cfg.grid or 24
        grid = uniform_grid(Domain.ball(np.zeros(2), 1.0), res)
        rho_d = DiscreteMeasure(grid.points, grid.weights, Domain.ball(np.zeros(2), 2.0))
        h = 2.0 / res
        for i in range(cfg.count_2d):
            rows.append(_audit_one_2d(rng, cfg, 0 if i == 0 else 3, rho_d, h))
    c = stability_constant(1, cfg.p, cfg.q, 1.0, 1.0)  # as in _atom_pinch_rows
    for eps, w_in, w_out, _, w_inf, _ in _atom_pinch_rows(cfg, cfg.eps_grid()).tolist():
        rows.append(_audit_row(cfg, 1, 4, eps, c, w_in, w_inf, w_out, eps=eps))
    return ExperimentReport(
        scenario="stability",
        columns=("dim", "kind", "eps", "w_in", "w_out", "bound_r",
                 "w_inf", "bound_inf"),
        rows=np.asarray(rows),
        constants={"p": cfg.p, "q": cfg.q, "r": cfg.r,
                   "exponent": holder_exponent(cfg.q, cfg.r)},
        metadata={"kinds": "0=identical 1=collapse 2=discretize "
                           "3=grid-jitter 4=atom-pinch family",
                  "count_1d": cfg.count_1d, "count_2d": cfg.count_2d,
                  "grid_2d": cfg.grid or 24},
    )


# ---------------------------------------------------------------------------
# singular-set suite
# ---------------------------------------------------------------------------

def _uniform_ball_points(rng: np.random.Generator, n: int, d: int,
                         radius: float) -> np.ndarray:
    out = np.empty((0, d))
    while len(out) < n:
        cand = rng.uniform(-radius, radius, (4 * n, d))
        cand = cand[np.linalg.norm(cand, axis=1) <= radius]
        out = np.vstack([out, cand])
    return out[:n]


def random_max_affine(rng: np.random.Generator, d: int, k: int,
                      lip_max: float, R: float) -> MaxAffineFunction:
    """Random max-affine function with every piece active somewhere in the
    R-ball.

    Slopes are uniform in the lip_max-ball (rejection sampling from the
    cube), kept pairwise separated.  Intercepts are rejection-sampled from a
    window around the paraboloid-tangent values -s|a_j|^2/2 (s = R/(2 lip));
    the window halves on repeated failure, and at width zero every piece is
    provably active: the winning regions are then the Voronoi cells of the
    sites s a_j, each of which contains its own site inside the R-ball.
    Before returning, activity is checked on a sample, not certified: every
    piece must be the first maximum at some point of a 169 x 169 grid
    clipped to the R-ball in 2D (4097 points in 1D).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    _require_positive(lip_max=lip_max, R=R)
    if d == 1:
        scan = np.linspace(-R, R, 4097)[:, None]
    elif d == 2:
        scan = _disc_grid(np.linspace(-R, R, 169), R * R)
    else:
        raise NotImplementedError("random max-affine scans cover d in {1, 2}")
    gap = 0.6 * lip_max / k
    for _ in range(300):
        slopes = _uniform_ball_points(rng, k, d, lip_max)
        if k > 1:
            dists = np.linalg.norm(slopes[:, None, :] - slopes[None, :, :], axis=-1)
            if (dists + 2.0 * gap * np.eye(k)).min() < gap:
                continue
        break
    else:
        raise RuntimeError("could not draw separated slopes")
    s = R / (2.0 * lip_max)
    anchor = -0.5 * s * (slopes ** 2).sum(axis=1)
    width = 0.25 * s * lip_max ** 2
    products = scan @ slopes.T
    for attempt in range(400):
        intercepts = anchor + rng.uniform(-width, width, k)
        if attempt == 399:
            intercepts = anchor
        winners = np.argmax(products + intercepts, axis=1)
        if np.bincount(winners, minlength=k).all():
            return MaxAffineFunction(slopes, intercepts)
        if attempt % 60 == 59:
            width *= 0.5
    raise RuntimeError("could not draw a max-affine with every piece active")


def run_singularity_suite(cfg: SweepConfig) -> ExperimentReport:
    """Covering equalities, exact integral ratios and randomized bound audits
    for singular sets of max-affine functions.

    Row kinds: 0 ladder covering count (value == bound-column == kink count),
    1 absolute-value integral ratio (value vs exact 8), 2 integral estimate
    vs bound, 3 covering count vs bound, 4 local diameter vs gradient
    integral.  Any value > bound marks the report failed.
    """
    rng = np.random.default_rng(cfg.seed)
    rows = []
    failures = []

    for n_kinks in (2, 4, 8, 16):
        for lip in (1.0, 3.0):
            ladder = kink_ladder(n_kinks, lip, 1.0)
            rep = covering_number_sigma(ladder, 1e-3, 2.0 * lip / n_kinks, 1.0)
            rows.append([0.0, 1.0, float(n_kinks), lip, 1e-3,
                         float(rep.count), float(n_kinks)])
            if rep.count != n_kinks:
                failures.append(f"ladder covering count {rep.count} != {n_kinks} "
                                f"(lip={lip!r})")

    f_abs = MaxAffineFunction(np.array([[-1.0], [1.0]]), np.zeros(2))
    for eta in (0.1, 0.05, 0.025):
        est = integral_diam_estimate(f_abs, eta, 2.0, 1.0)
        ratio = est.estimate / eta
        rows.append([1.0, 1.0, ratio, 8.0, eta, est.estimate, est.bound])
        if abs(ratio - 8.0) > 1e-6:
            failures.append(f"absolute-value ratio {ratio!r} != 8 at eta={eta!r}")

    q_cycle = (1.5, 2.0, 3.0)
    for i in range(100):
        k = int(rng.integers(2, 9))
        f = random_max_affine(rng, 1, k, 3.0, 1.0)
        eta = float(np.exp(rng.uniform(math.log(2e-3), math.log(0.2))))
        q = q_cycle[i % 3]
        est = integral_diam_estimate(f, eta, q, 1.0)
        rows.append([2.0, 1.0, float(k), q, eta, est.estimate, est.bound])
        if est.estimate > est.bound:
            failures.append(f"1D integral estimate above bound (k={k}, eta={eta!r})")
    for i in range(20):
        k = int(rng.integers(3, 7))
        f = random_max_affine(rng, 2, k, 3.0, 1.0)
        eta = float(rng.uniform(0.05, 0.2))
        q = q_cycle[i % 3]
        est = integral_diam_estimate(f, eta, q, 1.0)
        rows.append([2.0, 2.0, float(k), q, eta, est.estimate, est.bound])
        if est.estimate > est.bound:
            failures.append(f"2D integral estimate above bound (k={k}, eta={eta!r})")

    for _ in range(20):
        k = int(rng.integers(3, 7))
        f = random_max_affine(rng, 2, k, 3.0, 1.0)
        eta = float(rng.uniform(0.05, 0.15))
        alpha = float(rng.uniform(0.2, 1.5)) * f.lip
        rep = covering_number_sigma(f, eta, alpha, 1.0)
        rows.append([3.0, 2.0, float(k), alpha, eta, float(rep.count), rep.bound])
        if rep.count > rep.bound:
            failures.append(f"covering count above bound (k={k}, eta={eta!r})")

    for _ in range(100):
        k = int(rng.integers(2, 7))
        f = random_max_affine(rng, 2, k, 3.0, 1.0)
        eta = float(rng.uniform(0.05, 0.3))
        x = _uniform_ball_points(rng, 1, 2, 0.8)[0]
        lhs, rhs = verify_lemma_diam_l1(f, x, eta)
        rows.append([4.0, 2.0, float(k), 0.0, eta, lhs, rhs])
        if lhs > rhs:
            failures.append(f"local diameter above gradient integral "
                            f"(k={k}, eta={eta!r})")

    return ExperimentReport(
        scenario="singularity",
        columns=("kind", "dim", "a", "b", "eta", "value", "bound"),
        rows=np.asarray(rows),
        constants={},
        metadata={"kinds": "0=ladder-count 1=abs-ratio 2=integral "
                           "3=covering 4=local-diam"},
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# interpolation figure pipeline
# ---------------------------------------------------------------------------

def _pixel_cloud(lo: float, hi: float, dy: float, center, r_in: float,
                 r_out: float) -> np.ndarray:
    """Points of the step-0.02 grid ``ax x (ax + dy)``, ax from lo to hi,
    at distance r_in to r_out from ``center``."""
    step = 0.02
    ax = np.arange(lo, hi + step / 2.0, step)
    gx, gy = np.meshgrid(ax, ax + dy, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    d = np.linalg.norm(pts - np.array(center), axis=1)
    return pts[(d >= r_in) & (d <= r_out)]


def _integer_count_weights(k: int, n_cells: int) -> np.ndarray:
    if k > n_cells:  # an atom with no cell would get weight 0 and be dropped
        raise ValueError(f"figure target of {k} atoms needs at least {k} grid "
                         f"cells, got {n_cells}")
    counts = np.full(k, n_cells // k, dtype=float)
    counts[: n_cells % k] += 1.0
    return counts / n_cells


def _load_figure_target(path: str, n_cells: int) -> DiscreteMeasure:
    try:
        with open(path) as fh:
            m = measure_from_json(json.load(fh))
        if m.dim != 2:
            raise ValueError("need a 2D discrete measure")
    except ValueError as e:
        raise ValueError(f"malformed figure target {path!r}: {e}") from None
    return DiscreteMeasure(m.points, _integer_count_weights(len(m.points), n_cells),
                           m.domain)


def _write_svg(path: str, m: DiscreteMeasure) -> None:
    size = 480
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="#ffffff"/>']
    for (x, y), w in zip(m.points, m.weights):
        r = 1.5 + 40.0 * math.sqrt(w)
        lines.append(f'<circle cx="{size * x!r}" cy="{size * (1.0 - y)!r}" '
                     f'r="{r!r}" fill="#2563eb" fill-opacity="0.75"/>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_figure1(cfg: SweepConfig) -> ExperimentReport:
    """Interpolation between two pixel-cloud targets over a common uniform
    grid source.

    Both targets are coupled exactly to the grid (unit-fraction weights make
    the plan an assignment).  A target file given in ``targets`` contributes
    only its points and domain: its weights are replaced by near-uniform
    integer counts of the grid cells, as for the built-in clouds, so that
    the fit stays an exact assignment.  The resulting potentials are blended at
    t in {0, 1/4, 1/2, 3/4, 1}, and each interpolant is written as CSV and
    SVG next to a JSON manifest.  The report records, per t, the distance
    from the t=0 interpolant, the support size and the mass defect; endpoint
    residuals against the raw targets are checked against twice the grid
    cell diagonal.
    """
    out_dir = cfg.out or "figure1_out"
    os.makedirs(out_dir, exist_ok=True)
    res = cfg.grid or 70
    box = Domain.box([0.0, 0.0], [1.0, 1.0])
    rho = uniform_grid(box, res)
    n_cells = len(rho.points)
    if cfg.targets:
        if len(cfg.targets) != 2:
            raise ValueError("figure1 needs exactly two target files")
        targets = [_load_figure_target(t, n_cells) for t in cfg.targets]
    else:
        clouds = (_pixel_cloud(0.16, 0.44, 0.32, (0.30, 0.62), 0.0, 0.12),
                  _pixel_cloud(0.50, 0.86, -0.30, (0.68, 0.38), 0.10, 0.17))
        targets = [DiscreteMeasure(c, _integer_count_weights(len(c), n_cells), box)
                   for c in clouds]
    phis = [potential_from_discrete_ot(rho, t) for t in targets]

    ts = (0.0, 0.25, 0.5, 0.75, 1.0)
    interpolants = [lot_interpolant(phis[0], phis[1], t, rho) for t in ts]
    cell_diag = math.sqrt(2.0) / res
    res_start = wasserstein(interpolants[0], targets[0], 2.0)
    res_end = wasserstein(interpolants[-1], targets[1], 2.0)
    failures = []
    if res_start > 2.0 * cell_diag:
        failures.append(f"start endpoint residual {res_start!r} above "
                        f"{2.0 * cell_diag!r}")
    if res_end > 2.0 * cell_diag:
        failures.append(f"end endpoint residual {res_end!r} above "
                        f"{2.0 * cell_diag!r}")

    manifest: dict = {"scenario": "figure1", "grid": res, "ts": list(ts),
                      "files": {}}
    rows = []
    for t, mu in zip(ts, interpolants):
        stem = f"mu_t{t:.2f}"
        csv_path = os.path.join(out_dir, stem + ".csv")
        svg_path = os.path.join(out_dir, stem + ".svg")
        mu.to_csv(csv_path)
        _write_svg(svg_path, mu)
        manifest["files"][f"{t:.2f}"] = {"csv": stem + ".csv",
                                         "svg": stem + ".svg"}
        w2 = wasserstein(mu, interpolants[0], 2.0)
        rows.append([t, w2, float(len(mu.points)),
                     abs(float(mu.weights.sum()) - 1.0)])
    manifest["checks"] = {"cell_diagonal": cell_diag,
                          "endpoint_residual_start": res_start,
                          "endpoint_residual_end": res_end,
                          "w2_from_start": [row[1] for row in rows]}
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")

    return ExperimentReport(
        scenario="figure1",
        columns=("t", "w2_from_start", "atoms", "mass_defect"),
        rows=np.asarray(rows),
        constants={"grid": res, "cell_diagonal": cell_diag},
        metadata={"out_dir": out_dir, "manifest": manifest_path,
                  "endpoint_residual_start": res_start,
                  "endpoint_residual_end": res_end},
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# qualitative demo
# ---------------------------------------------------------------------------

def run_demo(cfg: SweepConfig) -> ExperimentReport:
    """Small stochastic gallery: random valid potentials pushed forward under
    two different singular-point policies.  Qualitative only -- the report
    records the policy gap per instance and always passes."""
    rng = np.random.default_rng(cfg.seed)
    dom = Domain.ball(np.zeros(1), 1.0)
    grid = cfg.grid or 512
    rows = []
    for i in range(5):
        pot = _random_valid_potential_1d(rng, cfg.p)
        rho, _ = _random_rho_1d(rng, dom)
        rho_d = discretize(rho, grid)
        # pin one source atom exactly on a cell boundary so the singular
        # selection is actually exercised
        cuts = [c for c in pot._cells_1d[1] if abs(c) < 1.0]
        pts, wts = rho_d.points, rho_d.weights
        if cuts:
            pts = np.vstack([pts, [[cuts[0]]]])
            wts = np.concatenate([wts * (1.0 - 0.05), [0.05]])
        rho_d = DiscreteMeasure(pts, wts, dom)
        a = pushforward_tmap(pot, rho_d, SelectionPolicy.min_norm())
        b = pushforward_tmap(pot, rho_d, SelectionPolicy.max_first_coordinate())
        gap = wasserstein(a.image, b.image, 2.0)
        rows.append([float(i), float(len(pot.atoms)),
                     float(a.singular_hits), gap])
    return ExperimentReport(
        scenario="demo",
        columns=("instance", "atoms", "singular_hits", "policy_gap_w2"),
        rows=np.asarray(rows),
        metadata={"note": "qualitative demo; no quantitative gate"},
    )
