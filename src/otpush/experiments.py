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

from .convex_analysis import (MaxAffineFunction, covering_number_sigma,
                              integral_diam_estimate, kink_ladder,
                              verify_lemma_diam_l1)
from .discrete_ot import bottleneck_solve, wasserstein
from .geometry_measures import (DiscreteMeasure, Domain, GridDensity,
                                Measure1D, discretize, measure_from_json,
                                unit_ball_volume, wasserstein_1d)
from .pcost_maps import CConcavePotential
from .pushforward import (SelectionPolicy, lot_interpolant,
                          potential_from_discrete_ot, pushforward_tmap)

_SCENARIOS = ("example", "rate", "stability", "singularity", "figure1", "demo")
_EXAMPLE_IDS = ("1.2", "1.3", "1.4")


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
    """Configuration shared by every scenario driver.

    ``eps`` left empty means "use the scenario default grid"; any provided
    epsilon must lie in (0, 1/2).  ``grid`` of 0 means the scenario default
    resolution.  For the rate and stability scenarios the exponents must
    satisfy q > p - 1 and r > 1 (the hypotheses of the inequality being
    exercised).  Types are checked: integers and real exponents (no bools),
    lists for ``eps`` and ``targets`` (not strings), a path or None for ``out``.
    """

    scenario: str = "rate"
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
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"expected one of {_SCENARIOS}")
        for name in ("grid", "seed", "count_1d", "count_2d", "p", "q", "r"):
            v = getattr(self, name)
            kind = numbers.Real if name in ("p", "q", "r") else numbers.Integral
            if isinstance(v, bool) or not isinstance(v, kind):
                raise TypeError(f"{name} must be {kind.__name__.lower()}, got {v!r}")
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
        if self.scenario in ("rate", "stability"):
            if not self.q > self.p - 1.0:
                raise ValueError(
                    f"scenario {self.scenario!r} needs q > p - 1, "
                    f"got q={self.q}, p={self.p}")
            if not self.r > 1.0:
                raise ValueError(f"scenario {self.scenario!r} needs r > 1, got r={self.r}")
        if self.grid < 0:
            raise ValueError("grid resolution must be nonnegative")
        if self.count_1d < 1 or self.count_2d < 0:
            raise ValueError("need count_1d >= 1 and count_2d >= 0")

    def eps_grid(self, default: tuple[float, ...] = _EPS_DEFAULT) -> tuple[float, ...]:
        return tuple(sorted(self.eps)) if self.eps else tuple(sorted(default))


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
    passed: bool = True
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

def _piece_crossing(pot: CConcavePotential, i: int, j: int) -> float:
    """Abscissa where piece j overtakes piece i (atom_i < atom_j).

    Left of the crossing piece i has the smaller value, right of it piece j.
    Exact for quadratic cost; bisection to float precision otherwise (the
    piece difference is strictly increasing, so the root is unique).
    """
    a = float(pot.atoms[i, 0])
    b = float(pot.atoms[j, 0])
    pa = float(pot.offsets[i])
    pb = float(pot.offsets[j])
    if not b > a:
        raise ValueError("crossing needs strictly increasing atoms")
    if pot.p == 2.0:
        return (b * b - a * a + pa - pb) / (2.0 * (b - a))

    def g(x: float) -> float:
        return (abs(x - a) ** pot.p - pa) - (abs(x - b) ** pot.p - pb)

    lo, hi = a - 1.0, b + 1.0
    span = hi - lo
    for _ in range(80):
        if g(lo) < 0.0:
            break
        lo -= span
        span *= 2.0
    span = hi - lo
    for _ in range(80):
        if g(hi) > 0.0:
            break
        hi += span
        span *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _laguerre_cells_1d(pot: CConcavePotential) -> tuple[list[int], list[float]]:
    """Lower envelope of the potential's pieces on the line.

    Returns (active piece indices left to right, cut abscissae between
    consecutive active pieces).  Atoms must be strictly increasing.
    """
    a = pot.atoms[:, 0]
    if pot.dim != 1:
        raise ValueError("Laguerre cells on the line need a 1D potential")
    if not (np.diff(a) > 0.0).all():
        raise ValueError("atoms must be strictly increasing")
    active = [0]
    cuts: list[float] = []
    for j in range(1, a.size):
        x = _piece_crossing(pot, active[-1], j)
        while cuts and x <= cuts[-1]:
            active.pop()
            cuts.pop()
            if not active:
                break
            x = _piece_crossing(pot, active[-1], j)
        if active:
            active.append(j)
            cuts.append(float(x))
        else:
            active = [j]
            cuts = []
    return active, cuts


def pushforward_measure1d(pot: CConcavePotential, m: Measure1D) -> DiscreteMeasure:
    """Exact pushforward of a 1D mixed measure through the transport map.

    Interval mass is split across Laguerre cells by exact overlap integrals;
    an atom sitting exactly on a cell boundary (a singular point of the map)
    is sent to the right cell -- one fixed measurable selection of the
    optimal map.
    """
    active, cuts = _laguerre_cells_1d(pot)
    carr = np.asarray(cuts, dtype=float)
    bounds = np.concatenate([[-np.inf], carr, [np.inf]])
    masses = np.zeros(len(active))
    for lo, hi, mass in m.intervals:
        den = mass / (hi - lo)
        left = np.maximum(lo, bounds[:-1])
        right = np.minimum(hi, bounds[1:])
        masses += den * np.maximum(right - left, 0.0)
    for x, mass in m.atoms:
        idx = int(np.searchsorted(carr, x, side="right"))
        masses[idx] += mass
    pts = pot.atoms[np.asarray(active, dtype=int)]
    keep = masses > 0.0
    return DiscreteMeasure(pts[keep], masses[keep],
                           Domain.ball(np.zeros(1), pot.R))


# ---------------------------------------------------------------------------
# closed-form example families
# ---------------------------------------------------------------------------

def _sign_potential(p: float, R: float = 1.0) -> CConcavePotential:
    """Potential whose transport map is sign(x): atoms at -1 and +1."""
    return CConcavePotential(np.array([[-1.0], [1.0]]), np.zeros(2), p, R)


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
        passed=bool(w_out == 2.0),
        failures=() if w_out == 2.0 else (f"two-selection gap {w_out!r} != 2.0",),
    )


def _example_13(cfg: SweepConfig) -> ExperimentReport:
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
        bound = c * w_in ** expo
        rho_d = discretize(rho, grid)
        w_in_grid = wasserstein(rho_d, dirac_dm, cfg.r)
        img_grid = pushforward_tmap(pot, rho_d).image
        w_out_grid = wasserstein(img_grid, img_dirac, cfg.q)
        if abs(w_in_grid - w_in) > 1e-3:
            failures.append(f"grid input distance off at eps={eps!r}: "
                            f"{w_in_grid!r} vs {w_in!r}")
        if abs(w_out_grid - w_out) > 1e-3:
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
        passed=not failures,
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
    expo = holder_exponent(cfg.q, cfg.r)
    rows = []
    for eps in eps_grid:
        pinched = Measure1D.lebesgue_on(
            dom, [(-0.5, -eps / 2.0), (eps / 2.0, 0.5)], [(0.0, eps)])
        w_in = wasserstein_1d(base, pinched, cfg.r)
        w_inf = wasserstein_1d(base, pinched, math.inf)
        img = Measure1D.from_discrete(pushforward_measure1d(pot, pinched))
        w_out = wasserstein_1d(img_base, img, cfg.q)
        rows.append([eps, w_in, w_out, c * w_in ** expo,
                     w_inf, c * w_inf ** (1.0 / cfg.q)])
    return np.asarray(rows)


def _example_14(cfg: SweepConfig) -> ExperimentReport:
    rows = _atom_pinch_rows(cfg, cfg.eps_grid())
    slope, stderr = fit_loglog(rows[:, 1], rows[:, 2])
    expo = holder_exponent(cfg.q, cfg.r)
    failures = []
    if (rows[:, 2] > rows[:, 3]).any():
        failures.append("rate-form bound violated")
    if (rows[:, 2] > rows[:, 5]).any():
        failures.append("sup-form bound violated")
    return ExperimentReport(
        scenario="example-1.4",
        columns=("eps", "w_in", "w_out", "bound", "w_inf", "bound_inf"),
        rows=rows,
        constants={"p": cfg.p, "q": cfg.q, "r": cfg.r,
                   "c": stability_constant(1, cfg.p, cfg.q, 1.0, 1.0),
                   "target_exponent": expo},
        metadata={"family": "uniform density with an eps block pinched to "
                            "a midpoint atom; the map is sign(x)"},
        passed=not failures,
        failures=tuple(failures),
        slope=slope,
        slope_stderr=stderr,
    )


def run_example(example_id: str, cfg: SweepConfig | None = None) -> ExperimentReport:
    """Run one closed-form example family ("1.2", "1.3" or "1.4")."""
    if example_id not in _EXAMPLE_IDS:
        raise ValueError(f"unknown example id {example_id!r}; "
                         f"expected one of {_EXAMPLE_IDS}")
    cfg = cfg or SweepConfig(scenario="example")
    if cfg.scenario != "example":
        raise ValueError("run_example needs an 'example' scenario config")
    runner = {"1.2": _example_12, "1.3": _example_13, "1.4": _example_14}
    return runner[example_id](cfg)


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
    if cfg.scenario != "rate":
        raise ValueError("fit_holder_rate needs a 'rate' scenario config")
    eps_grid = cfg.eps_grid()
    if len(eps_grid) < 5:
        raise ValueError("rate fit needs at least five epsilon points")
    if eps_grid[-1] / eps_grid[0] < 99.999:
        raise ValueError("rate fit needs an epsilon grid spanning two decades")
    rows = _atom_pinch_rows(cfg, eps_grid)
    w_in, w_out = rows[:, 1], rows[:, 2]
    if np.unique(w_in).size < w_in.size:
        raise ValueError("degenerate epsilon grid: duplicate input distances")
    keep = w_in <= 0.1
    excluded = int((~keep).sum())
    if keep.sum() < 2:
        raise ValueError("too few sweep points below the asymptotic cutoff")
    slope, stderr = fit_loglog(w_in[keep], w_out[keep])
    expo = holder_exponent(cfg.q, cfg.r)
    failures = []
    if (rows[:, 2] > rows[:, 3]).any():
        failures.append("rate-form bound violated")
    if (rows[:, 2] > rows[:, 5]).any():
        failures.append("sup-form bound violated")
    return ExperimentReport(
        scenario="rate",
        columns=("eps", "w_in", "w_out", "bound", "w_inf", "bound_inf"),
        rows=rows,
        constants={"p": cfg.p, "q": cfg.q, "r": cfg.r,
                   "c": stability_constant(1, cfg.p, cfg.q, 1.0, 1.0),
                   "target_exponent": expo},
        metadata={"excluded_points": excluded,
                  "exclusion_rule": "drop rows with w_in > 0.1 (= R/10)",
                  "slope_abs_error": abs(slope - expo)},
        passed=not failures,
        failures=tuple(failures),
        slope=slope,
        slope_stderr=stderr,
    )


# ---------------------------------------------------------------------------
# randomized stability audits
# ---------------------------------------------------------------------------

def _random_valid_potential_1d(rng: np.random.Generator, p: float, R: float,
                               max_atoms: int = 5) -> CConcavePotential:
    """Random Laguerre-form potential whose active differences stay in the
    R-ball (so the cost's Lipschitz/concavity constants genuinely apply)."""
    for _ in range(500):
        m = int(rng.integers(2, max_atoms + 1))
        atoms = np.sort(rng.uniform(-0.85 * R, 0.85 * R, m))
        if atoms[0] > 0.0 or atoms[-1] < 0.0 or np.diff(atoms).min() < 0.05 * R:
            continue
        offsets = rng.uniform(-0.03, 0.03, m) * R ** p
        pot = CConcavePotential(atoms[:, None], offsets, p, R)
        if pot.max_active_distance(2049) <= R:
            return pot
    raise RuntimeError("could not draw a valid 1D potential")


def _random_valid_potential_2d(rng: np.random.Generator, p: float,
                               max_atoms: int = 6) -> CConcavePotential:
    """Random planar Laguerre-form potential, checked on the 2-ball.

    Atoms lie in the 0.6-ball, at least 0.1 apart, with offsets in +-0.03.
    Nothing bounds the active differences by construction: a point near the
    rim of the R = 2 ball can be up to 2.6 from its active atom.  So a draw
    is kept only when ``max_active_distance`` finds every |x - y_active(x)|
    <= R at the points of a 64 x 64 grid that lie in that ball (a sample,
    not a certificate); a rejected draw is drawn again, up to 500 times.
    """
    R = 2.0
    for _ in range(500):
        m = int(rng.integers(2, max_atoms + 1))
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


def _check_finite(dump: dict, *values: float) -> None:
    for v in values:
        if math.isnan(v):
            raise RuntimeError("NaN in audit instance:\n"
                               + json.dumps(dump, sort_keys=True,
                                            default=_json_default))


def _audit_check(w_out: float, bound_r: float, bound_inf: float,
                 dump: dict) -> None:
    _check_finite(dump, w_out, bound_r, bound_inf)
    if w_out > bound_r:
        raise BoundViolationError(
            f"rate-form stability bound violated: {w_out!r} > {bound_r!r}", dump)
    if w_out > bound_inf:
        raise BoundViolationError(
            f"sup-form stability bound violated: {w_out!r} > {bound_inf!r}", dump)


def _audit_one_1d(rng: np.random.Generator, cfg: SweepConfig,
                  kind: int) -> list[float]:
    dom = Domain.ball(np.zeros(1), 1.0)
    pot = _random_valid_potential_1d(rng, cfg.p, 1.0)
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
    bound_r = c * w_in ** holder_exponent(cfg.q, cfg.r)
    bound_inf = c * w_inf ** (1.0 / cfg.q)
    dump = {"dim": 1, "kind": kind, "p": cfg.p, "q": cfg.q, "r": cfg.r,
            "atoms": pot.atoms, "offsets": pot.offsets,
            "rho_intervals": rho.intervals, "rho_atoms": rho.atoms,
            "pert_intervals": rho_t.intervals, "pert_atoms": rho_t.atoms,
            "w_in": w_in, "w_inf": w_inf, "w_out": w_out,
            "bound_r": bound_r, "bound_inf": bound_inf, "seed": cfg.seed}
    _audit_check(w_out, bound_r, bound_inf, dump)
    return [1.0, float(kind), eps, w_in, w_out, bound_r, w_inf, bound_inf]


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
    bound_r = c * w_in ** holder_exponent(cfg.q, cfg.r)
    bound_inf = c * w_inf ** (1.0 / cfg.q)
    dump = {"dim": 2, "kind": kind, "p": cfg.p, "q": cfg.q, "r": cfg.r,
            "atoms": pot.atoms, "offsets": pot.offsets, "R": pot.R,
            "grid_step": h, "jitter": eps,
            "w_in": w_in, "w_inf": w_inf, "w_out": w_out,
            "bound_r": bound_r, "bound_inf": bound_inf, "seed": cfg.seed}
    _audit_check(w_out, bound_r, bound_inf, dump)
    return [2.0, float(kind), eps, w_in, w_out, bound_r, w_inf, bound_inf]


def audit_stability_bound(cfg: SweepConfig) -> ExperimentReport:
    """Randomized audit of both stability inequalities.

    1D instances are exact: random valid potentials, random interval-mixture
    sources, perturbed either by collapsing a sub-block to an atom or by
    cell-center discretization; every distance is computed in closed form on
    quantile functions.  2D instances discretize the uniform ball density on
    a grid and jitter the cell centers; the O(h) discretization slack is
    negligible against the explicit constant (~1e8).  The first instance of
    each dimension is the trivial identical-perturbation row (0 <= 0).  Any
    violation raises BoundViolationError with a full instance dump; NaN is a
    hard error.
    """
    if cfg.scenario != "stability":
        raise ValueError("audit_stability_bound needs a 'stability' scenario config")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for i in range(cfg.count_1d):
        kind = 0 if i == 0 else (1 if i % 2 else 2)
        rows.append(_audit_one_1d(rng, cfg, kind))
    if cfg.count_2d:
        res = cfg.grid or 24
        gd = GridDensity.uniform(Domain.ball(np.zeros(2), 1.0), res)
        rho_d = discretize(gd)
        rho_d = DiscreteMeasure(rho_d.points, rho_d.weights,
                                Domain.ball(np.zeros(2), 2.0))
        h = 2.0 / res
        for i in range(cfg.count_2d):
            rows.append(_audit_one_2d(rng, cfg, 0 if i == 0 else 3, rho_d, h))
    for row in _atom_pinch_rows(cfg, cfg.eps_grid()):
        eps, w_in, w_out, bound_r, w_inf, bound_inf = row
        dump = {"dim": 1, "kind": 4, "eps": eps, "w_in": w_in, "w_out": w_out,
                "bound_r": bound_r, "bound_inf": bound_inf, "seed": cfg.seed}
        _audit_check(w_out, bound_r, bound_inf, dump)
        rows.append([1.0, 4.0, eps, w_in, w_out, bound_r, w_inf, bound_inf])
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
        passed=True,
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
    if k < 1 or lip_max <= 0 or R <= 0:
        raise ValueError("need k >= 1, lip_max > 0, R > 0")
    if d == 1:
        scan = np.linspace(-R, R, 4097)[:, None]
    elif d == 2:
        ax = np.linspace(-R, R, 169)
        gx, gy = np.meshgrid(ax, ax, indexing="ij")
        scan = np.column_stack([gx.ravel(), gy.ravel()])
        scan = scan[np.linalg.norm(scan, axis=1) <= R]
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
    if cfg.scenario != "singularity":
        raise ValueError("run_singularity_suite needs a 'singularity' scenario config")
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
        passed=not failures,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# interpolation figure pipeline
# ---------------------------------------------------------------------------

def _pixel_cloud_disc() -> np.ndarray:
    step = 0.02
    ax = np.arange(0.16, 0.44 + step / 2.0, step)
    gx, gy = np.meshgrid(ax, ax + 0.32, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    keep = np.linalg.norm(pts - np.array([0.30, 0.62]), axis=1) <= 0.12
    return pts[keep]


def _pixel_cloud_ring() -> np.ndarray:
    step = 0.02
    ax = np.arange(0.50, 0.86 + step / 2.0, step)
    gx, gy = np.meshgrid(ax, ax - 0.30, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    d = np.linalg.norm(pts - np.array([0.68, 0.38]), axis=1)
    return pts[(d >= 0.10) & (d <= 0.17)]


def _integer_count_weights(k: int, n_cells: int) -> np.ndarray:
    counts = np.full(k, n_cells // k, dtype=float)
    counts[: n_cells % k] += 1.0
    return counts / n_cells


def _load_figure_target(path: str, n_cells: int) -> DiscreteMeasure:
    with open(path) as fh:
        doc = json.load(fh)
    m = measure_from_json(doc)
    if not isinstance(m, DiscreteMeasure) or m.dim != 2:
        raise ValueError(f"malformed figure target {path!r}: "
                         "need a 2D discrete measure")
    return DiscreteMeasure(m.points, _integer_count_weights(len(m.points), n_cells),
                           m.domain)


def _write_svg(path: str, m: DiscreteMeasure, size: int = 480) -> None:
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
    the plan an assignment), the resulting potentials are blended at
    t in {0, 1/4, 1/2, 3/4, 1}, and each interpolant is written as CSV and
    SVG next to a JSON manifest.  The report records, per t, the distance
    from the t=0 interpolant, the support size and the mass defect; endpoint
    residuals against the raw targets are checked against twice the grid
    cell diagonal.
    """
    if cfg.scenario != "figure1":
        raise ValueError("run_figure1 needs a 'figure1' scenario config")
    out_dir = cfg.out or "figure1_out"
    os.makedirs(out_dir, exist_ok=True)
    res = cfg.grid or 70
    box = Domain.box([0.0, 0.0], [1.0, 1.0])
    rho = discretize(GridDensity.uniform(box, res))
    n_cells = len(rho.points)
    if cfg.targets:
        if len(cfg.targets) != 2:
            raise ValueError("figure1 needs exactly two target files")
        targets = [_load_figure_target(t, n_cells) for t in cfg.targets]
    else:
        clouds = (_pixel_cloud_disc(), _pixel_cloud_ring())
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
        passed=not failures,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# qualitative demo
# ---------------------------------------------------------------------------

def run_demo(cfg: SweepConfig) -> ExperimentReport:
    """Small stochastic gallery: random valid potentials pushed forward under
    two different singular-point policies.  Qualitative only -- the report
    records the policy gap per instance and always passes."""
    if cfg.scenario != "demo":
        raise ValueError("run_demo needs a 'demo' scenario config")
    rng = np.random.default_rng(cfg.seed)
    dom = Domain.ball(np.zeros(1), 1.0)
    grid = cfg.grid or 512
    rows = []
    for i in range(5):
        pot = _random_valid_potential_1d(rng, cfg.p, 1.0)
        rho, _ = _random_rho_1d(rng, dom)
        rho_d = discretize(rho, grid)
        # pin one source atom exactly on a cell boundary so the singular
        # selection is actually exercised
        cuts = [c for c in _laguerre_cells_1d(pot)[1] if abs(c) < 1.0]
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
        passed=True,
    )
