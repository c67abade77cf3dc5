"""Measure representations on bounded domains and exact 1D Wasserstein distances.

Measures come in two concrete forms:

* :class:`DiscreteMeasure` — weighted point cloud in R^d; ``uniform_grid``
  builds the uniform one on a grid's cell centers.
* :class:`Measure1D` — mixture of piecewise-constant densities on disjoint
  intervals plus atoms; its piecewise-linear quantile function gives exact
  Wasserstein distances of every order r in (1, inf].

All types are immutable after construction and carry their :class:`Domain`;
mixing measures from different domains is an error because the stability
constants downstream depend on the domain radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "DiscreteMeasure",
    "Measure1D",
    "wasserstein_1d",
    "discretize",
    "uniform_grid",
    "measure_from_json",
    "unit_ball_volume",
]

_MASS_TOL = 1e-12


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d (2 for d=1, pi for d=2)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """Ball B(center, radius) or axis-aligned box [lo, hi]."""

    kind: str
    center: np.ndarray | None = None
    radius: float | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "ball":
            c = np.atleast_1d(np.asarray(self.center, dtype=float))
            object.__setattr__(self, "center", c)
            if self.radius is None or not (0.0 < self.radius < math.inf and np.isfinite(c).all()):
                raise ValueError("ball needs a finite center and a positive finite radius")
        elif self.kind == "box":
            lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
            hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
            if lo.shape != hi.shape or not ((lo < hi) & np.isfinite(lo) & np.isfinite(hi)).all():
                raise ValueError("box requires finite lo < hi componentwise")
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")

    @staticmethod
    def ball(center, radius: float) -> "Domain":
        return Domain(kind="ball", center=np.asarray(center, dtype=float), radius=float(radius))

    @staticmethod
    def box(lo, hi) -> "Domain":
        return Domain(kind="box", lo=np.asarray(lo, dtype=float), hi=np.asarray(hi, dtype=float))

    @property
    def dim(self) -> int:
        return self.center.shape[0] if self.kind == "ball" else self.lo.shape[0]

    def contains(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "ball":
            return np.linalg.norm(pts - self.center, axis=1) <= self.radius + tol
        return ((pts >= self.lo - tol) & (pts <= self.hi + tol)).all(axis=1)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "ball":
            return self.center - self.radius, self.center + self.radius
        return self.lo.copy(), self.hi.copy()

    def interval(self) -> tuple[float, float]:
        """1D extent; errors for d > 1."""
        if self.dim != 1:
            raise ValueError("interval() requires a 1D domain")
        lo, hi = self.bounding_box()
        return float(lo[0]), float(hi[0])

    def __eq__(self, other):
        if not isinstance(other, Domain) or self.kind != other.kind:
            return False
        if self.kind == "ball":
            return bool(np.array_equal(self.center, other.center) and self.radius == other.radius)
        return bool(np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi))

    @staticmethod
    def from_dict(spec: dict) -> "Domain":
        kind = spec.get("kind") if isinstance(spec, dict) else None
        if kind == "ball":
            return Domain.ball(_array(spec, "domain", "center", (None,)),
                               float(_array(spec, "domain", "radius", ())))
        if kind == "box":
            return Domain.box(_array(spec, "domain", "lo", (None,)),
                              _array(spec, "domain", "hi", (None,)))
        raise ValueError(f"malformed domain literal: {spec!r}")


def _array(doc: dict, what: str, name: str, shape: tuple) -> np.ndarray:
    """Field ``name`` of a JSON literal as an array of JSON numbers of
    ``shape``, where None matches any length, or ValueError naming the field
    when it is missing or not such an array.  An empty list is an empty list
    of rows."""
    if name not in doc:
        raise ValueError(f"{what} literal has no {name!r} field")
    try:
        arr = np.asarray(doc[name])
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if len(shape) == 2 and arr.shape == (0,):
        arr = arr.reshape(0, shape[1])
    if (arr.dtype.kind not in "iuf" or arr.ndim != len(shape)
            or any(n is not None and n != m for n, m in zip(shape, arr.shape))):
        want = ("a number" if not shape else "a list of numbers" if len(shape) == 1 else
                f"a list of {shape[1]}-number lists")
        raise ValueError(f"{what} field {name!r} must be {want}")
    return arr.astype(float)


def _check_domains_match(a: "Domain", b: "Domain"):
    if a != b:
        raise ValueError("measures live on different domains")


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a NaN-free array, flattened.

    ``np.unique(values)`` does the same sort and neighbour comparison, so
    the bits match, down to which of an equal ``-0.0``/``0.0`` run survives
    (the first after the sort); but NumPy 2.4's ``np.unique`` also imports
    ``numpy.ma`` to ask whether the input is masked, 8-12 ms and about
    1 MiB on the first call."""
    ordered = np.sort(values, axis=None)
    keep = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


# ---------------------------------------------------------------------------
# discrete measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point cloud; weights sum to 1 and all points lie in the domain."""

    points: np.ndarray
    weights: np.ndarray
    domain: Domain

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights length mismatch")
        if pts.shape[1] != self.domain.dim:
            raise ValueError(f"dimension mismatch: points of dimension {pts.shape[1]} "
                             f"on a domain of dimension {self.domain.dim}")
        if np.isnan(pts).any():
            raise ValueError("NaN coordinates")
        if not (w >= -_MASS_TOL).all():
            raise ValueError("negative or NaN weights")
        if abs(w.sum() - 1.0) > _MASS_TOL:
            raise ValueError(f"weights sum to {w.sum()}, not 1")
        if not self.domain.contains(pts).all():
            raise ValueError("support point outside the domain")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def drop_zero_weights(self) -> tuple["DiscreteMeasure", np.ndarray]:
        """Remove zero-weight atoms; returns (measure, original indices kept)."""
        keep = np.flatnonzero(self.weights > 0.0)
        if keep.size == len(self):
            return self, keep
        w = self.weights[keep]
        return DiscreteMeasure(self.points[keep], w / w.sum(), self.domain), keep

    def merged(self) -> "DiscreteMeasure":
        """Merge coincident support points, summing weights (exact equality).

        Points come out in sorted order.  One-column points take a flat
        ``np.unique`` of the column, 5-7 times faster on 300 points than the
        structured-row ``axis=0`` path that other dimensions take; both
        sort the values and compare neighbours, so the points, the
        weights and their summation order are the same, except that a
        group holding both ``-0.0`` and ``0.0`` may keep the other zero."""
        if self.dim == 1:
            column, inverse = np.unique(self.points[:, 0], return_inverse=True)
            pts = column[:, None]
        else:
            pts, inverse = np.unique(self.points, axis=0, return_inverse=True)
        w = np.zeros(pts.shape[0])
        np.add.at(w, inverse, self.weights)
        return DiscreteMeasure(pts, w, self.domain)

    def to_csv(self, path):
        d = self.dim
        header = ",".join([f"x_{c + 1}" for c in range(d)] + ["weight"])
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for p, w in zip(self.points, self.weights):
                fh.write(",".join(repr(float(c)) for c in p) + f",{w!r}\n")


# ---------------------------------------------------------------------------
# uniform grids
# ---------------------------------------------------------------------------

def _cell_centers(domain: Domain, resolution: int) -> np.ndarray:
    """Cell centers of the grid of ``resolution`` cells per axis tiling the
    domain's box, in C order, one row per cell."""
    lo, hi = domain.bounding_box()
    widths = (hi - lo) / resolution
    axes = [lo[a] + (np.arange(resolution) + 0.5) * widths[a] for a in range(domain.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def uniform_grid(domain: Domain, resolution: int) -> DiscreteMeasure:
    """Uniform measure on the cell centers of the ``resolution``-per-axis
    grid over the domain's bounding box that lie in the domain (a ball
    masks the cells whose centers fall outside it), each of weight
    1 / count."""
    centers = _cell_centers(domain, int(resolution))
    centers = centers[domain.contains(centers, tol=0.0)]
    return DiscreteMeasure(centers, np.full(len(centers), 1.0 / len(centers)), domain)


# ---------------------------------------------------------------------------
# 1D measures with exact quantile machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Measure1D:
    """Mixture of densities constant on disjoint intervals, plus atoms.

    ``intervals`` is an array of rows (lo, hi, mass); ``atoms`` an array of
    rows (location, mass).  Total mass must be 1.
    """

    intervals: np.ndarray
    atoms: np.ndarray
    domain: Domain

    def __post_init__(self):
        iv = np.asarray(self.intervals, dtype=float).reshape(-1, 3)
        at = np.asarray(self.atoms, dtype=float).reshape(-1, 2)
        iv = iv[np.argsort(iv[:, 0])] if iv.size else iv
        at = at[np.argsort(at[:, 0])] if at.size else at
        object.__setattr__(self, "intervals", iv)
        object.__setattr__(self, "atoms", at)
        if not (np.isfinite(iv).all() and np.isfinite(at).all()):
            raise ValueError("non-finite interval or atom")
        total = iv[:, 2].sum() + at[:, 1].sum()
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"total mass {total}, not 1")
        if iv.size:
            if (iv[:, 1] <= iv[:, 0]).any():
                raise ValueError("interval with nonpositive length")
            if (iv[:, 2] < 0).any():
                raise ValueError("negative interval mass")
            if (iv[1:, 0] < iv[:-1, 1] - 1e-15).any():
                raise ValueError("overlapping intervals")
        if at.size and (at[:, 1] < 0).any():
            raise ValueError("negative atom mass")
        lo, hi = self.domain.interval()
        support = []
        if iv.size:
            support += [iv[:, 0].min(), iv[:, 1].max()]
        if at.size:
            support += [at[:, 0].min(), at[:, 0].max()]
        if support and (min(support) < lo - 1e-9 or max(support) > hi + 1e-9):
            raise ValueError("support outside the domain")

    @staticmethod
    def from_pieces(domain: Domain, intervals=(), atoms=()) -> "Measure1D":
        iv = np.asarray(list(intervals), dtype=float).reshape(-1, 3)
        at = np.asarray(list(atoms), dtype=float).reshape(-1, 2)
        return Measure1D(iv, at, domain)

    @staticmethod
    def lebesgue_on(domain: Domain, intervals, atoms=()) -> "Measure1D":
        """Unit-density restriction to the given intervals, plus atoms.

        Interval masses equal interval lengths (density exactly 1); the atom
        masses make up the remaining probability.
        """
        iv = [(lo, hi, hi - lo) for lo, hi in intervals]
        return Measure1D.from_pieces(domain, iv, atoms)

    @staticmethod
    def dirac(domain: Domain, x: float) -> "Measure1D":
        return Measure1D.from_pieces(domain, (), [(x, 1.0)])

    @staticmethod
    def uniform(domain: Domain, lo: float, hi: float) -> "Measure1D":
        return Measure1D.from_pieces(domain, [(lo, hi, 1.0)], ())

    @staticmethod
    def from_discrete(m: DiscreteMeasure) -> "Measure1D":
        if m.dim != 1:
            raise ValueError("from_discrete requires 1D points")
        merged = m.merged()
        atoms = np.stack([merged.points[:, 0], merged.weights], axis=1)
        return Measure1D(np.empty((0, 3)), atoms, m.domain)

    def quantile_segments(self) -> np.ndarray:
        """Linear pieces of the quantile function, rows (u_lo, u_hi, x_lo, x_hi).

        Atoms produce flat pieces (x_lo == x_hi).  Pieces are sorted in u and
        partition [0, 1] up to zero-mass pieces, which are dropped.
        """
        events = []  # (x_start, x_end, mass)
        for lo, hi, mass in self.intervals:
            events.append((lo, hi, mass))
        for x, mass in self.atoms:
            events.append((x, x, mass))
        events.sort(key=lambda e: (e[0], e[1]))
        segs = []
        u = 0.0
        for x0, x1, mass in events:
            if mass <= 0:
                continue
            segs.append((u, u + mass, x0, x1))
            u += mass
        segs = np.asarray(segs, dtype=float).reshape(-1, 4)
        if segs.size:
            segs[-1, 1] = 1.0  # absorb roundoff at the top
        return segs


def _piece_integral(a: float, b: float, length: float, r: float) -> float:
    """length * integral over t in [0, 1] of |a + (b - a) t|^r dt, a*b >= 0.

    The antiderivative formula (|b|^{r+1} - |a|^{r+1}) / ((r+1)(b-a)) loses
    all precision when b - a is tiny relative to the values, so for
    |b - a| <= |a + b| / 2 the integral is evaluated by the binomial series
    around the midpoint, which terminates exactly for integer r.
    """
    if length <= 0:
        return 0.0
    if a < 0 or b < 0:  # caller splits sign changes; flip the negative ray
        a, b = -a, -b
    g = 0.5 * (a + b)
    h = 0.5 * (b - a)
    if g == 0.0:
        return 0.0
    x = h / g
    if abs(x) <= 0.5:
        # sum_{k odd} C(r+1, k) x^{k-1} / (r+1), term-recursive
        x2 = x * x
        term = 1.0
        total = 1.0
        k = 1.0
        while True:
            term *= x2 * (r + 1.0 - k) * (r - k) / ((k + 1.0) * (k + 2.0))
            if abs(term) < 1e-17 * abs(total) or k > 400:
                break
            total += term
            k += 2.0
        return length * g ** r * total
    return length * (b ** (r + 1.0) - a ** (r + 1.0)) / ((r + 1.0) * (b - a))


def wasserstein_1d(m1: Measure1D, m2: Measure1D, r: float) -> float:
    """Exact W_r between 1D measures via the quantile coupling.

    Handles every order r in (1, inf]; for r = inf returns the sup norm of
    the quantile difference.  Exact on the piecewise-linear quantile class.
    The cut points of both quantile functions split [0, 1] into pieces on
    which both are linear; one ``searchsorted`` per measure on the piece
    midpoints finds the quantile segment of each piece, and the pieces'
    integrals are then summed in order.
    """
    if not (r > 1.0):
        raise ValueError("order r must exceed 1")
    _check_domains_match(m1.domain, m2.domain)
    s1 = m1.quantile_segments()
    s2 = m2.quantile_segments()
    cuts = _sorted_distinct(np.concatenate([s1[:, :2].ravel(), s2[:, :2].ravel(), [0.0, 1.0]]))
    cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
    cut_lo, cut_hi = cuts[:-1], cuts[1:]
    um = 0.5 * (cut_lo + cut_hi)

    def quantile_at_ends(segs):
        idx = np.minimum(np.searchsorted(segs[:, 1], um, side="right"), len(segs) - 1)
        u0, u1, x0, x1 = segs[idx].T
        # a zero-width segment (mass below the spacing of u) takes its x_lo
        zero_width = u1 <= u0
        den = np.where(zero_width, 1.0, u1 - u0)
        return [np.where(zero_width, x0, x0 + (x1 - x0) * (u - u0) / den)
                for u in (cut_lo, cut_hi)]

    # both quantile functions are linear on each open cut interval; the
    # difference there is a + (b - a) * t with endpoint limits a, b
    (q1lo, q1hi), (q2lo, q2hi) = quantile_at_ends(s1), quantile_at_ends(s2)
    pieces = zip(cut_lo, cut_hi, q1lo - q2lo, q1hi - q2hi)

    if math.isinf(r):
        return float(max(max(abs(a), abs(b)) for _, _, a, b in pieces))

    total = 0.0
    for ulo, uhi, a, b in pieces:
        if a * b < 0:
            # sign change inside: split at the root of the linear function
            t_root = a / (a - b)
            total += _piece_integral(a, 0.0, (uhi - ulo) * t_root, r)
            total += _piece_integral(0.0, b, (uhi - ulo) * (1.0 - t_root), r)
        else:
            total += _piece_integral(a, b, uhi - ulo, r)
    return float(total ** (1.0 / r))


def discretize(measure: Measure1D, resolution: int) -> DiscreteMeasure:
    """Cell-center discretization: ``resolution`` cells spread over the
    intervals (proportionally to length, at least one per interval); atoms
    are kept.

    The resulting measure is within half a cell of the original in the
    W_inf sense.
    """
    resolution = int(resolution)
    pts, ws = [], []
    iv = measure.intervals
    if iv.size:
        lengths = iv[:, 1] - iv[:, 0]
        cells = np.maximum(1, np.round(resolution * lengths / lengths.sum()).astype(int))
        for (lo, hi, mass), k in zip(iv, cells):
            h = (hi - lo) / k
            centers = lo + (np.arange(k) + 0.5) * h
            pts.append(centers)
            ws.append(np.full(k, mass / k))
    for x, mass in measure.atoms:
        pts.append([x])
        ws.append([mass])
    points = np.concatenate(pts)[:, None]
    weights = np.concatenate(ws)
    return DiscreteMeasure(points, weights / weights.sum(), measure.domain)


def measure_from_json(doc) -> DiscreteMeasure:
    """Load a discrete measure literal.

    Schema (JSON object):
      kind: "discrete"
      domain: {kind: "ball", center, radius} | {kind: "box", lo, hi}
      points: [[...], ...], weights: [...]
    Other fields are ignored.
    """
    if not isinstance(doc, dict) or "domain" not in doc:
        raise ValueError("measure document must be an object with a 'domain' field")
    domain = Domain.from_dict(doc["domain"])
    kind = doc.get("kind")
    if kind != "discrete":
        raise ValueError(f"unknown measure kind {kind!r}")
    return DiscreteMeasure(_array(doc, "measure", "points", (None, domain.dim)),
                           _array(doc, "measure", "weights", (None,)), domain)
