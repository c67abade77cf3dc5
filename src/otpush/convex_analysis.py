"""Polyhedral convex Lipschitz functions with exact subdifferential geometry.

The central object is :class:`MaxAffineFunction` f(x) = max_i <a_i, x> + b_i.
On top of it this module provides

* exact subdifferentials (:func:`subdifferential`) and exact diameters of
  subdifferential images of balls (:func:`diam_subdiff_ball`),
* the near-singularity set scan and its greedy covering
  (:func:`covering_number_sigma`), audited against the count bound
  48 d^2 (R+4eta)^{d-1} Lip / (alpha eta^{d-1}),
* the integral diameter estimate with its bound
  48 d^2 beta_d 2^{3d+q-1} (q/(q-1)) (R+4eta)^{d-1} Lip^q eta,
* the L1-gradient diameter inequality check (:func:`verify_lemma_diam_l1`),
* Lipschitz extension by the envelope of sampled supports,
* :func:`kink_ladder`, the worst-case function whose N evenly spaced kinks
  each carry a subdifferential jump of exactly 2L/N.

Exactness strategy: in 1D every quantity is computed from the upper envelope
of the affine pieces (slopes active on an interval are a contiguous run of
envelope slopes).  In 2D piece i is active somewhere in B(x, eta) exactly
when its max-affine cell {z : f_i(z) >= f_j(z) - tol for all j} lies within
eta of x: x meets the cell's inequalities or lies within eta of the cell
clipped from a box holding every ball (``_cell_active``).  That predicate is
the one rule for every 2D query.  A one-point query runs it on every piece
(``_cell_actives_2d``); the grid scans of the covering and the integral mark
each row's section of every cell's eta-offset directly and run it only on a
few columns around the section ends and on the rows nearly tangent to the
offset.  Products of points with slopes go through ``_batch_product``, so a
point gets the same bits alone as inside a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .geometry_measures import unit_ball_volume

__all__ = [
    "MaxAffineFunction",
    "SubdiffPolytope",
    "SingularSetReport",
    "subdifferential",
    "diam_subdiff_ball",
    "covering_number_sigma",
    "IntegralDiamEstimate",
    "integral_diam_estimate",
    "verify_lemma_diam_l1",
    "lipschitz_extension",
    "kink_ladder",
    "breakpoints_1d",
]

_TIE_TOL = 1e-12
_ALPHA_TOL = 1e-9


def _batch_product(pts: np.ndarray, m: np.ndarray) -> np.ndarray:
    """pts @ m with each row's bits those of the same row in any batch: a
    1-row product takes BLAS's matrix-vector path, which rounds differently,
    so one row is computed on two and sliced."""
    if len(pts) == 1:
        return (np.repeat(pts, 2, axis=0) @ m)[:1]
    return pts @ m


@dataclass(frozen=True, eq=False)
class MaxAffineFunction:
    """f(x) = max_i <a_i, x> + b_i with at least one affine piece."""

    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.slopes, dtype=float))
        b = np.atleast_1d(np.asarray(self.intercepts, dtype=float))
        if a.shape[0] != b.shape[0]:
            raise ValueError("slope/intercept count mismatch")
        if a.shape[0] == 0:
            raise ValueError("need at least one affine piece")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("pieces must be finite")
        object.__setattr__(self, "slopes", a)
        object.__setattr__(self, "intercepts", b)

    @property
    def dim(self) -> int:
        return self.slopes.shape[1]

    @property
    def n_pieces(self) -> int:
        return self.slopes.shape[0]

    @property
    def lip(self) -> float:
        return float(np.linalg.norm(self.slopes, axis=1).max())

    def piece_values(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = _batch_product(pts, self.slopes.T)
        vals += self.intercepts
        return vals

    def __call__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        single = points.ndim <= 1
        vals = self.piece_values(points).max(axis=1)
        return float(vals[0]) if single else vals

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """Slope of the first argmax piece per point."""
        idx = np.argmax(self.piece_values(points), axis=1)
        return self.slopes[idx]

    @staticmethod
    def from_supports(points: np.ndarray, values: np.ndarray, slopes: np.ndarray) -> "MaxAffineFunction":
        """Envelope of supporting planes value + <slope, . - point>."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g = np.atleast_2d(np.asarray(slopes, dtype=float))
        v = np.asarray(values, dtype=float)
        return MaxAffineFunction(g, v - (g * pts).sum(axis=1))

    def deduplicated(self) -> "MaxAffineFunction":
        rows = np.column_stack([self.slopes, self.intercepts])
        rows = np.unique(rows, axis=0)
        return MaxAffineFunction(rows[:, :-1], rows[:, -1])

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(f"a_{c + 1}" for c in range(self.dim)) + ",b\n")
            for a, b in zip(self.slopes, self.intercepts):
                fh.write(",".join(repr(float(x)) for x in a) + f",{float(b)!r}\n")

    @staticmethod
    def from_csv(path) -> "MaxAffineFunction":
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return MaxAffineFunction(rows[:, :-1], rows[:, -1])

    # internal: cached upper envelope for 1D queries --------------------
    def _envelope(self):
        if self.dim != 1:
            raise ValueError("envelope is a 1D structure")
        cached = self.__dict__.get("_env")
        if cached is not None:
            return cached
        order = np.lexsort((-self.intercepts, self.slopes[:, 0]))
        s = self.slopes[order, 0]
        b = self.intercepts[order]
        keep = np.ones(len(s), dtype=bool)
        keep[1:] = s[1:] > s[:-1]  # equal slopes: first (largest b) wins
        s, b = s[keep], b[keep]
        env_s, env_b, bp = [], [], []
        for a_i, b_i in zip(s, b):
            while env_s:
                x = (env_b[-1] - b_i) / (a_i - env_s[-1])
                if bp and x <= bp[-1]:
                    env_s.pop(), env_b.pop(), bp.pop()
                    continue
                env_s.append(a_i), env_b.append(b_i), bp.append(x)
                break
            else:
                env_s.append(a_i), env_b.append(b_i)
        env = (np.array(env_s), np.array(env_b), np.array(bp))
        object.__setattr__(self, "_env", env)
        return env


def breakpoints_1d(f: MaxAffineFunction) -> np.ndarray:
    """Kink locations of a 1D max-affine function, sorted ascending."""
    return f._envelope()[2].copy()


# ---------------------------------------------------------------------------
# subdifferential polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SubdiffPolytope:
    """Convex hull of finitely many slope vectors (subdifferential image)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if v.shape[0] == 0:
            raise ValueError("empty polytope")
        # rows in lexicographic order, each run of ==-equal rows cut to its
        # first row; the sort is stable, so of two rows that differ only in
        # the sign of a zero the one given first stays
        v = v[np.lexsort(v.T[::-1])]
        keep = np.empty(len(v), dtype=bool)
        keep[0] = True
        np.any(v[1:] != v[:-1], axis=1, out=keep[1:])
        object.__setattr__(self, "vertices", v[keep])

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def diam(self) -> float:
        return _pairwise_diam(self.vertices)

    def is_singleton(self, tol: float = 1e-10) -> bool:
        return self.diam() < tol

    def extreme_vertex(self, direction: np.ndarray) -> np.ndarray:
        """Vertex maximizing <direction, v>; lexicographic tie-break."""
        d = np.asarray(direction, dtype=float)
        scores = self.vertices @ d
        best = np.flatnonzero(scores >= scores.max() - 1e-14)
        tie = self.vertices[best]
        return tie[np.lexsort(tie.T[::-1])][-1].copy()

    def project(self, point: np.ndarray) -> tuple[np.ndarray, float]:
        """Closest point of the hull and its distance (d <= 2 exact).

        Candidates are the vertices, then the closest point of each
        vertex-pair segment (a < b in ``np.triu_indices`` order, skipping
        |b - a|^2 < 1e-30).  On square-rooted distances the first closest
        vertex wins unless a segment is strictly closer; then the first
        closest segment wins.  Dots and norms are ``np.vecdot`` rows, which
        unlike ``(A * B).sum(1)`` match 1-D ``@`` and ``np.linalg.norm`` bits.

        In d <= 2 the hull's boundary lies on those segments, so the best
        candidate q is the projection of an outside p.  By the projection
        theorem q = P(p) iff (v - q).(p - q) <= 0 for every vertex v, while
        an inside p, a convex combination of the vertices, has some vertex
        with (v - q).(p - q) >= |p - q|^2.  In 2D, p itself is returned
        when the maximum exceeds |p - q|^2 / 2.
        """
        p = np.asarray(point, dtype=float)
        V = self.vertices
        if V.shape[0] == 1:
            return V[0].copy(), float(np.linalg.norm(p - V[0]))
        a, b = _vertex_pairs(len(V))
        E = V[b] - V[a]
        ee = np.vecdot(E, E)
        t = np.clip(np.vecdot(p - V[a], E) / np.maximum(ee, 1e-30), 0.0, 1.0)
        C = V[a] + t[:, None] * E
        dv = np.sqrt(np.vecdot(p - V, p - V))
        dc = np.where(ee < 1e-30, np.inf, np.sqrt(np.vecdot(p - C, p - C)))
        i, j = dv.argmin(), dc.argmin()
        q, dist = (C[j], dc[j]) if dc[j] < dv[i] else (V[i], dv[i])
        if self.dim == 2 and len(V) >= 3:
            r = p - q
            if float(((V - q) @ r).max()) > 0.5 * float(r @ r):
                return p.copy(), 0.0
        return q.copy(), float(dist)

    def contains(self, point: np.ndarray, tol: float = 1e-8) -> bool:
        return self.project(point)[1] <= tol

    def min_norm_point(self) -> np.ndarray:
        return self.project(np.zeros(self.dim))[0]


def _pairwise_diam(vectors: np.ndarray) -> float:
    v = np.atleast_2d(vectors)
    if v.shape[0] <= 1:
        return 0.0
    return float(np.sqrt(_kernels.pair_dist2(v).max()))


_VERTEX_PAIRS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _vertex_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(k, 1)``, kept per k: building it takes longer than
    projecting onto a hull of a few vertices."""
    if k not in _VERTEX_PAIRS:
        _VERTEX_PAIRS[k] = np.triu_indices(k, 1)
    return _VERTEX_PAIRS[k]


def subdifferential(f: MaxAffineFunction, x: np.ndarray, tau: float = 0.0) -> SubdiffPolytope:
    """Hull of slopes of pieces within tau of the max at x (tau=0: exact)."""
    if tau < 0:
        raise ValueError("activity tolerance must be >= 0")
    vals = f.piece_values(x)[0]
    active = vals >= vals.max() - tau
    return SubdiffPolytope(f.slopes[active])


# ---------------------------------------------------------------------------
# active slopes over balls
# ---------------------------------------------------------------------------

def _active_run_1d(f: MaxAffineFunction, lo: np.ndarray, hi: np.ndarray):
    """Envelope index range [i_lo, i_hi] active on closed windows [lo, hi]."""
    env_s, _, bp = f._envelope()
    i_lo = np.searchsorted(bp, lo - _TIE_TOL, side="left")
    i_hi = np.searchsorted(bp, hi + _TIE_TOL, side="right")
    return env_s, i_lo, i_hi


def _ball_diams_1d(f: MaxAffineFunction, centers: np.ndarray, eta: float) -> np.ndarray:
    env_s, i_lo, i_hi = _active_run_1d(f, centers - eta, centers + eta)
    return env_s[i_hi] - env_s[i_lo]


def _cell_polygon(A: np.ndarray, B: np.ndarray, i: int, box: np.ndarray) -> np.ndarray:
    """Vertices of piece i's cell {z : f_i(z) >= f_j(z) - tol for all j}
    within the counter-clockwise convex polygon ``box``, clipped by one
    Sutherland-Hodgman pass per other piece (no rows when it is empty)."""
    poly = box
    for j in range(len(B)):
        if j == i or len(poly) == 0:
            continue
        nxt = np.arange(1, len(poly) + 1) % len(poly)
        g = poly @ (A[i] - A[j]) + (B[i] - B[j] + _TIE_TOL)
        keep = g >= 0
        cross = keep != keep[nxt]
        t = np.divide(g, g - g[nxt], out=np.zeros_like(g), where=cross)
        hit = poly + (poly[nxt] - poly) * t[:, None]
        poly = np.stack([poly, hit], axis=1)[np.stack([keep, cross], axis=1)]
    return poly


def _box(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The counter-clockwise square [lo, hi] that ``_cell_polygon`` clips."""
    return np.array([lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]])


def _cell_active(A: np.ndarray, B: np.ndarray, i: int, poly: np.ndarray,
                 centers: np.ndarray, eta: float) -> np.ndarray:
    """Whether piece i's cell comes within eta of each center: the center
    meets the cell's inequalities (in the arithmetic that clips the cell), or
    its squared distance to the clipped cell ``poly`` is at most eta^2."""
    g = _batch_product(centers, (A[i] - A).T)
    g += B[i] - B + _TIE_TOL
    active = np.ones(len(centers), dtype=bool)
    for j in range(len(B)):
        active &= g[:, j] >= 0
    x, y = centers[:, 0], centers[:, 1]
    d2 = np.full(len(centers), np.inf)
    for p, e in zip(poly, np.roll(poly, -1, axis=0) - poly):
        wx, wy = x - p[0], y - p[1]
        ee = e @ e
        if ee > 0:
            t = np.clip((wx * e[0] + wy * e[1]) / ee, 0.0, 1.0)
            wx -= t * e[0]
            wy -= t * e[1]
        np.minimum(d2, wx * wx + wy * wy, out=d2)
    active |= d2 <= eta * eta
    return active


def _cell_actives_2d(f: MaxAffineFunction, centers: np.ndarray, eta: float) -> np.ndarray:
    """Exact (k, npts) mask of the pieces active somewhere in each B(x, eta).

    Piece i is active iff its cell comes within eta of x (``_cell_active``).
    Cells are clipped once from a box holding every ball, which changes no
    distance up to eta.
    """
    A, B = f.slopes, f.intercepts
    box = _box(centers.min(axis=0) - 2.0 * eta, centers.max(axis=0) + 2.0 * eta)
    active = np.empty((len(B), len(centers)), dtype=bool)
    for i in range(len(B)):
        active[i] = _cell_active(A, B, i, _cell_polygon(A, B, i, box), centers, eta)
    return active


def _ball_diams(f: MaxAffineFunction, centers: np.ndarray, eta: float) -> np.ndarray:
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if f.dim == 1:
        return _ball_diams_1d(f, centers[:, 0], eta)
    if f.dim == 2:
        active = _cell_actives_2d(f, centers, eta)
        return np.sqrt(_kernels.active_diam2(active, _kernels.pair_dist2(f.slopes)))
    raise NotImplementedError("ball scans are implemented for d in {1, 2}")


def diam_subdiff_ball(f: MaxAffineFunction, x: np.ndarray, eta: float) -> float:
    """Exact diameter of the set of slopes active somewhere in B(x, eta)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(_ball_diams(f, x[None, :], eta)[0])


# ---------------------------------------------------------------------------
# singular-set covering
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SingularSetReport:
    """Greedy 8-eta covering of the detected near-singularity set."""

    eta: float
    alpha: float
    R: float
    centers: np.ndarray
    count: int
    bound: float
    lip: float

    def __post_init__(self):
        if math.isnan(self.bound) or (self.centers.size and np.isnan(self.centers).any()):
            raise ValueError("NaN in singularity report")
        if self.alpha <= 2.0 * self.lip and self.count > self.bound:
            raise AssertionError(
                f"covering count {self.count} exceeds the bound {self.bound}")

    def to_csv(self, path):
        d = self.centers.shape[1] if self.centers.size else 1
        with open(path, "w") as fh:
            fh.write(",".join(f"x_{c + 1}" for c in range(d)) + "\n")
            for row in self.centers:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
            fh.write(f"# count={self.count},bound={self.bound!r},eta={self.eta!r},"
                     f"alpha={self.alpha!r},R={self.R!r}\n")


def _disc_mask(axis: np.ndarray, r2: float) -> np.ndarray:
    """(n, n) mask of the grid points (axis[i], axis[j]) with
    axis[i]^2 + axis[j]^2 <= r2.  On an increasing axis each row's points
    are one run of columns."""
    sq = axis * axis
    return sq[:, None] + sq[None, :] <= r2


def _disc_grid(axis: np.ndarray, r2: float) -> np.ndarray:
    """Points (axis[i], axis[j]) with axis[i]^2 + axis[j]^2 <= r2, in
    row-major (i, j) order, without the full product grid."""
    i, j = np.nonzero(_disc_mask(axis, r2))
    return np.stack([axis[i], axis[j]], axis=1)


def _scan_axis(R: float, step: float) -> np.ndarray:
    """-R, -R + step, ... up to R, with R appended when the steps stop short."""
    n = int(math.floor(2.0 * R / step + 1e-9))
    axis = -R + step * np.arange(n + 1)
    if axis[-1] < R - 1e-12:
        axis = np.append(axis, R)
    return axis


# Columns on each side of a row section's ends that the exact predicate decides.
_BAND = 3


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The integer ranges [lo[t], hi[t]) (each lo <= hi), concatenated."""
    lens = hi - lo
    offsets = np.cumsum(lens) - lens  # where each range starts in the output
    return np.arange(lens.sum()) + np.repeat(lo - offsets, lens)


def _row_span(c: float, lo: np.ndarray, hi: np.ndarray):
    """The v with lo <= c v <= hi, as (low end, high end); empty rows get
    (inf, -inf)."""
    if c > 0:
        return lo / c, hi / c
    if c < 0:
        return hi / c, lo / c
    hit = (lo <= 0) & (hi >= 0)
    return np.where(hit, -np.inf, np.inf), np.where(hit, np.inf, -np.inf)


def _offset_sections(poly: np.ndarray, x: np.ndarray, eta: float):
    """Ends (lo, hi) of the sections of the rows {(x[r], y)} through the
    points within eta of the convex polygon ``poly``: lo = inf, hi = -inf on
    a row that misses them.

    That set is the union over the polygon's edges of the stadiums
    edge + B(0, eta) (with the polygon, which lies between them on every
    row), so each end is the outermost end over the edges of the stadium
    sections.  A stadium is the disc around its edge's start (the end is the
    next edge's start) and the rectangle of points projecting onto the edge
    within eta of it, whose section is cut out by four half-planes.
    """
    lo = np.full(len(x), np.inf)
    hi = np.full(len(x), -np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p, e in zip(poly, np.roll(poly, -1, axis=0) - poly):
            u = x - p[0]
            chord2 = eta * eta - u * u
            hit = chord2 >= 0
            half = np.sqrt(np.where(hit, chord2, 0.0))
            np.minimum(lo, np.where(hit, p[1] - half, np.inf), out=lo)
            np.maximum(hi, np.where(hit, p[1] + half, -np.inf), out=hi)
            ee = e @ e
            if ee == 0:
                continue
            # v = y - p_y with 0 <= u e_x + v e_y <= |e|^2 and
            # |u e_y - v e_x| <= eta |e|
            along = _row_span(e[1], -u * e[0], ee - u * e[0])
            width = eta * math.sqrt(ee)
            across = _row_span(e[0], u * e[1] - width, u * e[1] + width)
            v_lo = np.maximum(along[0], across[0])
            v_hi = np.minimum(along[1], across[1])
            hit = v_lo <= v_hi
            np.minimum(lo, np.where(hit, p[1] + v_lo, np.inf), out=lo)
            np.maximum(hi, np.where(hit, p[1] + v_hi, -np.inf), out=hi)
    return lo, hi


def _grid_ball_diams(f: MaxAffineFunction, axis: np.ndarray, r2: float, eta: float) -> np.ndarray:
    """Exact diameter of the slopes active in B(x, eta) at every point of
    ``_disc_grid(axis, r2)`` in its order, for a 2D f.  It gives the bits of
    ``_ball_diams`` on those points, except where a point lies exactly eta
    from a cell, to the last bit: both clip each cell from a box that
    depends on the query, and there the clipped vertices' rounding decides.

    Piece i is active in B(x, eta) iff x lies within eta of its cell, and
    each grid row (fixed axis[r], varying axis[c]) meets that convex set in
    one section (``_offset_sections``).  Points more than ``_BAND`` columns
    inside a section are active and points more than ``_BAND`` columns
    outside it are not: a margin of at least two grid steps, far above
    rounding.  The exact predicate ``_cell_active`` decides the band points
    in between, and every point of the rows within ``_BAND + 1`` rows of the
    set's leftmost or rightmost x, where rows cross its boundary nearly
    tangentially and a column margin is no distance margin.  Each cell is
    clipped once from the box of the axis's ends +- 2 eta.
    """
    A, B = f.slopes, f.intercepts
    n = len(axis)
    inside = _disc_mask(axis, r2)
    first = inside.argmax(axis=1)  # each row's first column
    stop = first + inside.sum(axis=1)  # and one past its last
    start = np.concatenate([[0], np.cumsum(stop - first)])  # point index of each row's first column
    npts = int(start[-1])
    box = _box(np.full(2, axis[0] - 2.0 * eta), np.full(2, axis[-1] + 2.0 * eta))
    active = np.zeros((len(B), npts), dtype=bool)
    for i in range(len(B)):
        poly = _cell_polygon(A, B, i, box)
        if len(poly) == 0:
            continue
        r0 = np.searchsorted(axis, poly[:, 0].min() - eta)
        r1 = np.searchsorted(axis, poly[:, 0].max() + eta, side="right") - 1
        rows = np.arange(max(r0 - _BAND - 1, 0), min(r1 + _BAND + 2, n))
        full = (np.abs(rows - r0) <= _BAND + 1) | (np.abs(rows - r1) <= _BAND + 1)
        cut = rows[~full]
        lo, hi = _offset_sections(poly, axis[cut], eta)
        met = lo <= hi
        cut, lo, hi = cut[met], lo[met], hi[met]
        c_lo = np.searchsorted(axis, lo)  # first column in the section
        c_hi = np.searchsorted(axis, hi, side="right")  # first column past it
        sure_lo = c_lo + _BAND
        sure_hi = np.maximum(c_hi - _BAND, sure_lo)

        # sure columns: a difference array over point indices, summed up
        a = np.clip(sure_lo, first[cut], stop[cut])
        b = np.clip(sure_hi, first[cut], stop[cut])
        some = a < b
        to_index = start[cut] - first[cut]
        diff = np.zeros(npts + 1, dtype=np.int8)
        diff[(a + to_index)[some]] = 1
        diff[(b + to_index)[some]] -= 1  # after the 1s: a run may end where the next starts
        np.cumsum(diff[:npts], dtype=np.int8, out=diff[:npts])
        np.not_equal(diff[:npts], 0, out=active[i])

        # band columns and full rows: the exact predicate
        whole = rows[full]
        r = np.concatenate([cut, cut, whole])
        c_from = np.concatenate([c_lo - _BAND, sure_hi, first[whole]])
        c_to = np.concatenate([sure_lo, c_hi + _BAND, stop[whole]])
        c_from = np.clip(c_from, first[r], stop[r])
        c_to = np.clip(c_to, c_from, stop[r])
        cols = _ranges(c_from, c_to)
        r = np.repeat(r, c_to - c_from)
        centers = np.stack([axis[r], axis[cols]], axis=1)
        active[i, start[r] + cols - first[r]] = _cell_active(A, B, i, poly, centers, eta)
    return np.sqrt(_kernels.active_diam2(active, _kernels.pair_dist2(A)))


def count_bound(d: int, R: float, eta: float, alpha: float, lip: float) -> float:
    """48 d^2 (R+4eta)^{d-1} Lip / (alpha eta^{d-1})."""
    return 48.0 * d * d * (R + 4.0 * eta) ** (d - 1) * lip / (alpha * eta ** (d - 1))


def covering_number_sigma(f: MaxAffineFunction, eta: float, alpha: float, R: float) -> SingularSetReport:
    """Scan B(0,R) on a step-eta/4 grid for points with
    diam of the active-slope set over B(x, eta) >= alpha, then greedily cover
    the detected set with balls of radius 8 eta centered at detected points.

    The greedy centers are pairwise > 8 eta apart, so the reported count is
    simultaneously a valid covering size and subject to the packing-style
    count bound.  In 2D the scan's diameters come from row sections of the
    cells' eta-offsets (``_grid_ball_diams``).
    """
    if min(eta, alpha, R) <= 0:
        raise ValueError("eta, alpha, R must be positive")
    d = f.dim
    lip = f.lip
    bound = count_bound(d, R, eta, alpha, lip)
    if alpha > 2.0 * lip:
        return SingularSetReport(eta, alpha, R, np.empty((0, d)), 0, bound, lip)
    axis = _scan_axis(R, eta / 4.0)
    if d == 1:
        pts = axis[:, None]
        diams = _ball_diams(f, pts, eta)
    elif d == 2:
        r2 = R * R * (1 + 1e-12)
        pts = _disc_grid(axis, r2)
        diams = _grid_ball_diams(f, axis, r2, eta)
    else:
        raise NotImplementedError("ball scans are implemented for d in {1, 2}")
    detected = pts[diams >= alpha - _ALPHA_TOL]
    centers = []
    uncovered = np.ones(len(detected), dtype=bool)
    while uncovered.any():
        idx = int(np.argmax(uncovered))
        c = detected[idx]
        centers.append(c)
        dist2 = ((detected - c) ** 2).sum(1)
        uncovered &= dist2 > (8.0 * eta) ** 2 * (1 + 1e-12)
    centers = np.array(centers) if centers else np.empty((0, d))
    return SingularSetReport(eta, alpha, R, centers, len(centers), bound, lip)


# ---------------------------------------------------------------------------
# integral diameter estimate
# ---------------------------------------------------------------------------

class IntegralDiamEstimate(NamedTuple):
    estimate: float
    bound: float


def integral_bound(d: int, q: float, R: float, eta: float, lip: float) -> float:
    """48 d^2 beta_d 2^{3d+q-1} (q/(q-1)) (R+4eta)^{d-1} Lip^q eta."""
    beta = unit_ball_volume(d)
    c = 48.0 * d * d * beta * 2.0 ** (3 * d + q - 1) * (q / (q - 1.0)) * (R + 4.0 * eta) ** (d - 1)
    return c * lip ** q * eta


def integral_diam_estimate(f: MaxAffineFunction, eta: float, q: float, R: float) -> IntegralDiamEstimate:
    """Integral over B(0,R) of diam(active slopes over B(x, eta))^q, with the
    matching upper bound.

    1D: the integrand is piecewise constant in x with breakpoints at
    kink +- eta, so midpoint evaluation on the breakpoint-aligned partition
    integrates it exactly.  2D: midpoint rule on a uniform grid of step
    min(eta/8, R/512) restricted to the ball, with each point's exact
    diameter from row sections of the cells' eta-offsets
    (``_grid_ball_diams``).
    """
    if q <= 1:
        raise ValueError("q must exceed 1")
    if eta <= 0 or R <= 0:
        raise ValueError("eta and R must be positive")
    bound = integral_bound(f.dim, q, R, eta, f.lip)
    if f.dim == 1:
        bp = breakpoints_1d(f)
        cuts = np.concatenate([bp - eta, bp + eta])
        cuts = cuts[(cuts > -R) & (cuts < R)]
        cuts = np.unique(np.concatenate([[-R], cuts, [R]]))
        mids = 0.5 * (cuts[1:] + cuts[:-1])
        widths = np.diff(cuts)
        vals = _ball_diams(f, mids[:, None], eta)
        return IntegralDiamEstimate(float((vals ** q) @ widths), bound)
    if f.dim == 2:
        h = min(eta / 8.0, R / 512.0)
        n = int(math.ceil(2.0 * R / h))
        axis = -R + h * (np.arange(n) + 0.5)
        vals = _grid_ball_diams(f, axis, R * R, eta)
        return IntegralDiamEstimate(float((vals ** q).sum() * h * h), bound)
    raise NotImplementedError("integral scans are implemented for d in {1, 2}")


# ---------------------------------------------------------------------------
# gradient-integral inequality
# ---------------------------------------------------------------------------

def verify_lemma_diam_l1(f: MaxAffineFunction, x: np.ndarray, eta: float) -> tuple[float, float]:
    """(lhs, rhs) of  diam(active slopes over B(x,eta))
    <= (12 / (beta_d eta^d)) * integral of |grad f| over B(x, 4 eta).

    lhs is exact.  In 1D the integral is exact too (|grad f| is constant
    between kinks).  In 2D it is a midpoint rule: the centers of a 256 x 256
    grid of squares over the box around B(x, 4 eta) that lie in the disc,
    each weighted by |a_i| of its first maximal piece i (on a tie the lowest
    index wins).
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lhs = diam_subdiff_ball(f, x, eta)
    beta = unit_ball_volume(f.dim)
    if f.dim == 1:
        env_s, _, bp = f._envelope()
        cuts = np.unique(np.concatenate(
            [[x[0] - 4 * eta], bp[(bp > x[0] - 4 * eta) & (bp < x[0] + 4 * eta)], [x[0] + 4 * eta]]))
        mids = 0.5 * (cuts[1:] + cuts[:-1])
        idx = np.searchsorted(bp, mids)
        integral = float(np.abs(env_s[idx]) @ np.diff(cuts))
    elif f.dim == 2:
        h = 8.0 * eta / 256.0
        axis = h * (np.arange(256) + 0.5) - 4.0 * eta
        pts = _disc_grid(axis, 16.0 * eta * eta)
        pts += x
        norms = np.linalg.norm(f.slopes, axis=1)[np.argmax(f.piece_values(pts), axis=1)]
        integral = float(norms.sum() * h * h)
    else:
        raise NotImplementedError("implemented for d in {1, 2}")
    rhs = 12.0 / (beta * eta ** f.dim) * integral
    return lhs, rhs


# ---------------------------------------------------------------------------
# Lipschitz extension
# ---------------------------------------------------------------------------

def lipschitz_extension(f, sample_points: np.ndarray | None = None) -> MaxAffineFunction:
    """Global envelope sup over samples of f(x0) + <g(x0), . - x0>.

    A MaxAffineFunction is already the envelope of its own pieces and is
    returned unchanged.  Any other convex oracle must expose ``value(points)``
    and ``any_subgradient(points)``; supports are sampled at
    ``sample_points``.
    """
    if isinstance(f, MaxAffineFunction):
        return f
    if sample_points is None:
        raise ValueError("sample points required for non-polyhedral oracles")
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    values = np.asarray(f.value(pts), dtype=float)
    slopes = np.atleast_2d(np.asarray(f.any_subgradient(pts), dtype=float))
    return MaxAffineFunction.from_supports(pts, values, slopes)


# ---------------------------------------------------------------------------
# worst-case kink construction
# ---------------------------------------------------------------------------

def kink_ladder(n_kinks: int, lip: float, radius: float) -> MaxAffineFunction:
    """1D max-affine with n_kinks evenly spaced kinks inside [-radius, radius].

    Slopes step uniformly from -lip to +lip, so every kink carries a
    subdifferential jump of exactly 2*lip/n_kinks; the kinks sit at
    (2i/(n+1) - 1)*radius for i = 1..n.
    """
    n = int(n_kinks)
    if n < 1 or lip <= 0 or radius <= 0:
        raise ValueError("need n_kinks >= 1 and positive lip, radius")
    i = np.arange(n + 1, dtype=float)
    slopes = (2.0 * i / n - 1.0) * lip
    intercepts = (2.0 * lip * radius / (n * (n + 1.0))) * i * (n - i)
    return MaxAffineFunction(slopes[:, None], intercepts)
