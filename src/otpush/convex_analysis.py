"""Polyhedral convex Lipschitz functions with exact subdifferential geometry.

The central object is :class:`MaxAffineFunction` f(x) = max_i <a_i, x> + b_i.
On top of it this module provides

* subdifferentials on the one activity rule (:func:`subdifferential`) and
  exact diameters of subdifferential images of balls
  (:func:`diam_subdiff_ball`),
* the near-singularity set scan and its greedy covering
  (:func:`covering_number_sigma`), reported with the count bound
  48 d^2 (R+4eta)^{d-1} Lip / (alpha eta^{d-1}) that the caller audits,
* the integral diameter estimate with its bound
  48 d^2 beta_d 2^{3d+q-1} (q/(q-1)) (R+4eta)^{d-1} Lip^q eta,
* the L1-gradient diameter inequality check (:func:`verify_lemma_diam_l1`),
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
point gets the same bits alone as inside a batch.  The lemma check's 2D
right-hand side is a midpoint rule that weights each grid point by its
first arg-max piece; it evaluates piece values on every eighth column of
each row and fills a span between two samples without evaluating it when
both pick the same piece by a gap above M = 64 eps (1 + scale), more than
four times the rounding error of a piece value.  Piece differences are
affine along a row, so no point of such a span can round to another
arg-max or a tie, and the other spans are evaluated on their own points:
the bits are those of the arg-max over every grid point.

One rule decides a single point for every pushforward, map and gradient
of the package: a piece is active within 1e-12 (1 + |max|) of the row max
(``_actives``; min forms pass negated values, which is exact), the point is
singular iff the active gradients have pairwise diameter > 1e-10
(``_singular``), and a regular point maps through its first arg-max piece.
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
    "kink_ladder",
    "breakpoints_1d",
]

_TIE_TOL = 1e-12    # piece-value ties: absolute in ball scans, relative in _actives
_SING_TOL = 1e-10   # pairwise diameter of active gradients above which x is singular
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

    # internal: cached upper envelope for 1D queries --------------------
    def _envelope(self):
        """(slopes, intercepts, breakpoints) of the upper envelope: pieces
        by slope, the largest intercept per slope, through ``_envelope_1d``."""
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
        lead, cuts = _envelope_1d(len(s), lambda i, j: (b[i] - b[j]) / (s[j] - s[i]))
        env = (s[lead], b[lead], np.array(cuts))
        object.__setattr__(self, "_env", env)
        return env


def _envelope_1d(n: int, crossing) -> tuple[list[int], list[float]]:
    """Leading pieces, left to right, of n pieces on the line, and the cuts
    between them; piece j > i leads piece i right of ``crossing(i, j)``.  A
    monotone stack: a piece overtaken at or left of its own cut is popped."""
    lead, cuts = [0], []
    for j in range(1, n):
        x = crossing(lead[-1], j)
        while cuts and x <= cuts[-1]:
            lead.pop()
            cuts.pop()
            x = crossing(lead[-1], j)
        lead.append(j)
        cuts.append(x)
    return lead, cuts


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

    def is_singleton(self) -> bool:
        return not _singular(self.vertices)

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

    def min_norm_point(self) -> np.ndarray:
        return self.project(np.zeros(self.dim))[0]


def _pairwise_diam(vectors: np.ndarray) -> float:
    v = np.atleast_2d(vectors)
    if v.shape[0] <= 1:
        return 0.0
    return float(np.sqrt(_kernels.pair_dist2(v).max()))


def _actives(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the pieces within _TIE_TOL (1 + |best|) of each row's max,
    and each row's first argmax: the one activity test."""
    best = vals.max(axis=1)
    tol = _TIE_TOL * (1.0 + np.abs(best))
    return vals >= (best - tol)[:, None], np.argmax(vals, axis=1)


def _singular(grads: np.ndarray) -> bool:
    """Whether active gradients have pairwise diameter > _SING_TOL: the one
    singular-point test."""
    return _pairwise_diam(grads) > _SING_TOL


_VERTEX_PAIRS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _vertex_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(k, 1)``, kept per k: building it takes longer than
    projecting onto a hull of a few vertices."""
    if k not in _VERTEX_PAIRS:
        _VERTEX_PAIRS[k] = np.triu_indices(k, 1)
    return _VERTEX_PAIRS[k]


def subdifferential(f: MaxAffineFunction, x: np.ndarray) -> SubdiffPolytope:
    """Hull of the slopes of the pieces active at x (``_actives``)."""
    return SubdiffPolytope(f.slopes[_actives(f.piece_values(x))[0][0]])


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


def _require_positive(**values: float) -> None:
    """ValueError naming the first of ``values`` that is not finite and > 0."""
    for name, v in values.items():
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {v!r}")


def diam_subdiff_ball(f: MaxAffineFunction, x: np.ndarray, eta: float) -> float:
    """Exact diameter of the set of slopes active somewhere in B(x, eta)."""
    _require_positive(eta=eta)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(_ball_diams(f, x[None, :], eta)[0])


# ---------------------------------------------------------------------------
# singular-set covering
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SingularSetReport:
    """Greedy 8-eta covering of the detected near-singularity set and its
    count bound; the caller compares the two (the singularity suite records
    a count above the bound as a failure)."""

    centers: np.ndarray
    bound: float

    @property
    def count(self) -> int:
        return len(self.centers)


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


def _disc_rows(axis: np.ndarray, r2: float):
    """(first, stop, start) of each row of ``_disc_mask(axis, r2)``: its
    first column, one past its last, and the index of its first point in
    ``_disc_grid`` order (with the point count appended)."""
    inside = _disc_mask(axis, r2)
    first = inside.argmax(axis=1)
    stop = first + inside.sum(axis=1)
    start = np.concatenate([[0], np.cumsum(stop - first)])
    return first, stop, start


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
    first, stop, start = _disc_rows(axis, r2)
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
    _require_positive(eta=eta, alpha=alpha, R=R)
    d = f.dim
    bound = count_bound(d, R, eta, alpha, f.lip)
    if alpha > 2.0 * f.lip:
        return SingularSetReport(np.empty((0, d)), bound)
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
    return SingularSetReport(centers, bound)


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
    if not 1.0 < q < math.inf:
        raise ValueError(f"q must be finite and exceed 1, got {q!r}")
    _require_positive(eta=eta, R=R)
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

# Column stride of the sampled arg-max in the lemma's right-hand side.
_LEMMA_STRIDE = 8


def _lemma_pieces(f: MaxAffineFunction, x: np.ndarray, eta: float, axis: np.ndarray) -> np.ndarray:
    """The first arg-max piece of a 2D f at every point of
    ``_disc_grid(axis, 16 eta^2) + x``, in its order, from piece values on
    sampled columns (see ``verify_lemma_diam_l1``)."""
    A, B = f.slopes, f.intercepts
    first, stop, start = _disc_rows(axis, 16.0 * eta * eta)
    lens = stop - first

    def first_argmax(rows, offsets):
        pts = np.stack([axis[rows], axis[first[rows] + offsets]], axis=1)
        pts += x
        vals = f.piece_values(pts)
        return vals, np.argmax(vals, axis=1)

    # samples: column offsets 0, S, 2S, ... and lens - 1 of each row, in
    # point order, so a row's last sample is next to the next row's first
    count = np.where(lens > 0, (lens + _LEMMA_STRIDE - 2) // _LEMMA_STRIDE + 1, 0)
    row = np.repeat(np.arange(len(axis)), count)
    col = np.minimum(_ranges(np.zeros_like(count), count) * _LEMMA_STRIDE, lens[row] - 1)
    at = start[row] + col
    vals, top = first_argmax(row, col)
    piece = np.repeat(top, np.diff(at, append=start[-1]))  # each sample's piece up to the next

    # the top two values, a column at a time (no second one for one piece)
    best = np.full(len(top), -np.inf)
    second = best.copy()
    for v in vals.T:
        np.maximum(second, np.minimum(best, v), out=second)
        np.maximum(best, v, out=best)
    scale = np.abs(A).sum(axis=1).max() * (np.abs(x).max() + 4.0 * eta) + np.abs(B).max()
    sure = best - second > 64.0 * np.finfo(float).eps * (1.0 + scale)

    # spans between neighbouring samples that are not certain
    inner = np.diff(at) - 1  # 0 between rows
    open_ = (inner > 0) & ~((top[:-1] == top[1:]) & sure[:-1] & sure[1:])
    rows = np.repeat(row[:-1][open_], inner[open_])
    idx = _ranges(at[:-1][open_] + 1, at[1:][open_])
    piece[idx] = first_argmax(rows, idx - start[rows])[1]
    return piece


def verify_lemma_diam_l1(f: MaxAffineFunction, x: np.ndarray, eta: float) -> tuple[float, float]:
    """(lhs, rhs) of  diam(active slopes over B(x,eta))
    <= (12 / (beta_d eta^d)) * integral of |grad f| over B(x, 4 eta).

    lhs is exact.  In 1D the integral is exact too (|grad f| is constant
    between kinks).  In 2D it is a midpoint rule: the centers of a 256 x 256
    grid of squares over the box around B(x, 4 eta) that lie in the disc,
    each weighted by |a_i| of its first maximal piece i (on a tie the lowest
    index wins), summed in row-major point order.

    The pieces come from sampled columns, with the bits of ``np.argmax`` on
    the piece values of every grid point at once.  Piece values are
    computed at columns 0, S, 2S, ... of each row of the disc and at its
    last column (S = ``_LEMMA_STRIDE`` = 8).  Two neighbouring samples of a
    row that pick the same first arg-max i, each with a top-two gap above
    M = 64 eps (1 + scale), give i to every column between them; scale =
    max_i |a_i|_1 (|x|_inf + 4 eta) + max_i |b_i| bounds the terms of every
    piece value.  Along a row the exact difference f_i - f_j is affine in
    the column coordinate, and a computed piece value (a two-term dot
    product plus the intercept) is off by E <= 3u scale, u = eps / 2.  So
    a computed gap above M at both ends is an exact gap above M - 2E at
    both ends, and hence between them, and a computed gap above
    M - 4E > 0 there: the dense ``argmax`` picks i, with no tie.  The
    points of every other span get ``np.argmax`` of their own piece
    values, which have the bits of the same rows in any batch
    (``_batch_product``).  The norms are summed in one array in point
    order, so the pairwise summation, and the sum, are those of the dense
    computation.  About 16 % of the grid points are evaluated on the
    ``scan`` benchmark's calls.
    """
    _require_positive(eta=eta)
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
        piece = _lemma_pieces(f, x, eta, axis)
        norms = np.linalg.norm(f.slopes, axis=1)[piece]
        integral = float(norms.sum() * h * h)
    else:
        raise NotImplementedError("implemented for d in {1, 2}")
    rhs = 12.0 / (beta * eta ** f.dim) * integral
    return lhs, rhs


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
