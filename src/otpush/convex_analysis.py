"""Polyhedral convex Lipschitz functions with exact subdifferential geometry.

The central object is :class:`MaxAffineFunction` f(x) = max_i <a_i, x> + b_i.
On top of it this module provides

* exact diameters of subdifferential images of balls
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
eta of x: x meets the cell's inequalities or lies within eta of one of its
edges, the parts of its tie lines that the other pieces leave, found with no
box and so independent of the query (``_cell_edges``, ``_cell_active``).
That predicate is the one rule for every 2D query.  A one-point query runs
it on every piece (``_cell_actives_2d``); the grid scans of the covering and
the integral mark each row's section of every cell's eta-offset directly and
run it only on a few columns around the section ends and on the rows nearly
tangent to the offset.  A grid scan holds one float64 per grid point plus
one block of activity: the predicate runs on at most ``_BLOCK`` points (or
one row) at a time, each piece keeps its runs of active points (sure, or
wholly active under the predicate) and its other active exact points, and
the activity mask is built from them one block of ``_BLOCK`` points at a
time.  Products of points with slopes go through
``_batch_product``, so a point gets the same bits alone as inside a batch.
The lemma check's 2D right-hand side is a midpoint rule that weights each
grid point by its first arg-max piece; it evaluates piece values on every
eighth column of each row and fills a span between two samples without
evaluating it when both pick the same piece by a gap above M, more than
four times the rounding error of a piece value (M = 64 eps (1 + scale)).
Piece differences are affine along a row, so no point of such a span can
round to another arg-max or a tie, and the other spans are evaluated on
their own points: the bits are those of the arg-max over every grid point.

One rule decides a single point for every pushforward, map and gradient
of the package: a piece is active within 1e-12 (1 + |max|) of the row max
(``_actives``; min forms pass negated values, which is exact), the point is
singular iff the active gradients have pairwise diameter > 1e-10
(``_singular``), and a regular point maps through its first arg-max piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import _kernels
from .geometry_measures import _row_runs, _sorted_distinct, unit_ball_volume

__all__ = [
    "MaxAffineFunction",
    "SubdiffPolytope",
    "SingularSetReport",
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
    @cached_property
    def _envelope(self):
        """(slopes, intercepts, breakpoints) of the upper envelope: pieces
        by slope, the largest intercept per slope, through ``_envelope_1d``."""
        if self.dim != 1:
            raise ValueError("envelope is a 1D structure")
        order = np.lexsort((-self.intercepts, self.slopes[:, 0]))
        s = self.slopes[order, 0]
        b = self.intercepts[order]
        keep = np.ones(len(s), dtype=bool)
        keep[1:] = s[1:] > s[:-1]  # equal slopes: first (largest b) wins
        s, b = s[keep], b[keep]
        lead, cuts = _envelope_1d(len(s), lambda i, j: (b[i] - b[j]) / (s[j] - s[i]))
        return s[lead], b[lead], np.array(cuts)


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
    return f._envelope[2].copy()


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
        order, first = _row_runs(v)  # the first row given of each run stays
        object.__setattr__(self, "vertices", v[order[first]])

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

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


@cache
def _vertex_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(k, 1)``, kept per k: building it takes longer than
    projecting onto a hull of a few vertices."""
    return np.triu_indices(k, 1)


# ---------------------------------------------------------------------------
# active slopes over balls
# ---------------------------------------------------------------------------

def _active_run_1d(f: MaxAffineFunction, lo: np.ndarray, hi: np.ndarray):
    """Envelope index range [i_lo, i_hi] active on closed windows [lo, hi]."""
    env_s, _, bp = f._envelope
    i_lo = np.searchsorted(bp, lo - _TIE_TOL, side="left")
    i_hi = np.searchsorted(bp, hi + _TIE_TOL, side="right")
    return env_s, i_lo, i_hi


def _ball_diams_1d(f: MaxAffineFunction, centers: np.ndarray, eta: float) -> np.ndarray:
    env_s, i_lo, i_hi = _active_run_1d(f, centers - eta, centers + eta)
    return env_s[i_hi] - env_s[i_lo]


def _cell_edges(A: np.ndarray, B: np.ndarray, i: int):
    """The edges (p, e, lo, hi) of piece i's cell {z : n_j . z + c_j >= 0
    for all j != i}, n_j = a_i - a_j, c_j = b_i - b_j + tol, with no box: for
    each n_j != 0 its line as p + t e (e is n_j turned a quarter) and the
    interval [lo, hi] of t, either end possibly infinite, that the other
    half-planes leave: n_l . e > 0 raises lo, n_l . e < 0 lowers hi, and
    n_l . e = 0 with n_l . p + c_l < 0 empties the edge.  Half-planes equal
    to the line's own (duplicated pieces) are skipped, normals are scaled to
    max-norm 1 so |n|^2 cannot underflow, and empty edges and lines whose p
    is beyond the float range are dropped: an empty cell and the whole plane
    have no edges."""
    n = A[i] - np.delete(A, i, axis=0)
    c = B[i] - np.delete(B, i) + _TIE_TOL
    scale = np.abs(n).max(axis=1)
    line = scale > 0
    scale[~line] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n /= scale[:, None]
        c /= scale
        ln, lc = n[line], c[line]
        p = ln * (-lc / np.vecdot(ln, ln))[:, None]
        e = np.stack([-ln[:, 1], ln[:, 0]], axis=1)
        s = e[:, :1] * n[:, 0] + e[:, 1:] * n[:, 1]  # (line, half-plane)
        g = p[:, :1] * n[:, 0] + p[:, 1:] * n[:, 1] + c
        own = (n == ln[:, None, :]).all(axis=2) & (c == lc[:, None])
        s[own] = g[own] = 0.0
        t = -g / s
    lo = np.where(s > 0, t, -np.inf).max(axis=1, initial=-np.inf)
    hi = np.where(s < 0, t, np.inf).min(axis=1, initial=np.inf)
    keep = (lo <= hi) & ~((s == 0) & (g < 0)).any(axis=1) & np.isfinite(p).all(axis=1)
    return p[keep], e[keep], lo[keep], hi[keep]


def _cell_active(A: np.ndarray, B: np.ndarray, i: int, edges,
                 centers: np.ndarray, eta: float) -> np.ndarray:
    """Whether piece i's cell comes within eta of each center: the center
    meets the cell's inequalities, or its squared distance to an edge
    (``_cell_edges``) at its projection clipped to [lo, hi] is at most
    eta^2.  ``np.fmin`` passes over the NaN of an overflowed distance."""
    g = _batch_product(centers, (A[i] - A).T)
    g += B[i] - B + _TIE_TOL
    active = np.ones(len(centers), dtype=bool)
    for j in range(len(B)):
        active &= g[:, j] >= 0
    x, y = centers[:, 0], centers[:, 1]
    d2 = np.full(len(centers), np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for (px, py), (ex, ey), lo, hi in zip(*(a.tolist() for a in edges)):
            wx, wy = x - px, y - py
            t = np.clip((wx * ex + wy * ey) / (ex * ex + ey * ey), lo, hi)
            wx -= t * ex
            wy -= t * ey
            np.fmin(d2, wx * wx + wy * wy, out=d2)
    active |= d2 <= eta * eta
    return active


def _cell_actives_2d(f: MaxAffineFunction, centers: np.ndarray, eta: float) -> np.ndarray:
    """Exact (k, npts) mask of the pieces active somewhere in each B(x, eta):
    piece i is active iff its cell comes within eta of x (``_cell_active``)."""
    A, B = f.slopes, f.intercepts
    active = np.empty((len(B), len(centers)), dtype=bool)
    for i in range(len(B)):
        active[i] = _cell_active(A, B, i, _cell_edges(A, B, i), centers, eta)
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


def _finite_center(x: np.ndarray) -> np.ndarray:
    """x as a 1D float array; ValueError naming x if an entry is not finite."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError(f"x must be finite, got {x!r}")
    return x


def diam_subdiff_ball(f: MaxAffineFunction, x: np.ndarray, eta: float) -> float:
    """Exact diameter of the set of slopes active somewhere in B(x, eta)."""
    _require_positive(eta=eta)
    x = _finite_center(x)
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


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The integer ranges [lo[t], hi[t]) (each lo <= hi), concatenated."""
    lens = hi - lo
    offsets = np.cumsum(lens) - lens  # where each range starts in the output
    return np.arange(lens.sum()) + np.repeat(lo - offsets, lens)


# Points per block of a 2D grid scan: the disc rows are found and the
# activity mask is built one block at a time.
_BLOCK = 1 << 15


def _disc_rows(axis: np.ndarray, r2: float):
    """(first, stop, start) of each row of the grid points (axis[i], axis[j])
    with axis[i]^2 + axis[j]^2 <= r2: its first column, one past its last,
    and the index of its first point in ``_disc_grid`` order (with the point
    count appended).  On an increasing axis each row's points are one run of
    columns; the comparison runs on blocks of rows."""
    sq = axis * axis
    n = len(axis)
    first = np.empty(n, dtype=np.intp)
    count = np.empty(n, dtype=np.intp)
    step = max(1, _BLOCK // n)
    for r in range(0, n, step):
        inside = sq[r:r + step, None] + sq[None, :] <= r2
        first[r:r + step] = inside.argmax(axis=1)
        count[r:r + step] = inside.sum(axis=1)
    start = np.concatenate([[0], np.cumsum(count)])
    return first, first + count, start


def _disc_grid(axis: np.ndarray, r2: float) -> np.ndarray:
    """Points (axis[i], axis[j]) with axis[i]^2 + axis[j]^2 <= r2, in
    row-major (i, j) order, from the row runs of ``_disc_rows``."""
    first, stop, _ = _disc_rows(axis, r2)
    rows = np.repeat(np.arange(len(axis)), stop - first)
    return np.stack([axis[rows], axis[_ranges(first, stop)]], axis=1)


def _scan_axis(R: float, step: float) -> np.ndarray:
    """-R, -R + step, ... up to R, with R appended when the steps stop short."""
    n = int(math.floor(2.0 * R / step + 1e-9))
    axis = -R + step * np.arange(n + 1)
    if axis[-1] < R - 1e-12:
        axis = np.append(axis, R)
    return axis


# Columns on each side of a row section's ends that the exact predicate decides.
_BAND = 3


def _row_span(c: float, lo: np.ndarray, hi: np.ndarray):
    """The v with lo <= c v <= hi, as (low end, high end); empty rows get
    (inf, -inf)."""
    if c > 0:
        return lo / c, hi / c
    if c < 0:
        return hi / c, lo / c
    hit = (lo <= 0) & (hi >= 0)
    return np.where(hit, -np.inf, np.inf), np.where(hit, np.inf, -np.inf)


def _offset_sections(edges, x: np.ndarray, eta: float):
    """Ends (lo, hi) of the sections of the rows {(x[r], y)} through the
    points within eta of the cell with ``edges``: lo = inf, hi = -inf on a
    row that misses them.

    That set is the cell together with the stadiums edge + B(0, eta), so
    each end is the outermost end of the cell's section and the stadium
    sections.  The cell is the intersection of its edges' half-planes, and
    its section is infinite where the cell is.  A stadium is the discs
    around its edge's finite ends and the strip of points projecting onto
    the edge within eta of it, cut out by four half-planes."""
    lo, hi = np.full(len(x), np.inf), np.full(len(x), -np.inf)
    cell_lo, cell_hi = -lo, -hi
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for (px, py), (ex, ey), a, b in zip(*(v.tolist() for v in edges)):
            # v = y - p_y: the cell's side is u e_y - v e_x >= 0
            u = x - px
            side = _row_span(-ex, -u * ey, np.inf)
            np.maximum(cell_lo, py + side[0], out=cell_lo)
            np.minimum(cell_hi, py + side[1], out=cell_hi)
            for t in (a, b):  # an infinite end's disc meets no row
                chord2 = eta * eta - (u - t * ex) ** 2
                hit = chord2 >= 0
                half = np.sqrt(np.where(hit, chord2, 0.0))
                np.minimum(lo, np.where(hit, py + t * ey - half, np.inf), out=lo)
                np.maximum(hi, np.where(hit, py + t * ey + half, -np.inf), out=hi)
            # a |e|^2 <= u e_x + v e_y <= b |e|^2 and |u e_y - v e_x| <= eta |e|
            ee = ex * ex + ey * ey
            along = _row_span(ey, a * ee - u * ex, b * ee - u * ex)
            width = eta * math.sqrt(ee)
            across = _row_span(ex, u * ey - width, u * ey + width)
            v_lo = np.maximum(along[0], across[0])
            v_hi = np.minimum(along[1], across[1])
            hit = v_lo <= v_hi
            np.minimum(lo, np.where(hit, py + v_lo, np.inf), out=lo)
            np.maximum(hi, np.where(hit, py + v_hi, -np.inf), out=hi)
    met = cell_lo <= cell_hi
    return np.minimum(lo, cell_lo, out=lo, where=met), np.maximum(hi, cell_hi, out=hi, where=met)


def _grid_ball_diams(f: MaxAffineFunction, axis: np.ndarray, r2: float, eta: float) -> np.ndarray:
    """Exact diameter of the slopes active in B(x, eta) at every point of
    ``_disc_grid(axis, r2)`` in its order, for a 2D f: the bits of
    ``_ball_diams`` on each point, alone or in any batch.

    Piece i is active in B(x, eta) iff x lies within eta of its cell, and
    each grid row (fixed axis[r], varying axis[c]) meets that convex set in
    one section (``_offset_sections``).  Points more than ``_BAND`` columns
    inside a section are active and points more than ``_BAND`` columns
    outside it are not: a margin of at least two grid steps, far above
    rounding.  The exact predicate ``_cell_active`` decides the band points
    in between, and every point of the rows within ``_BAND + 1`` rows of
    the set's leftmost or rightmost x (from the edges' ends), where
    rows cross its boundary nearly tangentially and a column margin is no
    distance margin; it decides every point for a cell with no edge.

    Memory: the exact predicate runs on at most ``_BLOCK`` points (or one
    row) at a time.  Each piece keeps runs of point indices (its sure runs
    and the spans the predicate finds wholly active, so a cell with no edge
    keeps one run per active row) and the indices of its other active exact
    points.  The (k, ``_BLOCK``) activity mask is built from them one block
    of points at a time and reduced by ``_kernels.active_diam2`` into the
    one float64 array returned, square rooted in place: one float64 per
    grid point plus one block of activity.
    """
    A, B = f.slopes, f.intercepts
    n = len(axis)
    first, stop, start = _disc_rows(axis, r2)
    npts = int(start[-1])
    rows = np.arange(n)
    marks = []  # per piece: runs [run_from, run_to) of active points, other active points
    for i in range(len(B)):
        p, e, t_lo, t_hi = edges = _cell_edges(A, B, i)
        # x at the edges' ends: a vertical edge's x, else +-inf at an infinite t
        with np.errstate(invalid="ignore", over="ignore"):
            ends = np.where(e[:, 0] == 0, p[:, 0], p[:, 0] + np.stack([t_lo, t_hi]) * e[:, 0])
        r0 = np.searchsorted(axis, ends.min(initial=np.inf) - eta)
        r1 = np.searchsorted(axis, ends.max(initial=-np.inf) + eta, side="right") - 1
        full = (len(p) == 0) | (np.abs(rows - r0) <= _BAND + 1) | (np.abs(rows - r1) <= _BAND + 1)
        cut = rows[~full]
        lo, hi = _offset_sections(edges, axis[cut], eta)
        met = lo <= hi
        cut, lo, hi = cut[met], lo[met], hi[met]
        c_lo = np.searchsorted(axis, lo)  # first column in the section
        c_hi = np.searchsorted(axis, hi, side="right")  # first column past it
        sure_lo = c_lo + _BAND
        sure_hi = np.maximum(c_hi - _BAND, sure_lo)

        # sure columns: runs of point indices, in point order
        a = np.clip(sure_lo, first[cut], stop[cut])
        b = np.clip(sure_hi, first[cut], stop[cut])
        some = a < b
        to_index = start[cut] - first[cut]
        run_from, run_to = (a + to_index)[some], (b + to_index)[some]

        # band columns and full rows: the exact predicate, on spans of
        # columns grouped into at most _BLOCK points (or one row); a span
        # it finds wholly active becomes a run
        whole = rows[full]
        r = np.concatenate([cut, cut, whole])
        c_from = np.concatenate([c_lo - _BAND, sure_hi, first[whole]])
        c_to = np.concatenate([sure_lo, c_hi + _BAND, stop[whole]])
        c_from = np.clip(c_from, first[r], stop[r])
        c_to = np.clip(c_to, c_from, stop[r])
        some = c_from < c_to
        r, c_from, lens = r[some], c_from[some], (c_to - c_from)[some]
        ends = np.cumsum(lens)
        runs, exact = [(run_from, run_to)], [np.empty(0, dtype=np.intp)]
        g = 0
        while g < len(r):
            h = max(g + 1, np.searchsorted(ends, ends[g] - lens[g] + _BLOCK, side="right"))
            rg, cg, lg = r[g:h], c_from[g:h], lens[g:h]
            cols = _ranges(cg, cg + lg)
            rr = np.repeat(rg, lg)
            act = _cell_active(A, B, i, edges, np.stack([axis[rr], axis[cols]], axis=1), eta)
            all_active = np.logical_and.reduceat(act, np.cumsum(lg) - lg)
            span_from = (start[rg] + cg - first[rg])[all_active]
            runs.append((span_from, span_from + lg[all_active]))
            exact.append((start[rr] + cols - first[rr])[act & ~np.repeat(all_active, lg)])
            g = h
        run_from, run_to = (np.concatenate(v) for v in zip(*runs))
        order = np.argsort(run_from)
        exact = np.concatenate(exact)
        exact.sort()
        marks.append((run_from[order], run_to[order], exact))

    pair_d2 = _kernels.pair_dist2(A)
    out = np.empty(npts)
    active = np.empty((len(B), _BLOCK), dtype=bool)
    for s in range(0, npts, _BLOCK):
        e = min(s + _BLOCK, npts)
        block = active[:, :e - s]
        block[:] = False
        for i, (run_from, run_to, exact) in enumerate(marks):
            # the sure runs meeting [s, e), cut to it, and the exact points in it
            j0, j1 = np.searchsorted(run_to, s, side="right"), np.searchsorted(run_from, e)
            block[i, _ranges(np.maximum(run_from[j0:j1], s), np.minimum(run_to[j0:j1], e)) - s] = True
            block[i, exact[np.searchsorted(exact, s):np.searchsorted(exact, e)] - s] = True
        out[s:e] = _kernels.active_diam2(block, pair_d2)
    return np.sqrt(out, out=out)


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
        cuts = _sorted_distinct(np.concatenate([[-R], cuts, [R]]))
        mids = 0.5 * (cuts[1:] + cuts[:-1])
        widths = np.diff(cuts)
        vals = _ball_diams(f, mids[:, None], eta)
        return IntegralDiamEstimate(float((vals ** q) @ widths), bound)
    if f.dim == 2:
        h = min(eta / 8.0, R / 512.0)
        n = int(math.ceil(2.0 * R / h))
        axis = -R + h * (np.arange(n) + 0.5)
        vals = _grid_ball_diams(f, axis, R * R, eta)
        vals **= q  # in place; one pairwise sum over the whole array
        return IntegralDiamEstimate(float(vals.sum() * h * h), bound)
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
    x = _finite_center(x)
    lhs = diam_subdiff_ball(f, x, eta)
    beta = unit_ball_volume(f.dim)
    if f.dim == 1:
        env_s, _, bp = f._envelope
        cuts = _sorted_distinct(np.concatenate(
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
