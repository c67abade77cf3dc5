"""Pushforwards of discrete and grid measures through subdifferentials of
convex potentials and through p-cost transport maps, with explicit,
swappable subgradient-selection policies at singular points; linearized OT
interpolation between two max-affine potentials; and the Brenier-envelope
construction of a potential from a discrete OT solve.

Every result carries the coupling it came from, so the image is exactly the
second marginal of a plan supported in the relevant (c-)subdifferential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex_analysis import MaxAffineFunction, SubdiffPolytope
from .discrete_ot import Coupling, _gap_graph, cost_matrix, solve
from .geometry_measures import DiscreteMeasure, Domain, GridDensity, discretize
from .pcost_maps import (CConcavePotential, SmoothPotential, BoundaryEscapeError,
                         grad_xi_p_inverse)

__all__ = [
    "SelectionPolicy",
    "PushforwardResult",
    "pushforward_convex",
    "pushforward_tmap",
    "lot_interpolant",
    "potential_from_discrete_ot",
]

_SING_TOL = 1e-10   # subdifferential diameter above which a point is singular
_ACT_TOL = 1e-12    # relative activity tolerance for piece values


@dataclass(frozen=True)
class SelectionPolicy:
    """Rule choosing one subgradient from a subdifferential polytope.

    Kinds: ``min-norm`` (default; unique, stable), ``max-first`` (extreme
    vertex in the first coordinate direction, lexicographic tie-break),
    ``fixed`` (vertex by index into the polytope's sorted vertex list), and
    ``user`` (one caller-supplied vector per input point, validated to lie
    in the polytope hull within 1e-8).
    """

    kind: str = "min-norm"
    index: int = 0
    vectors: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("min-norm", "max-first", "fixed", "user"):
            raise ValueError(f"unknown selection policy kind {self.kind!r}")
        if self.kind == "user":
            if self.vectors is None:
                raise ValueError("user policy needs one vector per input point")
            object.__setattr__(self, "vectors",
                               np.atleast_2d(np.asarray(self.vectors, dtype=float)))

    @staticmethod
    def min_norm() -> "SelectionPolicy":
        return SelectionPolicy("min-norm")

    @staticmethod
    def max_first_coordinate() -> "SelectionPolicy":
        return SelectionPolicy("max-first")

    @staticmethod
    def fixed(index: int) -> "SelectionPolicy":
        return SelectionPolicy("fixed", index=index)

    @staticmethod
    def user(vectors: np.ndarray) -> "SelectionPolicy":
        return SelectionPolicy("user", vectors=vectors)

    def select(self, polytope: SubdiffPolytope, point_index: int) -> np.ndarray:
        if self.kind == "min-norm":
            return polytope.min_norm_point()
        if self.kind == "max-first":
            e1 = np.zeros(polytope.vertices.shape[1])
            e1[0] = 1.0
            return polytope.extreme_vertex(e1)
        if self.kind == "fixed":
            if not 0 <= self.index < len(polytope.vertices):
                raise IndexError(
                    f"fixed policy index {self.index} outside polytope with "
                    f"{len(polytope.vertices)} vertices")
            return polytope.vertices[self.index]
        v = self.vectors[point_index]
        if not polytope.contains(v, tol=1e-8):
            raise ValueError(f"policy vector {v} lies outside the subdifferential")
        return v


@dataclass(frozen=True, eq=False)
class PushforwardResult:
    """Image measure, the coupling that produced it (image = second marginal
    exactly), and the number of points where a selection policy was invoked."""

    image: DiscreteMeasure
    coupling: Coupling
    singular_hits: int


def _as_discrete(rho) -> DiscreteMeasure:
    if isinstance(rho, GridDensity):
        return discretize(rho)
    if isinstance(rho, DiscreteMeasure):
        return rho
    raise TypeError(f"expected DiscreteMeasure or GridDensity, got {type(rho).__name__}")


def _actives(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the pieces within _ACT_TOL (1 + |best|) of each row's max,
    and each row's first argmax."""
    best = vals.max(axis=1)
    tol = _ACT_TOL * (1.0 + np.abs(best))
    return vals >= (best - tol)[:, None], np.argmax(vals, axis=1)


def _bundle(src: DiscreteMeasure, targets: np.ndarray, hits: int,
            image_domain: Domain) -> PushforwardResult:
    uniq, inverse = np.unique(targets, axis=0, return_inverse=True)
    w = np.zeros(len(uniq))
    np.add.at(w, inverse, src.weights)
    image = DiscreteMeasure(uniq, w, image_domain)
    coupling = Coupling(np.arange(len(src), dtype=np.int64),
                        inverse.astype(np.int64), src.weights.copy(), src, image)
    return PushforwardResult(image, coupling, hits)


def pushforward_convex(f: MaxAffineFunction, rho, policy: SelectionPolicy | None = None
                       ) -> PushforwardResult:
    """Pushforward of rho through the subdifferential of a max-affine f.

    Differentiable atoms map to their unique gradient (the active slope row,
    bitwise); atoms where the subdifferential has diameter > 1e-10 are
    resolved by the policy and counted in ``singular_hits``.  Grid densities
    are discretized at cell centers first.
    """
    policy = policy or SelectionPolicy.min_norm()
    src = _as_discrete(rho)
    if f.dim != src.dim:
        raise ValueError("dimension mismatch between potential and measure")
    mask, first = _actives(f.piece_values(src.points))
    targets = f.slopes[first].copy()
    hits = 0
    for i in np.flatnonzero(mask.sum(axis=1) > 1):
        poly = SubdiffPolytope(f.slopes[mask[i]])
        if poly.diam() > _SING_TOL:
            hits += 1
            targets[i] = policy.select(poly, i)
        else:
            targets[i] = poly.vertices[0]
    image_domain = Domain.ball(np.zeros(src.dim), max(f.lip, 1e-300))
    return _bundle(src, targets, hits, image_domain)


def pushforward_tmap(potential, rho, policy: SelectionPolicy | None = None
                     ) -> PushforwardResult:
    """Pushforward of rho through the p-cost transport map of a potential.

    At differentiable points the image is the potential's active atom
    (exact).  At singular points the policy picks g in the partner
    subdifferential and the image is x - (grad xi_p)^{-1}(C x - g); when g
    is a polytope vertex this is snapped back to the matching atom so that
    vertex selections stay exact.
    """
    policy = policy or SelectionPolicy.min_norm()
    src = _as_discrete(rho)
    R = potential.R
    image_domain = Domain.ball(np.zeros(src.dim), R)
    if isinstance(potential, SmoothPotential):
        grads = np.asarray(potential.grad_fn(src.points), dtype=float)
        targets = src.points - grad_xi_p_inverse(grads, potential.p)
        _check_escape(targets, R)
        return _bundle(src, targets, 0, image_domain)
    # pieces near the min: negation is exact, so this is the max-side test
    mask, first = _actives(-potential.piece_values(src.points))
    targets = potential.atoms[first].copy()
    C = potential.cost.concavity
    hits = 0
    for i in np.flatnonzero(mask.sum(axis=1) > 1):
        act = np.flatnonzero(mask[i])
        x = src.points[i]
        grads = potential.piece_gradients(x, act)
        spread = np.linalg.norm(grads - grads[0], axis=1).max()
        if spread <= _SING_TOL:
            targets[i] = potential.atoms[act[0]]
            continue
        hits += 1
        vertices = C * x[None, :] - grads
        poly = SubdiffPolytope(vertices)
        g = policy.select(poly, i)
        match = np.linalg.norm(vertices - g[None, :], axis=1)
        j = int(np.argmin(match))
        if match[j] <= 1e-12 * (1.0 + np.linalg.norm(g)):
            targets[i] = potential.atoms[act[j]]
        else:
            targets[i] = x - grad_xi_p_inverse(C * x - g, potential.p)
    _check_escape(targets, R)
    return _bundle(src, targets, hits, image_domain)


def _check_escape(targets: np.ndarray, R: float):
    worst = np.linalg.norm(targets, axis=1).max()
    if worst > R + 1e-8:
        raise BoundaryEscapeError(f"image point at radius {worst} escapes the ball of radius {R}")


def lot_interpolant(phi0: MaxAffineFunction, phi1: MaxAffineFunction, t: float,
                    rho, policy: SelectionPolicy | None = None) -> DiscreteMeasure:
    """Linearized-OT interpolant: pushforward of rho through the blend
    (1-t) phi0 + t phi1.

    The blend is evaluated pointwise; its subdifferential is computed
    factor-wise as the Minkowski combination (1-t) dphi0(x) + t dphi1(x)
    (recorded as the construction, not asserted to equal the blend's true
    subdifferential when active sets differ).  Points where both factors are
    differentiable map to (1-t) g0 + t g1, bitwise equal to g0 when the two
    gradients coincide, so identical potentials give t-independent output.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("interpolation parameter t must lie in [0, 1]")
    if t == 0.0:
        return pushforward_convex(phi0, rho, policy).image
    if t == 1.0:
        return pushforward_convex(phi1, rho, policy).image
    policy = policy or SelectionPolicy.min_norm()
    src = _as_discrete(rho)
    actives = [_actives(f.piece_values(src.points)) for f in (phi0, phi1)]
    g0 = phi0.slopes[actives[0][1]]
    g1 = phi1.slopes[actives[1][1]]
    same = np.all(g0 == g1, axis=1)
    targets = np.where(same[:, None], g0, (1.0 - t) * g0 + t * g1)
    multi = (actives[0][0].sum(1) > 1) | (actives[1][0].sum(1) > 1)
    for i in np.flatnonzero(multi):
        polys = []
        for (mask, _), f in zip(actives, (phi0, phi1)):
            polys.append(SubdiffPolytope(f.slopes[mask[i]]))
        if max(p.diam() for p in polys) <= _SING_TOL:
            if not same[i]:
                targets[i] = (1.0 - t) * polys[0].vertices[0] + t * polys[1].vertices[0]
            continue
        v0, v1 = polys[0].vertices, polys[1].vertices
        mink = ((1.0 - t) * v0[:, None, :] + t * v1[None, :, :]).reshape(-1, src.dim)
        targets[i] = policy.select(SubdiffPolytope(mink), i)
    radius = max((1.0 - t) * phi0.lip + t * phi1.lip, 1e-300)
    return _bundle(src, targets, 0, Domain.ball(np.zeros(src.dim), radius)).image


def potential_from_discrete_ot(rho, mu: DiscreteMeasure, p: float = 2.0
                               ) -> MaxAffineFunction:
    """Brenier-envelope potential from a quadratic-cost discrete OT solve.

    Solves OT(rho, mu) for cost |x-y|^2 and returns the max-affine function
    x -> max_j (<y_j, x> + (v_j - |y_j|^2)/2) built from target-side dual
    values v, so that its gradient pushes each rho-atom to its coupled
    target.  Solver duals are extreme points of the dual optimal face and
    often leave spurious ties at grid points; when the plan assigns every
    source to a single target, v is recentered to the max-margin point of
    the face (still exact optimal duals), making every argmax strict.
    """
    if p != 2:
        raise ValueError("envelope construction is specific to p = 2")
    src = _as_discrete(rho)
    mu_pos, keep_t = mu.drop_zero_weights()
    coupling, _, duals = solve(src, mu_pos, p=2.0)
    v = duals.phi_c
    ii, jj = coupling.i, coupling.j
    if np.array_equal(ii, np.arange(len(src))):  # ``Coupling`` sorts i
        v_centered = _max_margin_duals(cost_matrix(src.points, mu_pos.points, 2.0), jj,
                                       len(mu_pos))
        if v_centered is not None:
            v = v_centered
    slopes = mu_pos.points
    intercepts = (v - (mu_pos.points ** 2).sum(axis=1)) / 2.0
    return MaxAffineFunction(slopes, intercepts)


def _max_margin_duals(C: np.ndarray, assign: np.ndarray, K: int) -> np.ndarray | None:
    """Target duals v with every source preferring its assigned target by the
    largest uniform margin, or None when the assignment admits no margin.

    The constraints are v_b - v_a <= gap(a, b) := min over sources assigned
    to a of C[i, b] - C[i, a] (``discrete_ot._gap_graph``); the best margin
    is half the minimum cycle mean of the gap digraph (Karp), and v comes
    from Bellman-Ford distances under the margin-reduced weights.
    """
    if K == 1:
        return np.zeros(1)
    gap = _gap_graph(C, assign)
    np.fill_diagonal(gap, np.inf)
    if not np.isfinite(gap).any():
        return np.zeros(K)
    scale = 1.0 + np.abs(gap[np.isfinite(gap)]).max()
    big = 4.0 * scale
    W = np.where(np.isfinite(gap), gap, big)
    # Karp: d[k][v] = min weight of a k-edge walk ending at v (zero sources)
    d = np.zeros((K + 1, K))
    for k in range(1, K + 1):
        d[k] = (d[k - 1][:, None] + W).min(axis=0)
    with np.errstate(invalid="ignore"):
        ratios = (d[K][None, :] - d[:K]) / (K - np.arange(K))[:, None]
    mcm = np.nanmax(ratios, axis=0).min()
    if not np.isfinite(mcm) or mcm <= 1e-9 * scale:
        return None
    delta = min(mcm / 2.0, scale)
    Wd = W - delta
    v = np.zeros(K)
    for _ in range(K - 1):
        nv = np.minimum(v, (v[:, None] + Wd).min(axis=0))
        if np.array_equal(nv, v):
            break
        v = nv
    # certify strict margins under the centered duals
    slack = (gap - (v[None, :] - v[:, None]))[np.isfinite(gap)]
    if slack.min() <= 0:
        return None
    return v
