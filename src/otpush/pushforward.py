"""Pushforwards of discrete measures through subdifferentials of
convex potentials and through p-cost transport maps, with explicit,
swappable subgradient-selection policies at singular points; linearized OT
interpolation between two max-affine potentials; and the Brenier-envelope
construction of a potential from a discrete OT solve.

Points are decided by the one rule of ``convex_analysis`` (``_actives``,
``_singular``): a regular point maps through its first arg-max piece, and
only singular points reach the policy, in ``_select_singular``.  The
pushforwards differ only in the polytope the policy sees and in how a pick
becomes an image.

Every result carries the coupling it came from, so the image is exactly the
second marginal of a plan supported in the relevant (c-)subdifferential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex_analysis import MaxAffineFunction, SubdiffPolytope, _actives, _singular
from .discrete_ot import Coupling, _canonical_duals, _gap_graph, cost_matrix, solve
from .geometry_measures import DiscreteMeasure, Domain
from .geometry_measures import discretize  # noqa: F401  perfbench patch target (ROADMAP direction 5)
from .pcost_maps import BoundaryEscapeError, CConcavePotential, grad_xi_p_inverse

__all__ = [
    "SelectionPolicy",
    "PushforwardResult",
    "pushforward_convex",
    "pushforward_tmap",
    "lot_interpolant",
    "potential_from_discrete_ot",
]


@dataclass(frozen=True)
class SelectionPolicy:
    """Rule choosing one subgradient from a subdifferential polytope.

    Kinds: ``min-norm`` (default; unique, stable), ``max-first`` (extreme
    vertex in the first coordinate direction, lexicographic tie-break) and
    ``fixed`` (vertex by index into the polytope's sorted vertex list).
    """

    kind: str = "min-norm"
    index: int = 0

    def __post_init__(self):
        if self.kind not in ("min-norm", "max-first", "fixed"):
            raise ValueError(f"unknown selection policy kind {self.kind!r}")

    @staticmethod
    def min_norm() -> "SelectionPolicy":
        return SelectionPolicy("min-norm")

    @staticmethod
    def max_first_coordinate() -> "SelectionPolicy":
        return SelectionPolicy("max-first")

    @staticmethod
    def fixed(index: int) -> "SelectionPolicy":
        return SelectionPolicy("fixed", index=index)

    def select(self, polytope: SubdiffPolytope) -> np.ndarray:
        if self.kind == "min-norm":
            return polytope.min_norm_point()
        if self.kind == "max-first":
            e1 = np.zeros(polytope.vertices.shape[1])
            e1[0] = 1.0
            return polytope.extreme_vertex(e1)
        if not 0 <= self.index < len(polytope.vertices):
            raise IndexError(
                f"fixed policy index {self.index} outside polytope with "
                f"{len(polytope.vertices)} vertices")
        return polytope.vertices[self.index]


@dataclass(frozen=True, eq=False)
class PushforwardResult:
    """The coupling of a pushforward, whose second marginal is the image
    measure, and the number of points where a selection policy was invoked."""

    coupling: Coupling
    singular_hits: int

    @property
    def image(self) -> DiscreteMeasure:
        return self.coupling.target


def _select_singular(policy: SelectionPolicy | None, targets: np.ndarray,
                     rows: np.ndarray, factors, polytope, image=None) -> int:
    """Count the singular rows among ``rows`` and send them through the
    policy (default min-norm); other rows keep their image in ``targets``.

    Row i is singular iff one of its active-gradient arrays ``factors(i)``
    is.  The policy picks g from the hull of ``V = polytope(i, grads)``, and
    the image becomes ``image(i, V, g)``, or g itself when ``image`` is None.
    """
    policy = policy or SelectionPolicy.min_norm()
    hits = 0
    for i in rows:
        grads = factors(i)
        if not any(_singular(g) for g in grads):
            continue
        hits += 1
        V = polytope(i, grads)
        g = policy.select(SubdiffPolytope(V))
        targets[i] = g if image is None else image(i, V, g)
    return hits


def _bundle(src: DiscreteMeasure, targets: np.ndarray, hits: int,
            image_domain: Domain) -> PushforwardResult:
    uniq, inverse = np.unique(targets, axis=0, return_inverse=True)
    w = np.zeros(len(uniq))
    np.add.at(w, inverse, src.weights)
    image = DiscreteMeasure(uniq, w, image_domain)
    coupling = Coupling(np.arange(len(src), dtype=np.int64),
                        inverse.astype(np.int64), src.weights.copy(), src, image)
    return PushforwardResult(coupling, hits)


def pushforward_convex(f: MaxAffineFunction, rho: DiscreteMeasure,
                       policy: SelectionPolicy | None = None) -> PushforwardResult:
    """Pushforward of rho through the subdifferential of a max-affine f.

    Regular atoms, tied ones included, map to the slope of their first
    arg-max piece, bitwise; atoms where the active slopes have pairwise
    diameter > 1e-10 are resolved by the policy from their hull and counted
    in ``singular_hits``.
    """
    if f.dim != rho.dim:
        raise ValueError("dimension mismatch between potential and measure")
    mask, first = _actives(f.piece_values(rho.points))
    targets = f.slopes[first].copy()
    hits = _select_singular(policy, targets, np.flatnonzero(mask.sum(axis=1) > 1),
                            lambda i: [f.slopes[mask[i]]], lambda i, grads: grads[0])
    return _bundle(rho, targets, hits, Domain.ball(np.zeros(rho.dim), max(f.lip, 1e-300)))


def pushforward_tmap(potential: CConcavePotential, rho: DiscreteMeasure,
                     policy: SelectionPolicy | None = None) -> PushforwardResult:
    """Pushforward of rho through the p-cost transport map of a potential.

    At regular points, tied ones included, the image is the first argmin
    atom (exact).  At singular points the policy picks g in the partner
    subdifferential, the hull of C x minus the active piece gradients, and
    the image is x - (grad xi_p)^{-1}(C x - g); when g is a polytope vertex
    this is snapped back to the matching atom so that vertex selections
    stay exact.  An image outside the domain ball, by the tolerance of
    ``Domain.contains`` that the image measure also applies, raises
    ``BoundaryEscapeError``.
    """
    R = potential.R
    image_domain = Domain.ball(np.zeros(rho.dim), R)
    # pieces near the min: negation is exact, so this is the max-side test
    mask, first = _actives(-potential.piece_values(rho.points))
    targets = potential.atoms[first].copy()
    x, C = rho.points, potential.concavity

    def image(i, vertices, g):
        match = np.linalg.norm(vertices - g[None, :], axis=1)
        j = int(np.argmin(match))
        if match[j] <= 1e-12 * (1.0 + np.linalg.norm(g)):
            return potential.atoms[np.flatnonzero(mask[i])[j]]
        return x[i] - grad_xi_p_inverse(C * x[i] - g, potential.p)

    hits = _select_singular(
        policy, targets, np.flatnonzero(mask.sum(axis=1) > 1),
        lambda i: [potential.piece_gradients(x[i], np.flatnonzero(mask[i]))],
        lambda i, grads: C * x[i][None, :] - grads[0], image)
    inside = image_domain.contains(targets)
    if not inside.all():
        raise BoundaryEscapeError(
            f"image point {targets[~inside][0]} escapes the ball of radius {R}")
    return _bundle(rho, targets, hits, image_domain)


def lot_interpolant(phi0: MaxAffineFunction, phi1: MaxAffineFunction, t: float,
                    rho: DiscreteMeasure, policy: SelectionPolicy | None = None
                    ) -> DiscreteMeasure:
    """Linearized-OT interpolant: pushforward of rho through the blend
    (1-t) phi0 + t phi1.

    The blend is evaluated pointwise; its subdifferential is computed
    factor-wise as the Minkowski combination (1-t) dphi0(x) + t dphi1(x)
    (recorded as the construction, not asserted to equal the blend's true
    subdifferential when active sets differ).  Points where both factors are
    regular, tied ones included, map to (1-t) g0 + t g1 with g0, g1 the
    slopes of the first arg-max pieces, bitwise equal to g0 when the two
    coincide, so identical potentials give t-independent output.  Where
    either factor is singular the policy picks from the combination.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("interpolation parameter t must lie in [0, 1]")
    if not phi0.dim == phi1.dim == rho.dim:
        raise ValueError("dimension mismatch between potentials and measure")
    if t in (0.0, 1.0):
        return pushforward_convex(phi1 if t else phi0, rho, policy).image
    (m0, first0), (m1, first1) = (_actives(f.piece_values(rho.points)) for f in (phi0, phi1))
    g0, g1 = phi0.slopes[first0], phi1.slopes[first1]
    targets = np.where(np.all(g0 == g1, axis=1)[:, None], g0, (1.0 - t) * g0 + t * g1)

    def minkowski(i, grads):  # of the active slopes; the policy's polytope dedupes it
        return ((1.0 - t) * grads[0][:, None] + t * grads[1][None]).reshape(-1, rho.dim)

    _select_singular(policy, targets, np.flatnonzero((m0.sum(1) > 1) | (m1.sum(1) > 1)),
                     lambda i: [phi0.slopes[m0[i]], phi1.slopes[m1[i]]], minkowski)
    radius = max((1.0 - t) * phi0.lip + t * phi1.lip, 1e-300)
    return _bundle(rho, targets, 0, Domain.ball(np.zeros(rho.dim), radius)).image


def potential_from_discrete_ot(rho: DiscreteMeasure, mu: DiscreteMeasure) -> MaxAffineFunction:
    """Brenier-envelope potential from a quadratic-cost discrete OT solve.

    Solves OT(rho, mu) for cost |x-y|^2 and returns the max-affine function
    x -> max_j (<y_j, x> + (v_j - |y_j|^2)/2) built from target-side dual
    values v, so that its gradient pushes each rho-atom to its coupled
    target.  The dual policy is decided here: when the plan sends every
    source whole to one target, whichever engine found it, v depends on
    the plan's gap graph alone, the max-margin point of the dual optimal
    face (``_max_margin_duals``; every argmax strict) or, with no margin,
    the canonical duals (``_canonical_duals``).  A split plan keeps the
    solver's duals.
    """
    mu_pos = mu.drop_zero_weights()[0]
    coupling, _, duals = solve(rho, mu_pos, p=2.0)
    v = duals.phi_c
    if np.array_equal(coupling.i, np.arange(len(rho))):  # ``Coupling`` sorts i
        gap = _gap_graph(cost_matrix(rho.points, mu_pos.points, 2.0), coupling.j)
        v = _max_margin_duals(gap)
        if v is None:
            v = _canonical_duals(gap, duals.phi_c)
    slopes = mu_pos.points
    intercepts = (v - (mu_pos.points ** 2).sum(axis=1)) / 2.0
    return MaxAffineFunction(slopes, intercepts)


def _max_margin_duals(gap: np.ndarray) -> np.ndarray | None:
    """Target duals v with every source preferring its assigned target by the
    largest uniform margin, or None when the assignment admits no margin.

    The constraints are v_b - v_a <= gap(a, b) := min over sources assigned
    to a of C[i, b] - C[i, a], the assignment's gap graph, whose diagonal is
    set to inf here; the best margin is half the minimum cycle mean of the
    gap digraph (Karp), and v comes from Bellman-Ford distances under the
    margin-reduced weights.
    """
    K = len(gap)
    if K == 1:
        return np.zeros(1)
    np.fill_diagonal(gap, np.inf)
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
