"""The convex partner of a c-concave potential and the c-superdifferential
image bound, kept as test oracles: no scenario of the package runs them.

* the convex partner  |x|^2 - phi  at p = 2 is an exact max-affine
  function (``phi_to_convex``, inverted by ``convex_to_phi``);
* the c-superdifferential image of a ball and its diameter bound
  8 p (1 + R^{(p-2)/(p-1)}) (eta^{1/(p-1)} + diam(dphi(ball))^{1/(p-1)})
  come from the endpoint correspondence y = x - (grad xi_p)^{-1}(C x - g)
  (``diam_partial_c``).
"""

import numpy as np

from otpush.convex_analysis import MaxAffineFunction, _actives, diam_subdiff_ball
from otpush.pcost_maps import CConcavePotential, grad_xi_p_inverse


def active_atoms(potential: CConcavePotential, x: np.ndarray) -> np.ndarray:
    """Indices of atoms attaining the min at x (``_actives`` on the negated
    piece values: negation is exact)."""
    return np.flatnonzero(_actives(-potential.piece_values(x))[0][0])


def one_sided_derivatives(potential: CConcavePotential, x: float) -> tuple[float, float]:
    """1D left/right derivatives (min of smooth pieces: left = max of
    active piece slopes, right = min)."""
    if potential.dim != 1:
        raise ValueError("one-sided derivatives are 1D")
    idx = active_atoms(potential, np.atleast_1d(x))
    slopes = potential.piece_gradients(np.atleast_1d(x), idx)[:, 0]
    return float(slopes.max()), float(slopes.min())


def phi_to_convex(potential: CConcavePotential) -> MaxAffineFunction:
    """Convex partner |x|^2 - phi of a quadratic-cost potential: the exact
    max-affine function max_j 2<y_j, x> + (psi_j - |y_j|^2)."""
    if potential.p != 2:
        raise ValueError("the convex partner is exact for p = 2 only")
    slopes = 2.0 * potential.atoms
    intercepts = potential.offsets - (potential.atoms ** 2).sum(1)
    return MaxAffineFunction(slopes, intercepts)


def convex_to_phi(f: MaxAffineFunction, R: float, p: float = 2.0) -> CConcavePotential:
    """Inverse conversion |x|^2 - f(x) -> min form (quadratic cost only)."""
    if p != 2:
        raise ValueError("inverse conversion is specific to p = 2")
    atoms = f.slopes / 2.0
    offsets = f.intercepts + (f.slopes ** 2).sum(1) / 4.0
    return CConcavePotential(atoms, offsets, 2.0, R)


def diam_partial_c(potential: CConcavePotential, x: np.ndarray, eta: float) -> tuple[float | None, float]:
    """(exact, bound) for the diameter of the c-superdifferential image of
    B(x, eta) intersected with the domain.

    bound = 8 p (1 + R^{(p-2)/(p-1)}) (eta^{1/(p-1)} + D^{1/(p-1)}) with
    D = diam of the partner subdifferential over the ball.  The exact value
    uses the correspondence y = z - (grad xi_p)^{-1}(C z - g): monotone
    endpoint evaluation in 1D (any p), half the partner diameter for p = 2;
    None otherwise.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p, R, C = potential.p, potential.R, potential.concavity

    if potential.p == 2:
        partner = phi_to_convex(potential)
        D = diam_subdiff_ball(partner, x, eta)
        exact = D / 2.0
    elif potential.dim == 1:
        lo = max(float(x[0]) - eta, -R)
        hi = min(float(x[0]) + eta, R)
        dm_lo, _ = one_sided_derivatives(potential, lo)   # left derivative = max slope
        _, dp_hi = one_sided_derivatives(potential, hi)   # right derivative = min slope
        D = max((C * hi - dp_hi) - (C * lo - dm_lo), 0.0)  # partner subdiff range
        y_min = lo - float(grad_xi_p_inverse(np.array([dm_lo]), p)[0])
        y_max = hi - float(grad_xi_p_inverse(np.array([dp_hi]), p)[0])
        exact = max(y_max - y_min, 0.0)
    else:
        raise NotImplementedError("exact image diameter needs p = 2 or dimension 1")
    bound = 8.0 * p * (1.0 + R ** ((p - 2.0) / (p - 1.0))) * (
        eta ** (1.0 / (p - 1.0)) + D ** (1.0 / (p - 1.0)))
    return exact, bound
