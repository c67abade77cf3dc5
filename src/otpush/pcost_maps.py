"""p-cost machinery: xi_p(z) = |z|^p gradients with a Holder-certified
inverse and c-concave potentials in Laguerre (min) form.

A c-concave potential is stored as phi(x) = min_j xi_p(x - y_j) - psi_j,
which is the cbar-transform of the finitely supported function psi and is
therefore exactly c-concave (fixed point of the double transform).  Every
derived quantity factors through this form, and is decided here once:

* T_phi(x) = x - (grad xi_p)^{-1}(grad phi(x)) equals the active atom y_j*
  exactly, so ``pushforward.pushforward_tmap`` maps differentiable points
  with no roundoff;
* activity, singularity (active piece gradients of pairwise diameter
  > 1e-10) and the regular image (the first argmin atom) follow the one
  rule of ``convex_analysis`` (``_actives`` on negated values, ``_singular``);
* the 1D Laguerre cells, whose cuts are the kinks of T_phi, are cached on
  the potential (``_cells_1d``, via ``convex_analysis._envelope_1d``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .convex_analysis import _envelope_1d
from .discrete_ot import cost_matrix

__all__ = [
    "CConcavePotential",
    "BoundaryEscapeError",
    "grad_xi_p",
    "grad_xi_p_inverse",
]


class BoundaryEscapeError(RuntimeError):
    """The transported point left the closed domain ball."""


def _norms(z: np.ndarray) -> np.ndarray:
    return np.sqrt((z * z).sum(axis=-1, keepdims=True))


def grad_xi_p(z: np.ndarray, p: float) -> np.ndarray:
    """p z |z|^{p-2} (0 at 0); exact 2z for p = 2."""
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    zz = np.atleast_2d(z)
    if p == 2:
        out = 2.0 * zz
    else:
        out = p * zz * _norms(zz) ** (p - 2.0)
    return out[0] if single else out


def grad_xi_p_inverse(z: np.ndarray, p: float) -> np.ndarray:
    """z / (p^{1/(p-1)} |z|^{(p-2)/(p-1)}) with 0 mapped to 0."""
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    zz = np.atleast_2d(z)
    if p == 2:
        out = zz / 2.0
    else:
        n = _norms(zz)
        safe = np.maximum(n, 1e-300)
        out = np.where(n > 1e-300, zz / (p ** (1.0 / (p - 1.0)) * safe ** ((p - 2.0) / (p - 1.0))), 0.0)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# c-concave potentials in min form
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CConcavePotential:
    """phi(x) = min_j |x - y_j|^p - psi_j on the ball B(0, R).

    As a cbar-transform of a finitely supported function, phi satisfies
    phi = (phi^c)^cbar by construction.
    """

    atoms: np.ndarray
    offsets: np.ndarray
    p: float
    R: float

    def __post_init__(self):
        y = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        psi = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if y.shape[0] != psi.shape[0] or y.shape[0] == 0:
            raise ValueError("need one offset per atom, at least one atom")
        if not (np.isfinite(y).all() and np.isfinite(psi).all()):
            raise ValueError("atoms and offsets must be finite")
        if not 2 <= self.p < np.inf:
            raise ValueError("cost exponent must be finite and satisfy p >= 2")
        if not 0 < self.R < np.inf:
            raise ValueError("domain radius must be positive and finite")
        object.__setattr__(self, "atoms", y)
        object.__setattr__(self, "offsets", psi)

    @property
    def concavity(self) -> float:
        """C_{p,R}: x -> C|x|^2/2 - xi_p(x) is concave on B(0, R)."""
        return self.p * (self.p - 1.0) * self.R ** (self.p - 2.0)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    def piece_values(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return cost_matrix(pts, self.atoms, self.p) - self.offsets

    def value(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        single = points.ndim <= 1
        vals = self.piece_values(points).min(axis=1)
        return float(vals[0]) if single else vals

    def piece_gradients(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return grad_xi_p(x[None, :] - self.atoms[idx], self.p)

    @cached_property
    def _cells_1d(self) -> tuple[np.ndarray, np.ndarray]:
        """Laguerre cells on the line, cached: the pieces that are the min
        somewhere, left to right, and the cuts between them."""
        if self.dim != 1:
            raise ValueError("Laguerre cells on the line need a 1D potential")
        if not (np.diff(self.atoms[:, 0]) > 0.0).all():
            raise ValueError("atoms must be strictly increasing")
        lead, cuts = _envelope_1d(len(self.atoms), lambda i, j: _piece_crossing(self, i, j))
        return np.array(lead), np.array(cuts, dtype=float)

    def max_active_distance(self, n: int) -> float:
        """Largest |x - y_active(x)| over a grid on the domain ball.

        A value <= R says that the Lipschitz / partner-convexity constants of
        the cost apply to every active difference at the grid points.  It is
        a sample, not a certificate: the maximum between grid points may be
        larger.
        """
        if self.dim == 1:
            pts = np.linspace(-self.R, self.R, n)[:, None]
        else:
            k = max(int(np.sqrt(n)), 3)
            ax = np.linspace(-self.R, self.R, k)
            pts = np.stack(np.meshgrid(*([ax] * self.dim), indexing="ij"), -1).reshape(-1, self.dim)
            pts = pts[np.linalg.norm(pts, axis=1) <= self.R]
        idx = np.argmin(self.piece_values(pts), axis=1)
        return float(np.linalg.norm(pts - self.atoms[idx], axis=1).max())

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
