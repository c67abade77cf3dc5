"""p-cost gradient maps, c-concave potentials and their convex partners."""

import numpy as np
import pytest

from otpush.convex_analysis import MaxAffineFunction, diam_subdiff_ball
from otpush.discrete_ot import c_transform
from otpush.geometry_measures import DiscreteMeasure, Domain
from otpush.pcost_maps import (BoundaryEscapeError, CConcavePotential,
                               ConvexPartnerOracle, PCost, SingularPointError,
                               SmoothPotential, convex_to_phi, diam_partial_c,
                               grad_xi_p, grad_xi_p_inverse, phi_to_convex,
                               t_phi, transport_from_gradient)


def _sign_potential(p):
    """Potential whose value is (1 - |x|)^p on [-1, 1]; its map is sign(x)."""
    return CConcavePotential(np.array([[1.0], [-1.0]]), np.zeros(2), p, 1.0)


def _random_valid_potential_1d(rng, p, R, m):
    while True:
        atoms = np.sort(rng.uniform(-R, R, (m, 1)), axis=0)
        if not (atoms.min() <= 0 <= atoms.max()):
            continue
        phi = CConcavePotential(atoms, rng.uniform(-0.03, 0.03, m) * R ** p, p, R)
        if phi.max_active_distance() <= R:
            return phi


# ---------------------------------------------------------------------------
# gradient map and its inverse
# ---------------------------------------------------------------------------

def test_grad_examples_and_zeros():
    assert np.allclose(grad_xi_p(np.array([2.0, 0.0]), 4.0), [32.0, 0.0])
    assert (grad_xi_p(np.zeros(3), 3.0) == 0).all()
    assert (grad_xi_p_inverse(np.zeros(3), 3.0) == 0).all()
    assert np.isfinite(grad_xi_p_inverse(np.array([1e-320, 0.0]), 3.0)).all()


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_gradient_roundtrip(p, d):
    rng = np.random.default_rng(7)
    z = rng.standard_normal((10_000, d)) * rng.uniform(0.01, 3)
    norms = np.maximum(np.linalg.norm(z, axis=1), 1e-300)
    back = grad_xi_p_inverse(grad_xi_p(z, p), p)
    assert (np.linalg.norm(back - z, axis=1) / norms).max() < 1e-10
    fwd = grad_xi_p(grad_xi_p_inverse(z, p), p)
    assert (np.linalg.norm(fwd - z, axis=1) / norms).max() < 1e-10


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 7.0])
def test_inverse_is_holder(p):
    rng = np.random.default_rng(11)
    cost = PCost(p, 1.0)
    a = rng.uniform(-1, 1, (10_000, 2))
    a = a[np.linalg.norm(a, axis=1) <= 1]
    b = rng.uniform(-1, 1, (len(a), 2))
    keep = np.linalg.norm(b, axis=1) <= 1
    a, b = a[keep], b[keep]
    lhs = np.linalg.norm(grad_xi_p_inverse(a, p) - grad_xi_p_inverse(b, p), axis=1)
    rhs = cost.holder_constant * np.linalg.norm(a - b, axis=1) ** cost.holder_exponent
    assert (lhs <= rhs * (1 + 1e-12) + 1e-15).all()


def test_hessian_spectral_bounds():
    # 0 <= D^2 xi_p <= p (p-1) R^(p-2) on the R-ball, finite differences
    rng = np.random.default_rng(13)
    p, R, h = 3.0, 1.5, 1e-5
    top = p * (p - 1) * R ** (p - 2)
    for _ in range(40):
        z = rng.uniform(-1, 1, 2)
        z *= rng.uniform(0.1, 0.95) * R / np.linalg.norm(z)
        H = np.empty((2, 2))
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            H[a] = (grad_xi_p(z + e, p) - grad_xi_p(z - e, p)) / (2 * h)
        H = 0.5 * (H + H.T)
        eig = np.linalg.eigvalsh(H)
        assert eig.min() >= -1e-3 * top
        assert eig.max() <= top * (1 + 1e-3)


# ---------------------------------------------------------------------------
# transport formula
# ---------------------------------------------------------------------------

def test_transport_from_gradient_identity_and_linear():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(3)
    assert np.allclose(transport_from_gradient(x, np.zeros(3), 2.0), x)
    a = rng.standard_normal(3)
    assert np.allclose(transport_from_gradient(x, a, 2.0), x - a / 2,
                       atol=1e-15)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_sign_map(p):
    phi = _sign_potential(p)
    for x in (0.3, -0.7, 0.999, -0.001):
        assert t_phi(phi, np.array([x]))[0] == np.sign(x)
    grid = np.linspace(-1, 1, 201)[:, None]
    assert np.abs(phi.value(grid) - (1 - np.abs(grid[:, 0])) ** p).max() < 1e-14
    with pytest.raises(SingularPointError):
        t_phi(phi, np.array([0.0]))
    assert not phi.is_differentiable(np.array([0.0]))
    assert phi.is_differentiable(np.array([0.5]))


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
def test_map_agrees_with_gradient_formula(p):
    rng = np.random.default_rng(17)
    atoms = rng.uniform(-0.6, 0.6, (8, 2))
    phi = CConcavePotential(atoms, rng.uniform(-0.1, 0.1, 8), p, 1.0)
    pts = rng.uniform(-0.9, 0.9, (300, 2))
    pts = pts[np.linalg.norm(pts, axis=1) <= 1][:120]
    for x in pts:
        try:
            T = t_phi(phi, x)
        except SingularPointError:
            continue
        Tf = transport_from_gradient(x, phi.gradient(x), p)
        assert np.linalg.norm(T - Tf) <= 1e-10 * (1 + np.linalg.norm(x))


def test_boundary_escape_detection():
    # an atom outside the domain ball is an escaping image
    phi = CConcavePotential(np.array([[1.5], [-0.5]]), np.zeros(2), 2.0, 1.0)
    with pytest.raises(BoundaryEscapeError):
        t_phi(phi, np.array([0.9]))
    # so is a large linear drift applied near the boundary
    lin = SmoothPotential.linear(np.array([-4.0, 0.0]), 2.0, 1.0)
    with pytest.raises(BoundaryEscapeError):
        t_phi(lin, np.array([0.9, 0.0]))


def test_smooth_potentials():
    rng = np.random.default_rng(19)
    xs = rng.uniform(-0.5, 0.5, (20, 2))
    zero = SmoothPotential.zero(2.0, 1.0, 2)
    assert (t_phi(zero, xs[0]) == xs[0]).all()
    a = np.array([0.4, -0.2])
    lin = SmoothPotential.linear(a, 2.0, 1.0)
    for x in xs[:5]:
        assert np.allclose(t_phi(lin, x), x - a / 2, atol=1e-15)


# ---------------------------------------------------------------------------
# convex partner
# ---------------------------------------------------------------------------

def test_partner_p2_closed_form():
    phi2 = _sign_potential(2.0)
    f = phi_to_convex(phi2)
    assert isinstance(f, MaxAffineFunction)
    order = np.argsort(f.slopes[:, 0])
    assert np.allclose(f.slopes[order, 0], [-2.0, 2.0])
    assert np.allclose(f.intercepts, [-1.0, -1.0])
    grid = np.linspace(-1, 1, 101)[:, None]
    assert np.abs(f(grid) - (2 * np.abs(grid[:, 0]) - 1)).max() == 0.0
    # round trip back to the potential
    phi_back = convex_to_phi(f, 1.0)
    assert np.abs(phi_back.value(grid) - phi2.value(grid)).max() < 1e-15
    with pytest.raises(ValueError):
        convex_to_phi(f, 1.0, p=3.0)


def test_partner_p2_gradient_consistency():
    # for p = 2 the map satisfies T(x) = (partner gradient at x) / 2
    phi2 = _sign_potential(2.0)
    f = phi_to_convex(phi2)
    rng = np.random.default_rng(23)
    for x in rng.uniform(-0.7, 0.7, (50, 1)):
        try:
            T = t_phi(phi2, x)
        except SingularPointError:
            continue
        assert np.allclose(T, f.gradient(x[None, :])[0] / 2, atol=1e-14)


def test_partner_oracle_p3_subgradients():
    rng = np.random.default_rng(29)
    while True:
        phi = CConcavePotential(rng.uniform(-0.6, 0.6, (5, 2)),
                                rng.uniform(-0.02, 0.02, 5), 3.0, 1.0)
        if phi.max_active_distance() <= 1.0:
            break
    orc = phi_to_convex(phi)
    assert isinstance(orc, ConvexPartnerOracle)
    assert orc.lipschitz_bound == pytest.approx(9.0, abs=1e-15)
    pts = rng.uniform(-0.7, 0.7, (400, 2))
    pts = pts[np.linalg.norm(pts, axis=1) <= 1]
    V = orc.value(pts)
    G = orc.any_subgradient(pts)
    lhs = V[None, :]
    rhs = V[:, None] + ((pts[None, :, :] - pts[:, None, :]) * G[:, None, :]).sum(-1)
    assert (lhs - rhs).min() > -1e-10


def test_sampled_invariant_check():
    _sign_potential(2.0).sampled_invariant_check()
    _sign_potential(3.0).sampled_invariant_check()


# ---------------------------------------------------------------------------
# local image diameter
# ---------------------------------------------------------------------------

def test_diam_partial_c_sign_potential():
    phi2 = _sign_potential(2.0)
    for eta in (0.1, 0.5):
        exact, bound = diam_partial_c(phi2, np.array([0.0]), eta)
        assert exact == pytest.approx(2.0, abs=1e-14)
        assert bound == pytest.approx(32.0 * (eta + 4.0), abs=1e-10)


def test_diam_partial_c_p3_exact_path():
    phi3 = _sign_potential(3.0)
    exact, bound = diam_partial_c(phi3, np.array([0.0]), 0.25)
    assert exact == pytest.approx(2.0, abs=1e-12)
    assert bound >= exact


def test_diam_partial_c_random_below_bound():
    rng = np.random.default_rng(31)
    for trial in range(40):
        p = float(rng.choice([2.0, 2.5, 3.0, 4.0]))
        R = rng.uniform(0.5, 2.0)
        phi = _random_valid_potential_1d(rng, p, R, int(rng.integers(2, 7)))
        phi.sampled_invariant_check(seed=trial)
        x0 = rng.uniform(-R * 0.8, R * 0.8)
        eta = rng.uniform(0.05, 0.5) * R
        exact, bound = diam_partial_c(phi, np.array([x0]), eta)
        assert 0 <= exact <= bound * (1 + 1e-12)


def test_diam_partial_c_2d_p2_against_sampled_atoms():
    # p = 2: the image of B(x, eta) is the set of atoms active somewhere in
    # it, and the partner's slopes are twice the atoms
    rng = np.random.default_rng(43)
    for trial in range(10):
        k = int(rng.integers(2, 7))
        phi = CConcavePotential(rng.uniform(-0.8, 0.8, (k, 2)),
                                rng.uniform(-0.05, 0.05, k), 2.0, 1.0)
        x = rng.uniform(-0.6, 0.6, 2)
        eta = float(rng.uniform(0.05, 0.3))
        exact, bound = diam_partial_c(phi, x, eta)
        assert exact == diam_subdiff_ball(phi_to_convex(phi), x, eta) / 2.0
        ax = np.linspace(-eta, eta, 201)
        disc = np.stack(np.meshgrid(ax, ax, indexing="ij"), -1).reshape(-1, 2)
        pts = x + disc[(disc ** 2).sum(1) <= eta * eta]
        atoms = phi.atoms[np.unique(np.argmin(phi.piece_values(pts), axis=1))]
        sampled = max(float(np.linalg.norm(a - b)) for a in atoms for b in atoms)
        assert sampled <= exact * (1.0 + 1e-12)
        assert exact <= bound


def test_diam_partial_c_2d_p3_not_implemented():
    rng = np.random.default_rng(37)
    phi = CConcavePotential(rng.uniform(-0.5, 0.5, (3, 2)), np.zeros(3),
                            3.0, 1.0)
    with pytest.raises(NotImplementedError):
        diam_partial_c(phi, np.zeros(2), 0.1)


# ---------------------------------------------------------------------------
# c-transform correspondence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2.0, 3.0])
def test_map_lands_on_c_superdifferential(p):
    phi = CConcavePotential(np.array([[0.7], [-0.4], [0.1]]),
                            np.array([0.05, 0.0, -0.08]), p, 1.0)
    dom = Domain.ball(np.zeros(1), 1.0)
    xs = np.linspace(-1, 1, 20_001)[:, None]
    src = DiscreteMeasure(xs, np.full(len(xs), 1 / len(xs)), dom)
    tgt = DiscreteMeasure(phi.atoms, np.full(len(phi.atoms), 1 / 3), dom)
    phic = c_transform(phi.value(xs), src, tgt, p)
    for x0 in (-0.8, -0.3, 0.2, 0.55, 0.9):
        T = t_phi(phi, np.array([x0]))
        j = int(np.argmin(np.linalg.norm(phi.atoms - T[None, :], axis=1)))
        assert np.allclose(phi.atoms[j], T)
        slack = phi.value(np.array([[x0]])) + phic[j] - abs(x0 - T[0]) ** p
        assert abs(slack) < 1e-7


# ---------------------------------------------------------------------------
# cost constants
# ---------------------------------------------------------------------------

def test_pcost_constants():
    c = PCost(3.0, 2.0)
    assert c.lip == 12.0
    assert c.concavity == 12.0
    assert c.holder_constant == pytest.approx(3 / 3 ** 0.5, abs=1e-15)
    assert c.holder_exponent == 0.5
    with pytest.raises(ValueError):
        PCost(1.5, 1.0)
