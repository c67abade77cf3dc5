"""p-cost gradient maps, c-concave potentials and their convex partners."""

import math

import numpy as np
import pytest

from otpush.convex_analysis import MaxAffineFunction, diam_subdiff_ball
from otpush.discrete_ot import cost_matrix
from otpush.geometry_measures import DiscreteMeasure, Domain, uniform_grid
from otpush.pcost_maps import (BoundaryEscapeError, CConcavePotential, grad_xi_p,
                               grad_xi_p_inverse)
from otpush.pushforward import pushforward_tmap

from c_partner import convex_to_phi, diam_partial_c, phi_to_convex


def _sign_potential(p):
    """Potential whose value is (1 - |x|)^p on [-1, 1]; its map is sign(x)."""
    return CConcavePotential(np.array([[1.0], [-1.0]]), np.zeros(2), p, 1.0)


def _push_dirac(phi, x):
    """pushforward_tmap of the Dirac mass at x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dirac = DiscreteMeasure(x[None, :], np.ones(1), Domain.ball(np.zeros(len(x)), phi.R))
    return pushforward_tmap(phi, dirac)


def _random_valid_potential_1d(rng, p, R, m):
    while True:
        atoms = np.sort(rng.uniform(-R, R, (m, 1)), axis=0)
        if not (atoms.min() <= 0 <= atoms.max()):
            continue
        phi = CConcavePotential(atoms, rng.uniform(-0.03, 0.03, m) * R ** p, p, R)
        if phi.max_active_distance(4097) <= R:
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
    a = rng.uniform(-1, 1, (10_000, 2))
    a = a[np.linalg.norm(a, axis=1) <= 1]
    b = rng.uniform(-1, 1, (len(a), 2))
    keep = np.linalg.norm(b, axis=1) <= 1
    a, b = a[keep], b[keep]
    lhs = np.linalg.norm(grad_xi_p_inverse(a, p) - grad_xi_p_inverse(b, p), axis=1)
    # the modulus 3 / p^{1/(p-1)} |z|^{1/(p-1)}
    rhs = 3.0 / p ** (1.0 / (p - 1.0)) * np.linalg.norm(a - b, axis=1) ** (1.0 / (p - 1.0))
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

@pytest.mark.parametrize("p", [2.0, 3.0])
def test_sign_map(p):
    phi = _sign_potential(p)
    for x in (0.3, -0.7, 0.999, -0.001):
        res = _push_dirac(phi, x)
        assert res.singular_hits == 0 and res.image.points.tolist() == [[np.sign(x)]]
    grid = np.linspace(-1, 1, 201)[:, None]
    assert np.abs(phi.value(grid) - (1 - np.abs(grid[:, 0])) ** p).max() < 1e-14
    assert _push_dirac(phi, 0.0).singular_hits == 1


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
def test_map_agrees_with_gradient_formula(p):
    rng = np.random.default_rng(17)
    atoms = rng.uniform(-0.6, 0.6, (8, 2))
    phi = CConcavePotential(atoms, rng.uniform(-0.1, 0.1, 8), p, 1.0)
    pts = rng.uniform(-0.9, 0.9, (300, 2))
    pts = pts[np.linalg.norm(pts, axis=1) <= 1][:120]
    for x in pts:
        res = _push_dirac(phi, x)
        if res.singular_hits:
            continue
        # T(x) = x - (grad xi_p)^{-1}(grad phi(x)), grad phi(x) that of the
        # minimizing piece
        y = phi.atoms[np.argmin(phi.piece_values(x)[0])]
        Tf = x - grad_xi_p_inverse(grad_xi_p(x - y, p), p)
        assert np.linalg.norm(res.image.points[0] - Tf) <= 1e-10 * (1 + np.linalg.norm(x))


def test_boundary_escape_detection():
    # an atom outside the domain ball is an escaping image; the image
    # measure's own containment tolerance, 1e-9, decides
    for atom in (1.5, 1.0 + 5e-9):
        phi = CConcavePotential(np.array([[atom], [-0.5]]), np.zeros(2), 2.0, 1.0)
        with pytest.raises(BoundaryEscapeError):
            _push_dirac(phi, 0.9)
    phi = CConcavePotential(np.array([[1.0 + 5e-10], [-0.5]]), np.zeros(2), 2.0, 1.0)
    assert _push_dirac(phi, 0.9).image.points[0, 0] == 1.0 + 5e-10


def test_tmap_rejects_atoms_of_another_dimension():
    # 2D atoms on a 1D source gave an image of 2D points on a 1D domain
    line = uniform_grid(Domain.ball(np.zeros(1), 1.0), 8)
    phi2 = CConcavePotential(np.array([[0.5, 0.0], [-0.5, 0.0]]), np.zeros(2), 2.0, 1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        pushforward_tmap(phi2, line)


def test_tmap_rejects_a_source_of_another_dimension():
    # 1D atoms on a 2D source raised an IndexError
    disc = uniform_grid(Domain.ball(np.zeros(2), 1.0), 8)
    phi1 = CConcavePotential(np.array([[0.5], [-0.5]]), np.zeros(2), 2.0, 1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        pushforward_tmap(phi1, disc)


# ---------------------------------------------------------------------------
# Laguerre cells on the line
# ---------------------------------------------------------------------------

def _random_increasing_potential(rng, p):
    k = int(rng.integers(1, 10))
    atoms = np.sort(rng.uniform(-1.0, 1.0, k))[:, None]
    return CConcavePotential(atoms, rng.uniform(-0.3, 0.3, k), p, 1.0)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_cells_1d_match_dense_argmin(p):
    # p = 2 crossings are closed-form, p = 3 ones bisected
    rng = np.random.default_rng(29)
    xs = np.linspace(-2.0, 2.0, 20001)
    for _ in range(30):
        pot = _random_increasing_potential(rng, p)
        lead, cuts = pot._cells_1d()
        assert pot._cells_1d() is pot._cells_1d()
        assert len(cuts) == len(lead) - 1 and (np.diff(cuts) > 0).all()
        vals = pot.piece_values(xs[:, None])
        low = np.sort(vals, axis=1)
        clear = (low[:, 1] - low[:, 0] > 1e-9 if vals.shape[1] > 1
                 else np.ones(len(xs), bool))
        cell = lead[np.searchsorted(cuts, xs, side="right")]
        assert np.array_equal(cell[clear], np.argmin(vals, axis=1)[clear])
        # no cell is empty: each piece is the min inside its own cell
        mids = (np.concatenate([cuts[:1] - 1.0, 0.5 * (cuts[1:] + cuts[:-1]), cuts[-1:] + 1.0])
                if len(cuts) else np.zeros(1))
        assert np.array_equal(np.argmin(pot.piece_values(mids[:, None]), axis=1), lead)


def test_cells_1d_are_the_partner_envelope_at_p2():
    rng = np.random.default_rng(31)
    for _ in range(50):
        pot = _random_increasing_potential(rng, 2.0)
        lead, cuts = pot._cells_1d()
        env_s, _, bp = phi_to_convex(pot)._envelope()
        assert np.array_equal(env_s / 2.0, pot.atoms[lead, 0])
        assert np.allclose(cuts, bp, rtol=1e-13, atol=1e-14)


def test_cells_1d_validation():
    with pytest.raises(ValueError, match="1D potential"):
        CConcavePotential(np.zeros((2, 2)), np.zeros(2), 2.0, 1.0)._cells_1d()
    with pytest.raises(ValueError, match="strictly increasing"):
        _sign_potential(2.0)._cells_1d()


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
    with pytest.raises(ValueError):
        phi_to_convex(_sign_potential(3.0))


def test_partner_p2_gradient_consistency():
    # for p = 2 the map satisfies T(x) = (partner gradient at x) / 2
    phi2 = _sign_potential(2.0)
    f = phi_to_convex(phi2)
    rng = np.random.default_rng(23)
    for x in rng.uniform(-0.7, 0.7, (50, 1)):
        res = _push_dirac(phi2, x)
        assert res.singular_hits == 0
        slope = f.slopes[np.argmax(f.piece_values(x))]
        assert np.allclose(res.image.points[0], slope / 2, atol=1e-14)


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
    for _ in range(40):
        p = float(rng.choice([2.0, 2.5, 3.0, 4.0]))
        R = rng.uniform(0.5, 2.0)
        phi = _random_valid_potential_1d(rng, p, R, int(rng.integers(2, 7)))
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
    phic = (cost_matrix(src.points, tgt.points, p) - phi.value(xs)[:, None]).min(axis=0)
    for x0 in (-0.8, -0.3, 0.2, 0.55, 0.9):
        T = _push_dirac(phi, x0).image.points[0]
        j = int(np.argmin(np.linalg.norm(phi.atoms - T[None, :], axis=1)))
        assert np.allclose(phi.atoms[j], T)
        slack = phi.value(np.array([[x0]])) + phic[j] - abs(x0 - T[0]) ** p
        assert abs(slack) < 1e-7


# ---------------------------------------------------------------------------
# cost constants
# ---------------------------------------------------------------------------

def test_pcost_constants():
    atoms, offsets = np.array([[0.5]]), np.zeros(1)
    assert CConcavePotential(atoms, offsets, 3.0, 2.0).concavity == 12.0
    for p, R in ((1.5, 1.0), (math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan)):
        with pytest.raises(ValueError):
            CConcavePotential(atoms, offsets, p, R)
