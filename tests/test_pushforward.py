"""Pushforwards of grid densities under convex gradients and transport maps."""

import math

import numpy as np
import pytest

from otpush import pushforward
from otpush.convex_analysis import (MaxAffineFunction, SubdiffPolytope, _pairwise_diam,
                                    _singular)
from otpush.discrete_ot import bottleneck_solve, wasserstein
from otpush.experiments import _integer_count_weights, _pixel_cloud, pushforward_measure1d
from otpush.geometry_measures import (DiscreteMeasure, Domain, Measure1D,
                                      uniform_grid, wasserstein_1d)
from otpush.pcost_maps import CConcavePotential
from otpush.pushforward import (SelectionPolicy, lot_interpolant,
                                potential_from_discrete_ot,
                                pushforward_convex, pushforward_tmap)

from c_partner import active_atoms, one_sided_derivatives, phi_to_convex

BOX = Domain.box([-0.5], [0.5])
BOX2 = Domain.box([-0.5, -0.5], [0.5, 0.5])
F_ABS = MaxAffineFunction(np.array([[-1.0], [1.0]]), np.zeros(2))
RHO = uniform_grid(BOX, 1000)
D0 = DiscreteMeasure(np.array([[0.0]]), np.array([1.0]), BOX)


def _sign_potential(p):
    return CConcavePotential(np.array([[1.0], [-1.0]]), np.zeros(2), p, 1.0)


# ---------------------------------------------------------------------------
# gradient pushforward
# ---------------------------------------------------------------------------

def test_abs_gradient_splits_half_half():
    res = pushforward_convex(F_ABS, RHO)
    assert res.singular_hits == 0
    assert np.array_equal(res.image.points.ravel(), [-1.0, 1.0])
    assert np.abs(res.image.weights - 0.5).max() < 1e-12
    assert res.image.weights.sum() == pytest.approx(1.0, abs=1e-12)
    src_marginal, _ = res.coupling.marginals()
    assert np.abs(src_marginal - RHO.weights).max() < 1e-15


def test_selection_policies_at_the_kink():
    cases = [(SelectionPolicy.fixed(1), 1.0),
             (SelectionPolicy.fixed(0), -1.0),
             (None, 0.0),  # min-norm default picks the interior subgradient
             (SelectionPolicy.max_first_coordinate(), 1.0)]
    for policy, expect in cases:
        res = (pushforward_convex(F_ABS, D0, policy) if policy is not None
               else pushforward_convex(F_ABS, D0))
        assert res.singular_hits == 1
        assert res.image.points.ravel().tolist() == [expect]
        assert res.image.weights.tolist() == [1.0]


def test_affine_gradient_is_a_dirac():
    fa = MaxAffineFunction(np.array([[0.3, -0.2]]), np.array([0.1]))
    res = pushforward_convex(fa, uniform_grid(BOX2, 20))
    assert len(res.image) == 1
    assert np.array_equal(res.image.points[0], [0.3, -0.2])


def test_policy_choice_is_irrelevant_off_the_singular_set():
    phi2 = _sign_potential(2.0)
    res_a = pushforward_tmap(phi2, RHO, SelectionPolicy.min_norm())
    res_b = pushforward_tmap(phi2, RHO, SelectionPolicy.max_first_coordinate())
    assert np.array_equal(res_a.image.points, res_b.image.points)
    assert np.array_equal(res_a.image.weights, res_b.image.weights)


# ---------------------------------------------------------------------------
# transport-map pushforward
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2.0, 3.0])
def test_tmap_sign_potential(p):
    res = pushforward_tmap(_sign_potential(p), RHO)
    assert res.singular_hits == 0
    assert np.array_equal(res.image.points.ravel(), [-1.0, 1.0])
    assert np.abs(res.image.weights - 0.5).max() < 1e-12


def test_tmap_atom_pinch_weights():
    eps, k = 0.1, 500
    h = (0.5 - eps / 2) / k
    left = -0.5 + (np.arange(k) + 0.5) * h
    right = eps / 2 + (np.arange(k) + 0.5) * h
    pts = np.concatenate([left, right, [0.0]])[:, None]
    w = np.concatenate([np.full(2 * k, (1 - eps) / (2 * k)), [eps]])
    rho_eps = DiscreteMeasure(pts, w, BOX)
    phi2 = _sign_potential(2.0)
    # the partner subdifferential at the midpoint is [-2, 2]; its vertex 2
    # sends the midpoint atom to the right
    res = pushforward_tmap(phi2, rho_eps, SelectionPolicy.fixed(1))
    assert res.singular_hits == 1
    got = dict(zip(res.image.points.ravel(), res.image.weights))
    assert got[-1.0] == pytest.approx((1 - eps) / 2, abs=1e-12)
    assert got[1.0] == pytest.approx((1 + eps) / 2, abs=1e-12)
    res2 = pushforward_tmap(phi2, rho_eps, SelectionPolicy.max_first_coordinate())
    assert np.array_equal(res2.image.weights, res.image.weights)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_tmap_singular_iff_not_differentiable_near_kinks(p):
    rng = np.random.default_rng(43)
    dom = Domain.ball(np.zeros(1), 1.0)
    seen = set()
    for _ in range(20):
        k = int(rng.integers(2, 7))
        atoms = np.sort(rng.uniform(-0.8, 0.8, k))[:, None]
        pot = CConcavePotential(atoms, rng.uniform(-0.05, 0.05, k), p, 1.0)
        cuts = pot._cells_1d()[1]
        for c in cuts[np.abs(cuts) < 0.99]:  # the kinks inside the domain
            for x in (c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf),
                      c - 1e-13, c + 1e-13, c - 1e-11, c + 1e-11, c + 1e-9):
                x = np.array([x])
                hits = pushforward_tmap(pot, DiscreteMeasure(x[None, :], np.ones(1), dom),
                                        SelectionPolicy.fixed(0)).singular_hits
                left, right = one_sided_derivatives(pot, x[0])
                assert (left - right > 1e-10) == (hits == 1)
                seen.add(hits)
    assert seen == {0, 1}


def test_gradient_spread_of_exactly_the_tolerance_is_regular():
    # atoms 0 and 5e-11 tie at x = 0 with piece gradients 0 and -1e-10, so
    # the spread is exactly 1e-10: regular; one ulp further apart is singular
    x = np.zeros(1)
    src = DiscreteMeasure(x[None, :], np.ones(1), BOX)
    for gap, singular in ((5e-11, False), (np.nextafter(5e-11, 1.0), True)):
        pot = CConcavePotential(np.array([[0.0], [gap]]), np.zeros(2), 2.0, 1.0)
        assert len(active_atoms(pot, x)) == 2
        grads = pot.piece_gradients(x, np.arange(2))
        assert (np.linalg.norm(grads[1] - grads[0]) == 1e-10) is not singular
        res = pushforward_tmap(pot, src, SelectionPolicy.fixed(0))
        assert res.singular_hits == int(singular)
        if not singular:
            assert res.image.points.tolist() == [[0.0]]


def test_singular_is_the_pairwise_diameter_of_the_active_gradients():
    # atoms 0 and +-3e-11 tie at x = 0 with piece gradients 0 and -+6e-11:
    # every gradient is within 1e-10 of the first, yet two are 1.2e-10
    # apart, so x is singular for every caller, the exact partner included
    x = np.zeros(1)
    src = DiscreteMeasure(x[None, :], np.ones(1), BOX)
    pot = CConcavePotential(np.array([[0.0], [3e-11], [-3e-11]]), np.zeros(3), 2.0, 1.0)
    assert len(active_atoms(pot, x)) == 3
    assert pushforward_tmap(pot, src).singular_hits == 1
    assert pushforward_convex(phi_to_convex(pot), src).singular_hits == 1
    # a diameter of exactly the tolerance is a singleton, as it is regular
    edge = SubdiffPolytope(np.array([[0.0], [1e-10]])).vertices
    assert _pairwise_diam(edge) == 1e-10 and not _singular(edge)
    assert _singular(SubdiffPolytope(np.array([[0.0], [np.nextafter(1e-10, 1.0)]])).vertices)


def test_duplicate_pieces_and_atoms_tie_but_stay_regular():
    # a piece or atom given twice ties wherever it is active, with zero
    # spread: the point is regular and the policy (an index no polytope
    # here has) is never consulted
    src = DiscreteMeasure(np.array([[-0.3], [0.2], [0.4]]), np.full(3, 1 / 3), BOX)
    never = SelectionPolicy.fixed(5)
    f = MaxAffineFunction(np.array([[-1.0], [1.0], [1.0]]), np.zeros(3))
    res = pushforward_convex(f, src, never)
    assert res.singular_hits == 0
    assert res.image.points.ravel().tolist() == [-1.0, 1.0]
    assert res.image.weights == pytest.approx([1 / 3, 2 / 3], abs=1e-15)
    pot = CConcavePotential(np.array([[-0.5], [0.5], [0.5]]), np.zeros(3), 2.0, 1.0)
    res = pushforward_tmap(pot, src, never)
    assert res.singular_hits == 0
    assert res.image.points.ravel().tolist() == [-0.5, 0.5]
    # blending a duplicated piece gives the bits of blending it once
    h = MaxAffineFunction(np.array([[0.5]]), np.zeros(1))
    tied = lot_interpolant(f, h, 0.25, src, never)
    plain = lot_interpolant(F_ABS, h, 0.25, src, never)
    assert tied.points.ravel().tolist() == plain.points.ravel().tolist() == [-0.625, 0.875]
    assert np.array_equal(tied.weights, plain.weights)
    # near-duplicates: unequal atoms 2e-11 apart (gradients 4e-11 apart) tie
    # at x = 0.2, where the second is the strict argmin; every caller maps x
    # through that first argmin piece, bit for bit
    x = np.array([0.2])
    one = DiscreteMeasure(x[None, :], np.ones(1), BOX)
    pot = CConcavePotential(np.array([[0.5], [0.5 + 2e-11]]), np.array([0.0, 1.25e-11]),
                            2.0, 1.0)
    assert active_atoms(pot, x).tolist() == [0, 1]
    assert np.argmin(pot.piece_values(x)[0]) == 1 and pot.atoms[0, 0] != pot.atoms[1, 0]
    res = pushforward_tmap(pot, one, never)
    assert res.singular_hits == 0 and res.image.points.tolist() == [pot.atoms[1].tolist()]
    g = phi_to_convex(pot)
    assert np.argmax(g.piece_values(x)[0]) == 1 and g.slopes[0, 0] != g.slopes[1, 0]
    res = pushforward_convex(g, one, never)
    assert res.singular_hits == 0 and res.image.points.tolist() == [g.slopes[1].tolist()]
    blend = lot_interpolant(g, h, 0.25, one, never)
    assert blend.points.tolist() == [(0.75 * g.slopes[1] + 0.25 * h.slopes[0]).tolist()]


def test_tmap_on_product_family_matches_first_marginals():
    # a p = 2 potential with atoms (a_j, 0) has vertical strips for cells,
    # cut at x1 = -0.32, 0.125 and 0.525, between the grid columns.  Both
    # images then share the source's second factor, so W_r and W_inf of the
    # 2D images equal those of the 1D images of the first marginals
    # through the potential on the line (same a_j, same offsets)
    a, offsets = np.array([-0.6, -0.1, 0.35, 0.7]), np.array([0.03, 0.0, 0.0, 0.0])
    pot2 = CConcavePotential(np.stack([a, np.zeros(4)], axis=1), offsets, 2.0, 2.0)
    pot1 = CConcavePotential(a[:, None], offsets, 2.0, 2.0)
    dom, line = Domain.ball(np.zeros(2), 2.0), Domain.ball(np.zeros(1), 2.0)
    xs = -0.55 + 0.1 * np.arange(12)
    ys = np.linspace(-0.2, 0.2, 5)

    def product(x):
        pts = np.stack(np.meshgrid(x, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        return DiscreteMeasure(pts, np.full(len(pts), 1.0 / len(pts)), dom)

    def first_marginal(m):
        return Measure1D.from_discrete(DiscreteMeasure(m.points[:, :1], m.weights, line))

    never = SelectionPolicy.fixed(5)
    for shift, w_inf in ((0.02, 0.0), (0.1, 0.0), (0.3, 0.5)):
        # the first column moves by the shift; only 0.3 crosses the cut at -0.32
        mu, nu = product(xs), product(np.r_[xs[0] + shift, xs[1:]])
        img2, img1 = [], []
        for m in (mu, nu):
            res = pushforward_tmap(pot2, m, never)
            assert res.singular_hits == 0
            img2.append(res.image)
            img1.append(pushforward_measure1d(pot1, first_marginal(m)))
            assert np.array_equal(res.image.points, np.c_[img1[-1].points, np.zeros(len(img1[-1]))])
            assert res.image.weights == pytest.approx(img1[-1].weights, rel=1e-14, abs=0.0)
        a1, b1 = (Measure1D.from_discrete(m) for m in img1)
        for q in (2.0, 3.0):
            # the gap is the solver's rounding of mass to integer units
            assert wasserstein(*img2, q) == pytest.approx(wasserstein_1d(a1, b1, q),
                                                          rel=1e-10, abs=0.0)
        assert bottleneck_solve(*img2)[1] == wasserstein_1d(a1, b1, math.inf) == w_inf


def test_quadratic_support_gradient_scales_w2_exactly():
    rng = np.random.default_rng(11)
    for trial in range(5):
        c = rng.uniform(0.3, 2.0)
        X = rng.uniform(-0.5, 0.5, (30, 2))
        Y = rng.uniform(-0.5, 0.5, (25, 2))
        wx = rng.uniform(0.2, 1, 30)
        wy = rng.uniform(0.2, 1, 25)
        mu = DiscreteMeasure(X, wx / wx.sum(), BOX2)
        nu = DiscreteMeasure(Y, wy / wy.sum(), BOX2)
        # supports of c |x|^2 / 2 at the atoms: slope c x_i, intercept -c |x_i|^2 / 2
        fmu = MaxAffineFunction(c * X, -c * (X ** 2).sum(1) / 2)
        fnu = MaxAffineFunction(c * Y, -c * (Y ** 2).sum(1) / 2)
        w_orig = wasserstein(mu, nu, 2.0)
        w_img = wasserstein(pushforward_convex(fmu, mu).image,
                            pushforward_convex(fnu, nu).image, 2.0)
        assert w_img == pytest.approx(c * w_orig, abs=1e-9 * (1 + w_img))


# ---------------------------------------------------------------------------
# potentials fitted from discrete transport
# ---------------------------------------------------------------------------

def test_fitted_potential_two_point_target():
    box01 = Domain.box([0.0], [1.0])
    rho01 = uniform_grid(box01, 1000)
    mu2 = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]), box01)
    fmu = potential_from_discrete_ot(rho01, mu2)
    res = pushforward_convex(fmu, rho01)
    assert res.singular_hits == 0
    assert np.array_equal(res.image.points.ravel(), [0.0, 1.0])
    assert np.abs(res.image.weights - 0.5).max() < 1e-12
    g = fmu.slopes[np.argmax(fmu.piece_values(np.array([[0.25], [0.75]])), axis=1)]
    assert g[0, 0] == 0.0 and g[1, 0] == 1.0


def test_fitted_potential_dirac_target():
    box01 = Domain.box([0.0], [1.0])
    rho01 = uniform_grid(box01, 1000)
    mud = DiscreteMeasure(np.array([[0.3]]), np.array([1.0]), box01)
    res = pushforward_convex(potential_from_discrete_ot(rho01, mud), rho01)
    assert len(res.image) == 1 and res.image.points[0, 0] == 0.3


def test_fitted_potential_roundtrip_residual():
    rng = np.random.default_rng(11)
    grid30 = uniform_grid(BOX2, 30)
    K = 12
    counts = rng.multinomial(900, np.full(K, 1 / K))
    Y = rng.uniform(-0.45, 0.45, (K, 2))
    muK = DiscreteMeasure(Y, counts / 900, BOX2)
    fK = potential_from_discrete_ot(grid30, muK)
    res = pushforward_convex(fK, grid30)
    # the image support is exactly the target atoms, weights exact up to
    # float accumulation over 900 cells
    img = res.image.merged()
    order_img = np.lexsort(img.points.T)
    order_tgt = np.lexsort(muK.points.T)
    assert np.array_equal(img.points[order_img], muK.points[order_tgt])
    assert np.abs(img.weights[order_img] - muK.weights[order_tgt]).max() <= 1e-12
    # W2 amplifies an O(1e-15) mass defect to its square root, no further
    assert wasserstein(res.image, muK, 2.0) <= 1e-6


def test_fit_searches_canonical_duals_only_without_margin(monkeypatch):
    # the max-margin recentring declines on both built-in figure1 targets at
    # grid 16 and succeeds on a seeded 8-atom target; only a declined fit
    # falls back to the canonical duals, once
    declined, calls = [], []
    margin, canonical = pushforward._max_margin_duals, pushforward._canonical_duals

    def recorded(gap):
        v = margin(gap)
        declined.append(v is None)
        return v

    def counted(gap, v):
        calls.append(1)
        return canonical(gap, v)

    monkeypatch.setattr(pushforward, "_max_margin_duals", recorded)
    monkeypatch.setattr(pushforward, "_canonical_duals", counted)
    box = Domain.box([0.0, 0.0], [1.0, 1.0])
    grid16 = uniform_grid(box, 16)
    for cloud in (_pixel_cloud(0.16, 0.44, 0.32, (0.30, 0.62), 0.0, 0.12),
                  _pixel_cloud(0.50, 0.86, -0.30, (0.68, 0.38), 0.10, 0.17)):
        weights = _integer_count_weights(len(cloud), len(grid16))
        potential_from_discrete_ot(grid16, DiscreteMeasure(cloud, weights, box))
    assert declined == [True, True] and calls == [1, 1]
    rng = np.random.default_rng(31)
    counts = rng.multinomial(900, np.full(8, 1 / 8))
    mu = DiscreteMeasure(rng.uniform(-0.45, 0.45, (8, 2)), counts / 900, BOX2)
    potential_from_discrete_ot(uniform_grid(BOX2, 30), mu)
    assert declined == [True, True, False] and calls == [1, 1]


# ---------------------------------------------------------------------------
# interpolation path
# ---------------------------------------------------------------------------

def _fitted_pair(rng, grid):
    c0 = rng.multinomial(900, np.full(8, 1 / 8))
    c1 = rng.multinomial(900, np.full(9, 1 / 9))
    mu0 = DiscreteMeasure(rng.uniform(-0.45, 0.45, (8, 2)), c0 / 900, BOX2)
    mu1 = DiscreteMeasure(rng.uniform(-0.45, 0.45, (9, 2)), c1 / 900, BOX2)
    return (potential_from_discrete_ot(grid, mu0),
            potential_from_discrete_ot(grid, mu1))


def test_interpolant_endpoints_and_path():
    rng = np.random.default_rng(31)
    grid30 = uniform_grid(BOX2, 30)
    f0, f1 = _fitted_pair(rng, grid30)
    m_t0 = lot_interpolant(f0, f1, 0.0, grid30)
    m_end = pushforward_convex(f0, grid30).image
    assert np.array_equal(m_t0.points, m_end.points)
    assert np.array_equal(m_t0.weights, m_end.weights)
    m_t1 = lot_interpolant(f0, f1, 1.0, grid30)
    m_other = pushforward_convex(f1, grid30).image
    assert np.array_equal(m_t1.points, m_other.points)
    # identical potentials: the path is stationary
    m_a = lot_interpolant(f0, f0, 0.3, grid30)
    m_b = lot_interpolant(f0, f0, 0.8, grid30)
    assert np.array_equal(m_a.points, m_b.points)
    assert np.array_equal(m_a.weights, m_b.weights)
    # distance from the start grows monotonically along the path
    ds = [wasserstein(lot_interpolant(f0, f1, t, grid30), m_end, 2.0)
          for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(ds[k] <= ds[k + 1] + 1e-12 for k in range(4))
    with pytest.raises(ValueError):
        lot_interpolant(f0, f1, 1.2, grid30)
    with pytest.raises(ValueError):
        lot_interpolant(f0, f1, -0.1, grid30)


def test_interpolant_rejects_potentials_of_another_dimension():
    # it failed inside NumPy's matmul instead
    f1 = MaxAffineFunction(np.array([[-1.0], [1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        lot_interpolant(f1, f1, 0.5, uniform_grid(BOX2, 8))


def test_interpolant_builds_one_polytope_per_singular_row(monkeypatch):
    # the active slopes are combined directly and the policy's polytope
    # dedupes them, so no polytope is built per factor; the kinks lie on
    # both axes, which the odd grid's middle row and column hit
    grid = uniform_grid(BOX2, 9)
    f0 = MaxAffineFunction(np.array([[-1.0, 0.0], [1.0, 0.0]]), np.zeros(2))
    f1 = MaxAffineFunction(np.array([[0.0, -1.0], [0.0, 1.0]]), np.zeros(2))
    built = []

    class Counting(SubdiffPolytope):
        def __post_init__(self):
            built.append(1)
            super().__post_init__()

    monkeypatch.setattr(pushforward, "SubdiffPolytope", Counting)
    lot_interpolant(f0, f1, 0.5, grid)
    (m0, _), (m1, _) = (pushforward._actives(f.piece_values(grid.points)) for f in (f0, f1))
    singular = sum(_singular(f0.slopes[m0[i]]) or _singular(f1.slopes[m1[i]])
                   for i in range(len(grid)))
    assert singular == 17
    assert len(built) == singular


# ---------------------------------------------------------------------------
# conservation laws
# ---------------------------------------------------------------------------

def test_mass_conservation_and_containment():
    rng = np.random.default_rng(41)
    dom = Domain.ball(np.zeros(2), 1.0)
    grid = uniform_grid(dom, 24)
    for trial in range(5):
        k = int(rng.integers(3, 7))
        atoms = rng.uniform(-0.5, 0.5, (k, 2))
        atoms = atoms[np.linalg.norm(atoms, axis=1) <= 0.6]
        if len(atoms) < 2:
            continue
        phi = CConcavePotential(atoms, rng.uniform(-0.02, 0.02, len(atoms)),
                                2.0, 1.0)
        res = pushforward_tmap(phi, grid)
        assert res.image.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert (np.linalg.norm(res.image.points, axis=1) <= 1.0 + 1e-8).all()
