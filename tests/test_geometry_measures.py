"""Domains, measures and exact 1D Wasserstein distances."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otpush.geometry_measures import (DiscreteMeasure, Domain, Measure1D,
                                      _piece_integral, _sorted_distinct, discretize,
                                      measure_from_json, uniform_grid,
                                      unit_ball_volume, wasserstein_1d)

DOM = Domain.ball(np.zeros(1), 1.0)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

def test_domain_validation():
    with pytest.raises(ValueError):
        Domain.ball([0.0], 0.0)
    with pytest.raises(ValueError):
        Domain.box([0.0], [0.0])
    with pytest.raises(ValueError):
        Domain(kind="pyramid")
    assert Domain.ball([0.0, 0.0], 2.0).dim == 2
    assert Domain.box([0.0, 0.0], [1.0, 2.0]).dim == 2


BOX1 = Domain.box([0.0], [1.0])


@pytest.mark.parametrize("build", [
    lambda: Domain.ball([0.0], math.nan),
    lambda: Domain.ball([0.0], math.inf),
    lambda: Domain.ball([math.nan], 1.0),
    lambda: Domain.box([-math.inf], [1.0]),
    lambda: DiscreteMeasure(np.array([[0.2], [0.4]]), np.array([math.nan, 1.0]), BOX1),
    lambda: Measure1D.from_pieces(DOM, [(-0.5, 0.5, math.nan)]),
    lambda: Measure1D.from_pieces(DOM, [], [(math.nan, 1.0)]),
], ids=["ball-radius-nan", "ball-radius-inf", "ball-center", "box-corner",
        "discrete-weight", "measure1d-mass", "measure1d-atom"])
def test_non_finite_inputs_are_rejected(build):
    # NaN fails every comparison, so each of these got past the mass,
    # sign and size checks
    with pytest.raises(ValueError):
        build()


def test_domain_contains_and_interval():
    ball = Domain.ball([0.0], 1.0)
    assert ball.contains(np.array([[0.5], [-1.0]])).all()
    assert not ball.contains(np.array([[1.1]]))[0]
    assert ball.interval() == (-1.0, 1.0)
    box = Domain.box([0.0, 0.0], [1.0, 1.0])
    assert box.contains(np.array([[0.5, 0.5]]))[0]
    with pytest.raises(ValueError):
        box.interval()


def test_domain_value_equality():
    assert Domain.ball(np.zeros(1), 1.0) == Domain.ball(np.zeros(1), 1.0)
    assert Domain.ball(np.zeros(1), 1.0) != Domain.ball(np.zeros(1), 2.0)
    assert Domain.box([0.0], [1.0]) != Domain.ball(np.zeros(1), 1.0)
    assert Domain.box([0.0, 0.0], [1.0, 2.0]) == Domain.box([0.0, 0.0], [1.0, 2.0])
    assert Domain.box([0.0, 0.0], [1.0, 2.0]) != Domain.box([0.0, 0.0], [1.0, 3.0])
    assert Domain.box([0.0, 0.0], [1.0, 2.0]) != Domain.box([-1.0, 0.0], [1.0, 2.0])


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-14)


# ---------------------------------------------------------------------------
# discrete measures
# ---------------------------------------------------------------------------

def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((1, 1)), np.array([0.5]), DOM)
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([[2.0]]), np.ones(1), DOM)
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([[np.nan]]), np.ones(1), DOM)
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((2, 1)), np.array([1.5, -0.5]), DOM)


def test_discrete_measure_rejects_points_of_another_dimension():
    # ``Domain.contains`` broadcasts, so 2D points passed on a 1D ball
    with pytest.raises(ValueError, match="dimension mismatch"):
        DiscreteMeasure(np.zeros((1, 2)), np.ones(1), Domain.ball(np.zeros(1), 1.0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        DiscreteMeasure(np.zeros((1, 1)), np.ones(1), Domain.ball(np.zeros(2), 1.0))


def test_discrete_measure_merged():
    m = DiscreteMeasure(np.array([[0.5], [0.5], [-0.5]]),
                        np.array([0.25, 0.25, 0.5]), DOM)
    merged = m.merged()
    assert len(merged.points) == 2
    idx = np.argsort(merged.points[:, 0])
    assert merged.points[idx].ravel().tolist() == [-0.5, 0.5]
    assert merged.weights[idx].tolist() == [0.5, 0.5]


def test_merged_has_the_bits_of_axis0_unique():
    # one rule for every dimension: without rows that differ only in the
    # sign of a zero, the points, weights and sums of np.unique(axis=0)
    rng = np.random.default_rng(4)
    for d in (1, 2, 3):
        dom = Domain.box(-np.ones(d), np.ones(d))
        for pts in (rng.choice(np.linspace(-1.0, 1.0, 9), size=(60, d)),
                    rng.choice(np.linspace(-1.0, 1.0, 3), size=(300, d)),
                    np.full((3, d), 0.25), np.full((1, d), -0.5),
                    np.array([[0.5], [-0.5], [0.0], [0.5], [-0.5]]).repeat(d, axis=1)):
            w = rng.uniform(0.1, 1.0, len(pts))
            m = DiscreteMeasure(pts, w / w.sum(), dom)
            want_pts, inverse = np.unique(m.points, axis=0, return_inverse=True)
            want_w = np.zeros(len(want_pts))
            np.add.at(want_w, inverse, m.weights)
            got = m.merged()
            assert got.points.shape == want_pts.shape
            assert got.points.tobytes() == want_pts.tobytes()
            assert got.weights.tobytes() == want_w.tobytes()


def test_sorted_distinct_has_the_bits_of_np_unique():
    rng = np.random.default_rng(6)
    segs = np.sort(rng.uniform(0.0, 1.0, (5, 2)), axis=1)
    cases = [rng.choice(np.linspace(0.0, 1.0, 7), 40),
             np.concatenate([[0.0], segs.ravel(), segs.ravel(), [1.0], [0.0, 1.0]]),
             np.array([0.5, -0.0, 0.0, 1.0, -0.0, 0.5]),
             np.array([0.0, -0.0]), np.array([-0.0, 0.0]),
             rng.uniform(-1.0, 1.0, (4, 3)).round(1),
             np.empty(0), np.array([2.5])]
    for x in cases:
        got, want = _sorted_distinct(x), np.unique(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # of an equal -0.0/0.0 run the first after the sort survives; NumPy's
    # sort keeps these two-element inputs in their order
    assert np.signbit(_sorted_distinct(np.array([-0.0, 0.0]))).tolist() == [True]
    assert np.signbit(_sorted_distinct(np.array([0.0, -0.0]))).tolist() == [False]


def test_discrete_measure_csv_deterministic(tmp_path):
    m = DiscreteMeasure(np.array([[0.25], [-0.75]]), np.array([0.5, 0.5]), DOM)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    m.to_csv(p1)
    m.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "x_1,weight"


# ---------------------------------------------------------------------------
# uniform grids
# ---------------------------------------------------------------------------

def test_grid_uniform_box_70():
    m = uniform_grid(Domain.box([0.0, 0.0], [1.0, 1.0]), 70)
    assert len(m.points) == 70 * 70
    axis = (np.arange(70) + 0.5) / 70  # cell centers, first coordinate slowest
    assert np.allclose(m.points, np.stack(np.meshgrid(axis, axis, indexing="ij"), -1)
                       .reshape(-1, 2), rtol=0.0, atol=1e-15)
    assert (m.weights == 1.0 / 4900.0).all()


def test_grid_uniform_ball_masks_outside():
    m = uniform_grid(Domain.ball(np.zeros(2), 1.0), 16)
    assert (np.linalg.norm(m.points, axis=1) <= 1.0).all()
    assert len(m.points) < 16 * 16
    assert (m.weights == 1.0 / len(m.points)).all()
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_single_cell_grid_is_center_dirac():
    m = uniform_grid(Domain.box([0.0, 0.0], [1.0, 1.0]), 1)
    assert len(m.points) == 1
    assert np.allclose(m.points[0], [0.5, 0.5])
    assert m.weights[0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("resolution", [0, -3])
def test_grid_rejects_a_resolution_below_one(resolution):
    with pytest.raises(ValueError, match=f"resolution must be at least 1, got {resolution}"):
        uniform_grid(Domain.ball(np.zeros(2), 1.0), resolution)


# ---------------------------------------------------------------------------
# 1D measures and quantiles
# ---------------------------------------------------------------------------

def test_measure1d_validation():
    with pytest.raises(ValueError):
        Measure1D.from_pieces(DOM, [(-0.5, 0.5, 0.7)])  # mass != 1
    with pytest.raises(ValueError):
        Measure1D.from_pieces(DOM, [(0.5, -0.5, 1.0)])  # inverted interval
    with pytest.raises(ValueError):
        Measure1D.from_pieces(DOM, [(-0.2, 0.2, 0.5), (-0.1, 0.3, 0.5)])
    with pytest.raises(ValueError):
        Measure1D.from_pieces(DOM, [(0.5, 3.0, 1.0)])  # outside domain


def test_quantile_examples():
    # rows (u_lo, u_hi, x_lo, x_hi) of the quantile function, the pieces
    # wasserstein_1d couples
    assert Measure1D.dirac(DOM, 0.0).quantile_segments().tolist() == [[0.0, 1.0, 0.0, 0.0]]
    u = Measure1D.uniform(DOM, -0.5, 0.5)
    assert u.quantile_segments().tolist() == [[0.0, 1.0, -0.5, 0.5]]
    assert wasserstein_1d(u, Measure1D.dirac(DOM, 0.0), math.inf) == 0.5
    eps = 0.1
    pinched = Measure1D.lebesgue_on(
        DOM, [(-0.5, -eps / 2), (eps / 2, 0.5)], [(0.0, eps)])
    segs = pinched.quantile_segments()
    np.testing.assert_allclose(segs, [[0.0, 0.45, -0.5, -0.05], [0.45, 0.55, 0.0, 0.0],
                                      [0.55, 1.0, 0.05, 0.5]], rtol=0, atol=1e-15)
    assert segs[-1, 1] == 1.0


def test_quantile_right_continuous_at_atoms():
    m = Measure1D.from_pieces(DOM, (), [(0.0, 0.5), (0.75, 0.5)])
    # F(0) = 0.5; the right-continuous inverse jumps to the next atom at 0.5
    assert m.quantile_segments().tolist() == [[0.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.75, 0.75]]
    assert wasserstein_1d(m, Measure1D.dirac(DOM, 0.0), math.inf) == 0.75
    assert wasserstein_1d(m, Measure1D.dirac(DOM, 0.0), 2.0) == pytest.approx(
        math.sqrt(0.5) * 0.75, rel=1e-15)


def test_quantile_scaling_of_uniform():
    # Q_wide = 4 Q_narrow, so every distance to the Dirac at 0 scales by 4
    wide = Measure1D.uniform(DOM, -0.8, 0.8)
    narrow = Measure1D.uniform(DOM, -0.2, 0.2)
    dirac = Measure1D.dirac(DOM, 0.0)
    for r in (1.5, 2.0, 3.0, math.inf):
        assert wasserstein_1d(wide, dirac, r) == pytest.approx(
            4.0 * wasserstein_1d(narrow, dirac, r), abs=1e-12)


# ---------------------------------------------------------------------------
# 1D Wasserstein distances
# ---------------------------------------------------------------------------

def test_w1d_block_vs_dirac():
    eps = 0.1
    rho = Measure1D.uniform(DOM, -eps / 2, eps / 2)
    assert wasserstein_1d(rho, Measure1D.dirac(DOM, 0.0), 2.0) == pytest.approx(
        eps / (2.0 * math.sqrt(3.0)), abs=1e-15)


def test_w1d_atom_pinch_value():
    eps = 0.1
    rho = Measure1D.uniform(DOM, -0.5, 0.5)
    pinched = Measure1D.lebesgue_on(
        DOM, [(-0.5, -eps / 2), (eps / 2, 0.5)], [(0.0, eps)])
    assert wasserstein_1d(rho, pinched, 2.0) == pytest.approx(
        math.sqrt(eps ** 3 / 12.0), abs=1e-15)
    assert wasserstein_1d(rho, pinched, math.inf) == pytest.approx(
        eps / 2.0, abs=1e-15)


def test_w1d_identity_and_errors():
    m = Measure1D.uniform(DOM, -0.3, 0.4)
    for r in (1.5, 2.0, 3.0, math.inf):
        assert wasserstein_1d(m, m, r) == 0.0
    with pytest.raises(ValueError):
        wasserstein_1d(m, m, 1.0)
    other = Measure1D.uniform(Domain.ball(np.zeros(1), 2.0), -0.3, 0.4)
    with pytest.raises(ValueError):
        wasserstein_1d(m, other, 2.0)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-0.4, 0.4), r=st.sampled_from([1.5, 2.0, 3.0, math.inf]))
def test_w1d_translation_equivariance(a, r):
    dom = Domain.ball(np.zeros(1), 2.0)
    m = Measure1D.from_pieces(dom, [(-0.5, -0.1, 0.4), (0.2, 0.5, 0.35)],
                              [(0.0, 0.25)])
    shifted = Measure1D.from_pieces(
        dom, [(-0.5 + a, -0.1 + a, 0.4), (0.2 + a, 0.5 + a, 0.35)],
        [(a, 0.25)])
    assert wasserstein_1d(m, shifted, r) == pytest.approx(abs(a), abs=1e-12)


def test_w1d_monotone_in_r():
    rho = Measure1D.uniform(DOM, -0.5, 0.5)
    nu = Measure1D.from_pieces(DOM, [(-0.4, 0.2, 0.7)], [(0.45, 0.3)])
    vals = [wasserstein_1d(rho, nu, r) for r in (1.5, 2.0, 3.0, 6.0, math.inf)]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


def _scalar_cut_w1d(m1, m2, r):
    """W_r by a scalar loop over the cut intervals: each interval looks up
    its two quantile segments with its own ``searchsorted`` at the midpoint
    and evaluates them at both ends, a zero-width segment at its x_lo."""
    s1 = m1.quantile_segments()
    s2 = m2.quantile_segments()
    cuts = np.unique(np.concatenate([s1[:, :2].ravel(), s2[:, :2].ravel(), [0.0, 1.0]]))
    cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]

    def eval_on(segs, idx, u):
        u0, u1, x0, x1 = segs[idx]
        if u1 <= u0:
            return x0
        return x0 + (x1 - x0) * (u - u0) / (u1 - u0)

    pieces = []
    for ulo, uhi in zip(cuts[:-1], cuts[1:]):
        if uhi - ulo <= 0:
            continue
        um = 0.5 * (ulo + uhi)
        i1 = min(int(np.searchsorted(s1[:, 1], um, side="right")), s1.shape[0] - 1)
        i2 = min(int(np.searchsorted(s2[:, 1], um, side="right")), s2.shape[0] - 1)
        pieces.append((ulo, uhi, eval_on(s1, i1, ulo) - eval_on(s2, i2, ulo),
                       eval_on(s1, i1, uhi) - eval_on(s2, i2, uhi)))
    if math.isinf(r):
        return float(max(max(abs(a), abs(b)) for _, _, a, b in pieces))
    total = 0.0
    for ulo, uhi, a, b in pieces:
        if a * b < 0:
            t_root = a / (a - b)
            total += _piece_integral(a, 0.0, (uhi - ulo) * t_root, r)
            total += _piece_integral(0.0, b, (uhi - ulo) * (1.0 - t_root), r)
        else:
            total += _piece_integral(a, b, uhi - ulo, r)
    return float(total ** (1.0 / r))


_R_ORDERS = [1.5, 2.0, 3.0, 6.0, math.inf]
_GRID = np.linspace(-1.0, 1.0, 9)


@st.composite
def _mixtures(draw):
    """Interval/atom mixtures on a coarse grid: intervals on distinct grid
    cells, atoms that may coincide with each other or with interval ends,
    integer masses (zero included), so that two draws share cut points."""
    cells = draw(st.lists(st.integers(0, 7), unique=True, max_size=4))
    shrink = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5]),
                           min_size=len(cells), max_size=len(cells)))
    spots = draw(st.lists(st.sampled_from(list(_GRID) + [0.3, 1e-9]), max_size=4))
    units = draw(st.lists(st.integers(0, 6), min_size=len(cells) + len(spots),
                          max_size=len(cells) + len(spots)))
    if sum(units) == 0:
        units = [0] * len(cells) + [1] * len(spots) if spots else [1] * len(cells)
    if sum(units) == 0:
        units, spots = [1], [0.0]
    total = float(sum(units))
    iv = [(_GRID[c] + 0.25 * f, _GRID[c + 1], w / total)
          for c, f, w in zip(cells, shrink, units)]
    at = [(x, w / total) for x, w in zip(spots, units[len(cells):])]
    return Measure1D.from_pieces(DOM, iv, at)


@settings(max_examples=300, deadline=None)
@given(m1=_mixtures(), m2=_mixtures(), r=st.sampled_from(_R_ORDERS))
def test_w1d_matches_scalar_cut_loop(m1, m2, r):
    assert wasserstein_1d(m1, m2, r).hex() == _scalar_cut_w1d(m1, m2, r).hex()


def test_w1d_zero_width_top_segment_takes_its_start():
    # the last piece's mass is below the spacing of u at 1, so its quantile
    # segment has zero width; the other measure cuts at the float below 1,
    # whose interval's midpoint rounds to 1 and selects that segment
    tiny = Measure1D.from_pieces(
        DOM, [(-1.0, -0.5, 0.5), (-0.5, 0.0, 0.5), (0.5, 1.0, 1e-18)])
    below = np.nextafter(1.0, 0.0)
    other = Measure1D.from_pieces(DOM, [(-1.0, 0.0, below), (0.0, 0.1, 1.0 - below)])
    assert tiny.quantile_segments()[-1, 0] == 1.0
    for r in _R_ORDERS:
        assert (wasserstein_1d(tiny, other, r).hex()
                == _scalar_cut_w1d(tiny, other, r).hex())
    assert wasserstein_1d(tiny, other, math.inf) == 0.5


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_discretize_uniform_resolution_4():
    m = discretize(Measure1D.uniform(Domain.box([0.0], [1.0]), 0.0, 1.0), 4)
    assert np.allclose(np.sort(m.points.ravel()), [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(m.weights, 0.25)


def test_discretize_keeps_atoms():
    eps = 0.1
    pinched = Measure1D.lebesgue_on(
        DOM, [(-0.5, -eps / 2), (eps / 2, 0.5)], [(0.0, eps)])
    m = discretize(pinched, 100)
    at_zero = np.isclose(m.points.ravel(), 0.0, atol=1e-15)
    assert at_zero.any()
    assert m.weights[at_zero].sum() == pytest.approx(eps, abs=1e-12)


def test_discretize_error_within_half_cell():
    rho = Measure1D.uniform(DOM, -0.5, 0.5)
    for cells in (16, 64, 256):
        m = discretize(rho, cells)
        err = wasserstein_1d(rho, Measure1D.from_discrete(m), math.inf)
        assert err <= 0.5 * (1.0 / cells) + 1e-12


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------

def test_measure_from_json_roundtrips():
    doc = {"kind": "discrete",
           "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
           "points": [[0.25, 0.5], [0.75, 0.5]], "weights": [0.5, 0.5]}
    m = measure_from_json(doc)
    assert isinstance(m, DiscreteMeasure)
    assert m.points.tolist() == [[0.25, 0.5], [0.75, 0.5]]
    assert m.weights.tolist() == [0.5, 0.5]

    with pytest.raises(ValueError):
        measure_from_json({"kind": "nonsense"})
    with pytest.raises(ValueError, match="unknown measure kind 'measure1d'"):
        measure_from_json({"kind": "measure1d", "domain": {"kind": "box", "lo": [0.0], "hi": [1.0]},
                           "intervals": [[0.0, 1.0, 1.0]]})


@pytest.mark.parametrize("doc, field", [
    ({"kind": "discrete", "domain": {"kind": "box", "lo": [0.0], "hi": [1.0]},
      "points": [[0.5]]}, "weights"),
    ({"kind": "discrete", "domain": {"kind": "ball", "center": [0.0]},
      "points": [[0.5]], "weights": [1.0]}, "radius"),
    ({"kind": "discrete", "domain": {"kind": "box", "lo": [0.0]},
      "points": [[0.5]], "weights": [1.0]}, "hi"),
])
def test_measure_from_json_names_a_missing_field(doc, field):
    with pytest.raises(ValueError, match=f"no '{field}' field"):
        measure_from_json(doc)


_BOX2 = {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}


@pytest.mark.parametrize("doc, message", [
    ({"kind": "discrete", "domain": _BOX2, "points": [[0.2, 0.8]], "weights": {"a": 1}},
     "measure field 'weights' must be a list of numbers"),
    ({"kind": "discrete", "domain": _BOX2, "points": [[0.2, 0.8], [0.5]], "weights": [0.5, 0.5]},
     "measure field 'points' must be a list of 2-number lists"),
    ({"kind": "discrete", "domain": _BOX2, "points": [[0.2, 0.8, 0.1]], "weights": [1.0]},
     "measure field 'points' must be a list of 2-number lists"),
    ({"kind": "discrete", "domain": _BOX2, "points": "[[0.5, 0.5]]", "weights": [1.0]},
     "measure field 'points' must be a list of 2-number lists"),
    ({"kind": "discrete", "domain": {"kind": "ball", "center": [0.5, 0.5], "radius": [1.0]},
      "points": [[0.5, 0.5]], "weights": [1.0]}, "domain field 'radius' must be a number"),
    ({"kind": "discrete", "domain": {"kind": "box", "lo": {"x": 0}, "hi": [1.0, 1.0]},
      "points": [[0.5, 0.5]], "weights": [1.0]}, "domain field 'lo' must be a list of numbers"),
])
def test_measure_from_json_names_a_malformed_field(doc, message):
    # each was a TypeError (object weights or lo, list radius) or a NumPy
    # ValueError naming no field
    with pytest.raises(ValueError, match=message):
        measure_from_json(doc)


def test_measure_from_json_grid_with_cell_masses():
    # the grid literal is no longer read: a uniform grid is ``uniform_grid``
    doc = {"kind": "grid",
           "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 2.0]},
           "resolution": [2, 2], "masses": [1, 2, 3, 2]}
    with pytest.raises(ValueError, match="unknown measure kind 'grid'"):
        measure_from_json(doc)


def test_measure1d_cdf_with_atoms():
    # the CDF's jumps (flat quantile rows) and ramps (sloped rows): 0 below
    # -0.75, 0.25 from the atom there, 0.25 -> 0.75 across the interval, and
    # 1 from the atom at its top end on
    m = Measure1D.from_pieces(DOM, [(-0.5, 0.5, 0.5)], [(-0.75, 0.25), (0.5, 0.25)])
    assert m.quantile_segments().tolist() == [[0.0, 0.25, -0.75, -0.75],
                                              [0.25, 0.75, -0.5, 0.5],
                                              [0.75, 1.0, 0.5, 0.5]]


def test_measure_from_json_text_document():
    # the loader reads a parsed JSON object, not its text
    text = json.dumps({"kind": "discrete", "domain": {"kind": "box", "lo": [0.0], "hi": [1.0]},
                       "points": [[0.5]], "weights": [1.0]})
    for doc in (text, text.encode()):
        with pytest.raises(ValueError, match="must be an object"):
            measure_from_json(doc)
    assert measure_from_json(json.loads(text)).points.tolist() == [[0.5]]
