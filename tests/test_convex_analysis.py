"""Max-affine functions, subdifferentials and singular-set estimates."""

import hashlib
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otpush import _kernels, convex_analysis
from otpush.convex_analysis import (IntegralDiamEstimate, MaxAffineFunction,
                                    SubdiffPolytope, breakpoints_1d, count_bound,
                                    covering_number_sigma, diam_subdiff_ball,
                                    integral_bound, integral_diam_estimate,
                                    kink_ladder, verify_lemma_diam_l1)
from otpush.convex_analysis import (_actives, _cell_active, _cell_edges, _disc_grid,
                                    _pairwise_diam, _scan_axis, _singular)
from otpush.experiments import random_max_affine
from otpush.geometry_measures import DiscreteMeasure, Domain
from otpush.pushforward import pushforward_convex

from c_partner import convex_to_phi, diam_partial_c

REPO = Path(__file__).resolve().parents[1]

ABS = MaxAffineFunction(np.array([[-1.0], [1.0]]), np.zeros(2))
AFFINE = MaxAffineFunction(np.array([[0.7]]), np.array([0.2]))
ABS_X = MaxAffineFunction(np.array([[-1.0, 0.0], [1.0, 0.0]]), np.zeros(2))  # |x_1|
# NaN fails every comparison, so a `<= 0` check lets it through
NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                                     ids=["nan", "inf", "-inf"])


def _first_argmax_slopes(f, points):
    """Slope of each point's first arg-max piece: the gradient that the
    pushforwards give a regular point."""
    return f.slopes[np.argmax(f.piece_values(points), axis=1)]


# ---------------------------------------------------------------------------
# max-affine container
# ---------------------------------------------------------------------------

def test_max_affine_evaluation_and_gradient():
    xs = np.array([[-2.0], [-0.5], [0.0], [1.5]])
    assert np.allclose(ABS(xs), [2.0, 0.5, 0.0, 1.5])
    assert np.allclose(_first_argmax_slopes(ABS, xs).ravel(), [-1.0, -1.0, -1.0, 1.0])
    assert ABS.lip == 1.0
    assert AFFINE.lip == 0.7


def test_gradient_takes_the_first_maximal_piece():
    # pieces 0 and 2 are one plane, so they tie wherever they win; the
    # origin ties all four pieces
    f = MaxAffineFunction(np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                          np.zeros(4))
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [1.0, 1.0], [0.5, 0.5],
                    [-0.0, -0.0], [0.0, 2.0]])
    first = np.argmax(pts @ f.slopes.T + f.intercepts, axis=1)
    assert first.tolist() == [0, 0, 1, 0, 0, 0, 3]
    assert _actives(f.piece_values(pts))[1].tolist() == first.tolist()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6), rows=st.integers(2, 400))
def test_one_point_gets_the_bits_of_its_batch_row(seed, k, rows):
    # alone, a 1-row product takes BLAS's matrix-vector path, whose bits
    # differ from the batch row's in most draws
    rng = np.random.default_rng(seed)
    f = random_max_affine(rng, 2, k, 3.0, 1.0)
    pts = rng.uniform(-1.0, 1.0, (rows, 2))
    t = int(rng.integers(rows))
    x = pts[t]
    assert _bits(f.piece_values(x)) == _bits(f.piece_values(pts)[t:t + 1])
    assert _bits(f(x)) == _bits(f(pts)[t])
    eta = float(rng.uniform(0.02, 0.5))
    A, B = f.slopes, f.intercepts
    for i in range(k):
        edges = _cell_edges(A, B, i)
        alone = _cell_active(A, B, i, edges, x[None, :], eta)
        assert alone.tolist() == _cell_active(A, B, i, edges, pts, eta)[t:t + 1].tolist()


def test_max_affine_validation():
    with pytest.raises(ValueError):
        MaxAffineFunction(np.array([[np.nan]]), np.zeros(1))
    with pytest.raises(ValueError):
        MaxAffineFunction(np.zeros((2, 1)), np.zeros(3))


def test_kink_ladder_structure():
    f = kink_ladder(4, 1.0, 1.0)
    assert np.allclose(f.slopes.ravel(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.allclose(breakpoints_1d(f), [-0.6, -0.2, 0.2, 0.6])
    assert f.lip == 1.0
    with pytest.raises(ValueError):
        kink_ladder(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        kink_ladder(2, -1.0, 1.0)


def test_envelope_matches_dense_argmax():
    # integer slopes repeat on purpose: the envelope keeps the largest
    # intercept per slope, and its pieces must be the first argmax wherever
    # the top two values are apart
    rng = np.random.default_rng(23)
    xs = np.linspace(-3.0, 3.0, 20001)
    for _ in range(40):
        k = int(rng.integers(1, 12))
        f = MaxAffineFunction(rng.integers(-5, 6, (k, 1)).astype(float),
                              rng.normal(size=k))
        env_s, env_b, bp = f._envelope()
        assert len(bp) == len(env_s) - 1
        assert (np.diff(env_s) > 0).all() and (np.diff(bp) > 0).all()
        vals = f.piece_values(xs[:, None])
        top = np.sort(vals, axis=1)
        clear = top[:, -1] - top[:, -2] > 1e-9 if k > 1 else np.ones(len(xs), bool)
        run = np.searchsorted(bp, xs)
        assert np.array_equal(env_s[run][clear],
                              f.slopes[np.argmax(vals, axis=1), 0][clear])
        assert np.abs(env_s[run] * xs + env_b[run] - top[:, -1]).max() <= 1e-12
        # no piece on the envelope is empty: each leads inside its run
        mids = np.concatenate([bp[:1] - 1.0, 0.5 * (bp[1:] + bp[:-1]), bp[-1:] + 1.0]) \
            if len(bp) else np.zeros(1)
        assert np.array_equal(_first_argmax_slopes(f, mids[:, None])[:, 0], env_s)


# ---------------------------------------------------------------------------
# subdifferentials
# ---------------------------------------------------------------------------

def _active_slopes(f, x):
    """Slopes of the pieces active at the one point x (``_actives``)."""
    return f.slopes[_actives(f.piece_values(x))[0][0]]


def test_subdifferential_abs():
    sd0 = _active_slopes(ABS, np.array([0.0]))
    assert np.allclose(np.sort(sd0.ravel()), [-1.0, 1.0])
    assert _pairwise_diam(sd0) == pytest.approx(2.0, abs=1e-15)
    sd_half = _active_slopes(ABS, np.array([0.5]))
    assert not _singular(sd_half)
    assert np.allclose(sd_half.ravel(), [1.0])


def test_subdifferential_ladder_kinks():
    f = kink_ladder(4, 1.0, 1.0)
    slopes = f.slopes.ravel()
    for k, x in enumerate(breakpoints_1d(f)):
        sd = _active_slopes(f, np.array([x]))
        assert np.allclose(np.sort(sd.ravel()), [slopes[k], slopes[k + 1]])


def test_subdifferential_near_tie_agrees_with_pushforward():
    # f = max(-x, x + 1e-13): at x = 0 the pieces are 1e-13 apart, inside
    # the activity tolerance, and their slopes 2 apart, so x is singular
    # for the active set and for the pushforward alike
    f = MaxAffineFunction(np.array([[-1.0], [1.0]]), np.array([0.0, 1e-13]))
    x = np.zeros(1)
    sd = _active_slopes(f, x)
    assert np.array_equal(np.sort(sd.ravel()), [-1.0, 1.0])
    dirac = DiscreteMeasure(x[None, :], np.ones(1), Domain.box([-1.0], [1.0]))
    assert pushforward_convex(f, dirac).singular_hits == 1
    assert _singular(sd)


def test_subgradient_monotonicity():
    rng = np.random.default_rng(5)
    f2 = MaxAffineFunction(rng.normal(size=(6, 2)), rng.normal(size=6))
    X = rng.uniform(-1, 1, size=(40, 2))
    G = _first_argmax_slopes(f2, X)
    for a in range(len(X)):
        for b in range(a):
            assert (G[a] - G[b]) @ (X[a] - X[b]) >= -1e-12


def test_subdiff_polytope_operations():
    verts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    poly = SubdiffPolytope(verts)
    assert _pairwise_diam(poly.vertices) == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert _singular(poly.vertices)
    assert np.allclose(poly.extreme_vertex(np.array([0.0, 1.0])), [0.0, 2.0])
    proj, dist = poly.project(np.array([0.0, -1.0]))
    assert np.allclose(proj, [0.0, 0.0], atol=1e-9)
    assert dist == pytest.approx(1.0, abs=1e-9)
    mn = poly.min_norm_point()
    assert np.linalg.norm(mn) <= 1e-9  # origin lies inside
    single = SubdiffPolytope(np.array([[0.25, 0.75]]))
    assert not _singular(single.vertices) and _pairwise_diam(single.vertices) == 0.0


_SIGNED_ZERO_VALUES = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])


def _assert_vertices_bits(V, want):
    got = SubdiffPolytope(V).vertices
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_subdiff_dedupe_matches_np_unique_up_to_16_rows():
    # np.unique(axis=0) sorts with an unstable sort, which is insertion sort,
    # hence stable, on up to 16 rows: there even rows that differ only in
    # the sign of a zero dedupe to the same bits
    rng = np.random.default_rng(107)
    for d in (1, 2):
        for k in range(1, 17):
            for _ in range(60):
                V = _SIGNED_ZERO_VALUES[rng.integers(0, 5, (k, d))]
                _assert_vertices_bits(V, np.unique(V, axis=0))


def test_subdiff_dedupe_matches_np_unique_without_signed_zero_ties():
    rng = np.random.default_rng(109)
    unsigned = np.array([-1.0, 0.0, 0.5, 1.0])
    for d in (1, 2):
        for k in (17, 40, 200):
            for _ in range(20):
                V = unsigned[rng.integers(0, 4, (k, d))]
                _assert_vertices_bits(V, np.unique(V, axis=0))
                W = rng.uniform(-1.0, 1.0, (k, d))
                W = W[rng.integers(0, k, k)]  # repeated rows
                _assert_vertices_bits(W, np.unique(W, axis=0))


def test_subdiff_dedupe_keeps_first_signed_zero_row():
    # 24 rows with +-0 ties, where np.unique keeps other signs: of rows
    # that differ only in the sign of a zero, the first one given stays
    V = _SIGNED_ZERO_VALUES[np.random.default_rng(113).integers(0, 5, (24, 2))]
    firsts = {}
    for row in V:
        firsts.setdefault(tuple(float(x) + 0.0 for x in row), row)  # -0.0 + 0.0 is 0.0
    want = np.array([firsts[key] for key in sorted(firsts)])
    _assert_vertices_bits(V, want)
    assert np.signbit(np.unique(V, axis=0)).tobytes() != np.signbit(want).tobytes()


def _scalar_skeleton(V, p):
    """Closest vertex, then closest vertex-pair segment point, one pair at
    a time in (a, b), a < b order, taking a candidate only when its
    ``np.linalg.norm`` distance is strictly smaller."""
    best_pt, best_d = None, np.inf
    for v in V:
        dist = float(np.linalg.norm(p - v))
        if dist < best_d:
            best_pt, best_d = v.copy(), dist
    for a in range(len(V)):
        for b in range(a + 1, len(V)):
            e = V[b] - V[a]
            ee = float(e @ e)
            if ee < 1e-30:
                continue
            t = float(np.clip((p - V[a]) @ e / ee, 0.0, 1.0))
            cand = V[a] + t * e
            dist = float(np.linalg.norm(p - cand))
            if dist < best_d:
                best_pt, best_d = cand, dist
    return best_pt, best_d


def _scalar_project(poly, point):
    """``SubdiffPolytope.project`` written as scalar loops: the skeleton
    search above, then the 2D projection certificate."""
    p = np.asarray(point, dtype=float)
    V = poly.vertices
    if V.shape[0] == 1:
        return V[0].copy(), float(np.linalg.norm(p - V[0]))
    best_pt, best_d = _scalar_skeleton(V, p)
    if poly.dim == 2 and len(V) >= 3:
        r = p - best_pt
        if float(((V - best_pt) @ r).max()) > 0.5 * float(r @ r):
            return p.copy(), 0.0
    return best_pt, best_d


def _project_oracle(poly, point):
    """Closest hull point by enumeration: the skeleton search and, in 2D, a
    barycentric solve on every vertex triple (the triangle search that
    ``SubdiffPolytope.project`` replaced by its certificate; it raised on
    triples that LAPACK finds singular)."""
    p = np.asarray(point, dtype=float)
    V = poly.vertices
    if V.shape[0] == 1:
        return V[0].copy(), float(np.linalg.norm(p - V[0]))
    best_pt, best_d = _scalar_skeleton(V, p)
    if poly.dim == 2 and len(V) >= 3:
        for a in range(len(V)):
            for b in range(a + 1, len(V)):
                for c in range(b + 1, len(V)):
                    M = np.column_stack([V[b] - V[a], V[c] - V[a]])
                    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
                    if abs(det) < 1e-14:
                        continue
                    try:
                        lam = np.linalg.solve(M, p - V[a])
                    except np.linalg.LinAlgError:
                        # collinear at scale 1e3: |det| ~ 1e-10 by the
                        # formula, an exact zero pivot for LAPACK
                        continue
                    if lam.min() >= -1e-12 and lam.sum() <= 1 + 1e-12:
                        return p.copy(), 0.0
    return best_pt, best_d


def _skeleton_distance(V, p):
    """Distance from p to the nearest vertex or vertex-pair segment."""
    d = np.linalg.norm(V - p, axis=1).min()
    for a in range(len(V)):
        for b in range(a + 1, len(V)):
            e = V[b] - V[a]
            if e @ e == 0.0:
                # coincident vertices, or subnormal offsets whose square
                # underflows: the segment is its end, counted above
                continue
            t = np.clip((p - V[a]) @ e / (e @ e), 0.0, 1.0)
            d = min(d, np.linalg.norm(p - V[a] - t * e))
    return d


_DIMS = (2, 2, 2, 1, 3)
_SCALES = (1e-3, 0.037, 1.0, 3.7, 1e3)
_SHAPES = ("generic", "collinear", "duplicated", "lattice", "near-duplicate")
_WHERES = ("outside", "inside", "edge", "free", "zero", "bisector")


def _hull_case(rng, dim, k, scale, shape, where):
    """k vertices in ``dim`` dimensions at ``scale``, and a point.

    Shapes: generic thousandths, collinear, duplicated rows, a small
    integer lattice, or near-duplicates (rows one ulp from another row,
    about 1e-16 apart at scale 1, so their segments fall under the 1e-30
    length cut).  Points: outside the hull, inside it (Dirichlet weights),
    on a vertex-pair segment, anywhere, at 0, or on the perpendicular
    bisector of two vertices (on the lattice at scales 1 and 1e3 both
    distances are exact, so they tie after the square root).
    """
    # thousandths keep every non-degenerate triangle's |det| >= 1e-12, far
    # above the triangle oracle's 1e-14 cutoff
    if shape == "lattice":
        V = rng.integers(-2, 3, (k, dim)).astype(float)
    elif shape == "collinear":
        a, d = rng.integers(-1000, 1001, (2, dim)) / 1000
        V = a + rng.integers(-1000, 1001, (k, 1)) / 1000 * d
    else:
        V = rng.integers(-1000, 1001, (k, dim)) / 1000
        if shape == "duplicated":
            V = V[rng.integers(0, k, k)]
    V = V * scale
    if shape == "near-duplicate":
        h = (k + 1) // 2
        near = V[rng.integers(0, h, k - h)]
        V[h:] = np.nextafter(near, near + rng.choice([-1.0, 1.0], near.shape))
    W = np.unique(V, axis=0)
    if where == "zero":
        p = np.zeros(dim)
    elif where == "inside":
        p = rng.dirichlet(np.ones(len(W))) @ W
    elif where == "edge":
        a, b = rng.integers(0, len(W), 2)
        p = W[a] + rng.uniform() * (W[b] - W[a])
    elif where == "bisector":
        a, b = rng.integers(0, len(W), 2)
        e = W[b] - W[a]
        if dim == 1:
            n = np.zeros(1)
        elif dim == 2:
            n = np.array([-e[1], e[0]])
        else:
            n = np.cross(e, rng.integers(-2, 3, 3))
        p = 0.5 * (W[a] + W[b]) + rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]) * n
    else:
        c = W.mean(axis=0)
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        if where == "outside":
            reach = np.linalg.norm(W - c, axis=1).max()
            p = c + (reach + scale * rng.uniform(1e-6, 2.0)) * u
        else:
            p = c + scale * rng.uniform(0.0, 2.0) * u
    return V, p


@st.composite
def _hull_and_point(draw):
    """1-24 vertices in 1-3 dimensions at scales 1e-3..1e3 and a point, as
    ``_hull_case`` builds them."""
    return _hull_case(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                      draw(st.sampled_from(_DIMS)), draw(st.integers(1, 24)),
                      draw(st.sampled_from(_SCALES)),
                      draw(st.sampled_from(_SHAPES)),
                      draw(st.sampled_from(_WHERES)))


@settings(max_examples=400, deadline=None)
@given(case=_hull_and_point())
# 0 lies exactly on the edge from (-1, 0) to (1, 0)
@example(case=(np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.zeros(2)))
# three vertices 5e-324 apart, whose offsets square to 0
@example(case=(np.array([[0.0, 1.83e-4], [5e-324, 1.83e-4], [-5e-324, 1.83e-4],
                         [3.34e-4, -9.62e-4], [-7.51e-4, -7.22e-4]]),
               np.array([0.00261566, -0.00076496])))
def test_project_matches_triangle_enumeration(case):
    V, p = case
    poly = SubdiffPolytope(V)
    pt, dist = poly.project(p)
    want_pt, want_dist = _project_oracle(poly, p)
    size = 1.0 + np.linalg.norm(poly.vertices, axis=1).max()
    if _skeleton_distance(poly.vertices, p) > 1e-9 * size:
        assert pt.tobytes() == want_pt.tobytes() and dist == want_dist
    else:
        assert np.abs(pt - want_pt).max() <= 1e-12 * size
        assert abs(dist - want_dist) <= 1e-12 * size


def _assert_same_bits(poly, p):
    pt, dist = poly.project(p)
    want_pt, want_dist = _scalar_project(poly, p)
    assert type(dist) is float and pt.base is None
    assert pt.tobytes() == want_pt.tobytes()
    assert np.float64(dist).tobytes() == np.float64(want_dist).tobytes()
    return pt, dist


@settings(max_examples=400, deadline=None)
@given(case=_hull_and_point())
@example(case=(np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.zeros(2)))
def test_project_matches_scalar_loop(case):
    V, p = case
    _assert_same_bits(SubdiffPolytope(V), p)


# sha256 of project's points and distances on 2,000 seeded cases, recorded
# when ``project`` itself was the scalar loop that ``_scalar_project`` keeps.
_PROJECT_DIGEST = "c3899f9559079746e07c8d2694de175cae1f2b6c96a87549efcd5d1da2d8c1c2"


def test_project_is_pinned():
    rng = np.random.default_rng(2718)
    digest = hashlib.sha256()
    for _ in range(2000):
        V, p = _hull_case(rng, int(rng.choice(_DIMS)), int(rng.integers(1, 25)),
                          float(rng.choice(_SCALES)), str(rng.choice(_SHAPES)),
                          str(rng.choice(_WHERES)))
        pt, dist = _assert_same_bits(SubdiffPolytope(V), p)
        digest.update(pt.tobytes())
        digest.update(np.float64(dist).tobytes())
    assert digest.hexdigest() == _PROJECT_DIGEST


def test_project_zero_on_an_edge_is_exact():
    poly = SubdiffPolytope(np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    pt, dist = poly.project(np.zeros(2))
    assert pt.tobytes() == np.zeros(2).tobytes() and dist == 0.0


# ---------------------------------------------------------------------------
# local subdifferential diameter
# ---------------------------------------------------------------------------

@NON_FINITE
def test_diam_subdiff_ball_rejects_non_finite_eta(bad):
    with pytest.raises(ValueError, match="^eta must be finite"):
        diam_subdiff_ball(ABS, np.array([0.0]), bad)


@NON_FINITE
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("query", [diam_subdiff_ball, verify_lemma_diam_l1],
                         ids=["diam", "lemma"])
def test_ball_queries_reject_non_finite_centers(query, dim, bad):
    f = ABS if dim == 1 else ABS_X
    x = np.zeros(dim)
    x[0] = bad
    with pytest.raises(ValueError, match="^x must be finite"):
        query(f, x, 0.1)


def test_diam_subdiff_ball_examples():
    assert diam_subdiff_ball(ABS, np.array([0.0]), 0.3) == pytest.approx(2.0)
    assert diam_subdiff_ball(ABS, np.array([0.5]), 0.2) == 0.0
    assert diam_subdiff_ball(AFFINE, np.array([0.1]), 0.5) == 0.0
    with pytest.raises(ValueError):
        diam_subdiff_ball(ABS, np.array([0.0]), 0.0)


def _diam_oracle_1d(f, x, eta):
    """Dense scan of achievable slopes on [x - eta, x + eta]."""
    xs = np.linspace(x - eta, x + eta, 10_001)[:, None]
    vals = f.piece_values(xs)
    top = vals.max(axis=1)
    active = vals >= top[:, None] - 1e-12 * (1.0 + np.abs(top[:, None]))
    slopes = f.slopes.ravel()[np.unique(np.nonzero(active)[1])]
    return float(slopes.max() - slopes.min()) if len(slopes) else 0.0


def test_diam_subdiff_ball_against_dense_oracle():
    rng = np.random.default_rng(9)
    for trial in range(25):
        k = int(rng.integers(2, 7))
        f = MaxAffineFunction(rng.normal(size=(k, 1)),
                              rng.normal(scale=0.3, size=k))
        x = float(rng.uniform(-0.8, 0.8))
        eta = float(rng.uniform(0.02, 0.4))
        assert diam_subdiff_ball(f, np.array([x]), eta) == pytest.approx(
            _diam_oracle_1d(f, x, eta), abs=1e-9)


def test_diam_subdiff_ball_nondecreasing_in_eta():
    f = kink_ladder(5, 1.5, 1.0)
    for x in (-0.7, 0.0, 0.3):
        vals = [diam_subdiff_ball(f, np.array([x]), eta)
                for eta in (0.01, 0.05, 0.1, 0.3, 0.8)]
        assert all(vals[k] <= vals[k + 1] + 1e-12 for k in range(len(vals) - 1))


def test_diam_oscillation_bound():
    # diam of the ball subdifferential is controlled by 2/eta times the
    # oscillation of f on the doubled ball
    rng = np.random.default_rng(13)
    for trial in range(10):
        k = int(rng.integers(2, 6))
        f = MaxAffineFunction(rng.normal(size=(k, 1)),
                              rng.normal(scale=0.3, size=k))
        x = float(rng.uniform(-0.5, 0.5))
        eta = float(rng.uniform(0.05, 0.3))
        xs = np.linspace(x - 2 * eta, x + 2 * eta, 4001)[:, None]
        osc = float(f(xs).max() - f(xs).min())
        assert diam_subdiff_ball(f, np.array([x]), eta) <= 2.0 / eta * osc + 1e-9


# ---------------------------------------------------------------------------
# covering numbers
# ---------------------------------------------------------------------------

def test_covering_ladder_counts_kinks():
    f = kink_ladder(4, 1.0, 1.0)
    rep = covering_number_sigma(f, eta=1e-3, alpha=0.5, R=1.0)
    assert rep.count == 4
    assert rep.bound == pytest.approx(count_bound(1, 1.0, 1e-3, 0.5, 1.0))
    assert rep.count <= rep.bound


def test_covering_affine_is_empty():
    rep = covering_number_sigma(AFFINE, eta=0.01, alpha=0.1, R=1.0)
    assert rep.count == 0
    assert rep.centers.size == 0


def test_covering_threshold_above_total_spread():
    f = kink_ladder(4, 1.0, 1.0)
    rep = covering_number_sigma(f, eta=0.01, alpha=2.5, R=1.0)
    assert rep.count == 0
    # the scan detects diam >= alpha - 1e-9, so the kink of |x| (diam 2 = 2 Lip)
    # is detected at an alpha above 2 Lip by less than that
    rep = covering_number_sigma(ABS, eta=0.01, alpha=2.0 + 5e-10, R=1.0)
    assert rep.count == 1


def test_covering_2d_within_bound():
    rng = np.random.default_rng(17)
    for trial in range(5):
        k = int(rng.integers(3, 7))
        f = MaxAffineFunction(rng.normal(size=(k, 2)),
                              rng.normal(scale=0.2, size=k))
        eta = float(rng.uniform(0.05, 0.2))
        alpha = float(rng.uniform(0.2, 1.0)) * f.lip
        rep = covering_number_sigma(f, eta=eta, alpha=alpha, R=1.0)
        assert rep.count <= rep.bound


@NON_FINITE
@pytest.mark.parametrize("name", ["eta", "alpha", "R"])
def test_covering_rejects_non_finite_arguments(name, bad):
    args = {"eta": 0.01, "alpha": 0.5, "R": 1.0, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        covering_number_sigma(kink_ladder(4, 1.0, 1.0), **args)


# ---------------------------------------------------------------------------
# integral estimates
# ---------------------------------------------------------------------------

def test_integral_estimate_abs():
    for eta in (0.05, 0.1):
        est = integral_diam_estimate(ABS, eta=eta, q=2.0, R=1.0)
        assert est.estimate == pytest.approx(8.0 * eta, abs=1e-12)
        assert est.estimate <= est.bound


def test_integral_estimate_affine_zero():
    est = integral_diam_estimate(AFFINE, eta=0.1, q=2.0, R=1.0)
    assert est.estimate == 0.0


def test_integral_estimate_ladder_closed_form():
    # below half the kink gap each ball sees one kink: count * 2 eta * jump^q
    for n, lip, q in ((4, 1.0, 2.0), (5, 2.0, 1.5), (8, 1.0, 3.0)):
        f = kink_ladder(n, lip, 1.0)
        gap = 2.0 / (n + 1)
        eta = 0.2 * gap
        est = integral_diam_estimate(f, eta=eta, q=q, R=1.0)
        expect = n * 2.0 * eta * (2.0 * lip / n) ** q
        assert est.estimate == pytest.approx(expect, rel=1e-12)
        assert est.bound == pytest.approx(integral_bound(1, q, 1.0, eta, lip))
        assert est.estimate <= est.bound


def test_integral_estimate_q_validation():
    with pytest.raises(ValueError):
        integral_diam_estimate(ABS, eta=0.1, q=1.0, R=1.0)
    with pytest.raises(ValueError):
        integral_diam_estimate(ABS, eta=0.1, q=0.5, R=1.0)


@NON_FINITE
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", ["eta", "q", "R"])
def test_integral_estimate_rejects_non_finite_arguments(name, dim, bad):
    f = ABS if dim == 1 else ABS_X
    args = {"eta": 0.1, "q": 2.0, "R": 1.0, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        integral_diam_estimate(f, **args)


def test_integral_estimate_2d_below_bound():
    rng = np.random.default_rng(19)
    for trial in range(3):
        k = int(rng.integers(3, 6))
        f = MaxAffineFunction(rng.normal(size=(k, 2)),
                              rng.normal(scale=0.2, size=k))
        est = integral_diam_estimate(f, eta=0.1, q=2.0, R=1.0)
        assert isinstance(est, IntegralDiamEstimate)
        assert est.estimate <= est.bound


# ---------------------------------------------------------------------------
# pointwise diameter-vs-gradient-integral inequality
# ---------------------------------------------------------------------------

@NON_FINITE
@pytest.mark.parametrize("dim", [1, 2])
def test_verify_lemma_rejects_non_finite_eta(dim, bad):
    f = ABS if dim == 1 else ABS_X
    with pytest.raises(ValueError, match="^eta must be finite"):
        verify_lemma_diam_l1(f, np.zeros(dim), bad)


def test_verify_lemma_abs_at_origin():
    lhs, rhs = verify_lemma_diam_l1(ABS, np.array([0.0]), 1.0)
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(48.0, abs=1e-12)


def test_verify_lemma_affine():
    eta = 0.5
    lhs, rhs = verify_lemma_diam_l1(AFFINE, np.array([0.0]), eta)
    assert lhs == 0.0
    # integral of |grad| over the interval of length 8 eta, scaled by
    # 12 / (beta_1 eta) with beta_1 = 2
    assert rhs == pytest.approx(12.0 / (2.0 * eta) * 0.7 * 8.0 * eta, rel=1e-12)


def test_verify_lemma_holds_randomly():
    rng = np.random.default_rng(29)
    for trial in range(20):
        d = int(rng.integers(1, 3))
        k = int(rng.integers(2, 6))
        f = MaxAffineFunction(rng.normal(size=(k, d)),
                              rng.normal(scale=0.3, size=k))
        x = rng.uniform(-0.5, 0.5, size=d)
        eta = float(rng.uniform(0.05, 0.4))
        lhs, rhs = verify_lemma_diam_l1(f, x, eta)
        assert lhs <= rhs * (1.0 + 1e-9) + 1e-12


def _disc_area_in_polygon(poly, center, r):
    """Area of the counter-clockwise polygon ``poly`` inside B(center, r).

    Summed over edges pq: the signed area of the disc's part of the triangle
    (center, p, q).  The edge p + t (q - p) lies in the disc for t between
    the roots of |p + t (q - p)|^2 = r^2 (none when it misses or touches
    the circle); a piece there adds its triangle, a piece outside adds the
    sector r^2 * angle / 2.
    """
    P = np.asarray(poly, dtype=float) - center
    area = 0.0
    for p, q in zip(P, np.roll(P, -1, axis=0)):
        d = q - p
        A, B, C = d @ d, p @ d, p @ p - r * r
        enter, leave = np.inf, -np.inf
        if A > 0.0 and B * B > A * C:
            s = math.sqrt(B * B - A * C)
            enter, leave = (-B - s) / A, (-B + s) / A
        ts = [0.0] + [t for t in (enter, leave) if 0.0 < t < 1.0] + [1.0]
        for t0, t1 in zip(ts, ts[1:]):
            u, v = p + t0 * d, p + t1 * d
            cross = u[0] * v[1] - u[1] * v[0]
            if enter < 0.5 * (t0 + t1) < leave:
                area += 0.5 * cross
            else:
                area += 0.5 * r * r * math.atan2(cross, u @ v)
    return area


def _exact_gradient_integral(f, x, radius):
    """Integral of |grad f| over B(x, radius) for a 2D max-affine f with
    distinct pieces: sum_i |a_i| area(cell_i & disc), cells clipped by
    ``_box_cell_polygon`` from the disc's bounding square."""
    box = x + radius * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    A, B = f.slopes, f.intercepts
    return sum(np.linalg.norm(A[i]) * _disc_area_in_polygon(_box_cell_polygon(A, B, i, box), x, radius)
               for i in range(len(B)))


def _midpoint_cells_cut(f, x, eta):
    """How many of the 256^2 midpoint-rule squares of
    ``verify_lemma_diam_l1`` meet the disc B(x, 4 eta) but may not lie in
    it and in one max-affine cell.  A square lies in cell i when all four
    corners have argmax i by a margin, since cells are convex."""
    h = 8.0 * eta / 256.0
    edges = h * np.arange(257) - 4.0 * eta
    gx, gy = np.meshgrid(edges, edges, indexing="ij")
    vals = f.piece_values(np.column_stack([gx.ravel(), gy.ravel()]) + x)
    top = vals.argmax(axis=1).reshape(257, 257)
    margin = (vals.max(axis=1)[:, None] - vals > 1e-9).sum(axis=1)
    clear = (margin == len(f.slopes) - 1).reshape(257, 257)
    corners = [(slice(None, -1), slice(None, -1)), (slice(1, None), slice(None, -1)),
               (slice(None, -1), slice(1, None)), (slice(1, None), slice(1, None))]
    one_cell = np.logical_and.reduce([(top[c] == top[corners[0]]) & clear[c] for c in corners])
    lo, hi = edges[:-1], edges[1:]
    near = np.where(lo > 0, lo, np.where(hi < 0, hi, 0.0)) ** 2
    far = np.maximum(lo ** 2, hi ** 2)
    r2 = 16.0 * eta * eta
    meets = near[:, None] + near[None, :] <= r2 * (1 + 1e-9)
    inside = far[:, None] + far[None, :] < r2 * (1 - 1e-9)
    return int((meets & ~(inside & one_cell)).sum())


def _check_lemma_rhs(f, x, eta):
    """``verify_lemma_diam_l1``'s midpoint right-hand side lies within its
    quadrature error of the exact one, and both give the same verdict.

    A square inside the disc and inside one cell contributes |a_i| h^2 to
    both, a square outside the disc nothing; any other square at most
    max|a| h^2 to either.  The 1e-9 slack covers rounding and the 1e-12
    overlap of neighbouring clipped cells.
    """
    lhs, rhs = verify_lemma_diam_l1(f, x, eta)
    scale = 12.0 / (math.pi * eta * eta)
    exact = scale * _exact_gradient_integral(f, x, 4.0 * eta)
    err = scale * f.lip * (8.0 * eta / 256.0) ** 2 * _midpoint_cells_cut(f, x, eta)
    assert abs(rhs - exact) <= err + 1e-9 * exact
    assert (lhs <= rhs) == (lhs <= exact)
    return rhs, exact, err


def test_disc_area_in_polygon_closed_forms():
    square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    c = np.zeros(2)
    assert _disc_area_in_polygon(square, c, 0.5) == pytest.approx(math.pi / 4, rel=1e-14)
    assert _disc_area_in_polygon(square, c, 2.0) == pytest.approx(4.0, rel=1e-14)
    # every side touches the circle at one point
    assert _disc_area_in_polygon(square, c, 1.0) == pytest.approx(math.pi, rel=1e-14)
    half = np.array([[0.0, -2.0], [2.0, -2.0], [2.0, 2.0], [0.0, 2.0]])
    assert _disc_area_in_polygon(half, c, 1.0) == pytest.approx(math.pi / 2, rel=1e-14)
    # the strip 0 <= y <= 1 in x >= 0 holds int_0^1 sqrt(2 - y^2) dy of the
    # disc of radius sqrt(2)
    strip = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 1.0], [0.0, 1.0]])
    assert _disc_area_in_polygon(strip, c, math.sqrt(2.0)) == pytest.approx(
        0.5 + math.pi / 4, rel=1e-14)
    assert _disc_area_in_polygon(np.empty((0, 2)), c, 1.0) == 0.0


def test_lemma_rhs_against_exact_cell_areas():
    rng = np.random.default_rng(41)
    for k in range(2, 7):
        for _ in range(6):
            f = random_max_affine(rng, 2, k, 3.0, 1.0)
            eta = float(rng.uniform(0.05, 0.3))
            x = rng.uniform(-0.8, 0.8, 2)
            while x @ x > 0.64:
                x = rng.uniform(-0.8, 0.8, 2)
            _check_lemma_rhs(f, x, eta)
    # one piece: |a| times the disc's area, with no cell edge to cut
    f = MaxAffineFunction(np.array([[0.6, -0.8]]), np.array([0.1]))
    rhs, exact, err = _check_lemma_rhs(f, np.array([0.2, 0.1]), 0.25)
    assert exact == pytest.approx(12.0 * 16.0, rel=1e-12)


def _scan_calls(seed):
    """The ``scan`` benchmark workload's calls, (function name, f, args...)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.scan_instances(seed)


def _scan_lemma_calls(seed):
    """(f, x, eta) of the ``scan`` benchmark workload's 50 lemma calls."""
    calls = [c[1:] for c in _scan_calls(seed) if c[0] == "verify_lemma_diam_l1"]
    assert len(calls) == 50
    return calls


def test_lemma_verdicts_on_scan_instances():
    for seed in range(4):
        for f, x, eta in _scan_lemma_calls(seed):
            _check_lemma_rhs(f, x, eta)


def _lemma_axis(eta):
    h = 8.0 * eta / 256.0
    return h, h * (np.arange(256) + 0.5) - 4.0 * eta


def _dense_lemma_rhs(f, x, eta):
    """``verify_lemma_diam_l1``'s 2D right-hand side from piece values and
    ``np.argmax`` on every point of its midpoint grid at once."""
    h, axis = _lemma_axis(eta)
    pts = convex_analysis._disc_grid(axis, 16.0 * eta * eta)
    pts += x
    norms = np.linalg.norm(f.slopes, axis=1)[np.argmax(f.piece_values(pts), axis=1)]
    return 12.0 / (math.pi * eta ** 2) * float(norms.sum() * h * h)


def _lemma_edge_cases():
    """(f, x, eta) where the sampled arg-max of the lemma's right-hand side
    must fall back on its dense points: ties and near-ties."""
    rng = np.random.default_rng(53)
    f = random_max_affine(rng, 2, 4, 3.0, 1.0)
    x = np.array([0.1, -0.2])
    # h = 1/32 and the axis sits at odd multiples of 1/64: with x = 1/64 the
    # tie line of pieces of norms 1 and 2 holds a whole row (x_0 = 0) or
    # crosses every row at a grid point (x_1 = 0), a sample in some rows and
    # between two samples in others
    row_tie = MaxAffineFunction(np.array([[1.0, 0.0], [-2.0, 0.0]]), np.zeros(2))
    column_tie = MaxAffineFunction(np.array([[0.0, 1.0], [0.0, -2.0]]), np.zeros(2))
    # a tie line crossing rows between samples, off the grid
    slanted = MaxAffineFunction(np.array([[0.37, 1.0], [0.0, -1.0]]), np.array([0.0, 0.01]))
    dup = MaxAffineFunction(f.slopes[[0, 1, 2, 3, 1]], f.intercepts[[0, 1, 2, 3, 1]])
    near = MaxAffineFunction(np.array([[0.6, -0.8], [0.6, -0.8 + 1e-13], [-0.5, 0.3]]),
                             np.array([0.0, 0.0, 0.05]))
    # at |b| = 1e6 rounding, not slopes 1e-9 apart, picks the arg-max near
    # their tie line: a zero margin, or none, fails here
    near_far = MaxAffineFunction(np.array([[0.6, -0.8], [0.6, -0.8 + 1e-9], [-0.5, 0.3]]),
                                 near.intercepts + 1e6)
    one = MaxAffineFunction(np.array([[0.6, -0.8]]), np.array([0.1]))
    far = MaxAffineFunction(f.slopes, f.intercepts + 1e6)
    return [(row_tie, np.array([1.0 / 64.0, 0.0]), 1.0),
            (column_tie, np.array([0.0, 1.0 / 64.0]), 1.0),
            (slanted, x, 0.2), (dup, x, 0.2), (near, x, 0.2), (near_far, x, 0.2),
            (one, x, 0.2), (far, x, 0.2), (far, np.array([3.0, -1e3]), 0.01)]


def test_lemma_rhs_matches_the_dense_oracle_bitwise():
    cases = [c for seed in range(4) for c in _scan_lemma_calls(seed)] + _lemma_edge_cases()
    for f, x, eta in cases:
        want = diam_subdiff_ball(f, x, eta), _dense_lemma_rhs(f, x, eta)
        assert _bits(*verify_lemma_diam_l1(f, x, eta)) == _bits(*want)


def test_lemma_rhs_evaluates_at_most_a_quarter_of_its_grid(monkeypatch):
    # the dense right-hand side evaluates every grid point in the disc
    piece_values = MaxAffineFunction.piece_values
    rows = []

    def counted(self, points):
        vals = piece_values(self, points)
        rows.append(len(vals))
        return vals

    monkeypatch.setattr(MaxAffineFunction, "piece_values", counted)
    grid = 0
    for f, x, eta in _scan_lemma_calls(0):
        verify_lemma_diam_l1(f, x, eta)
        grid += int(convex_analysis._disc_rows(_lemma_axis(eta)[1], 16.0 * eta * eta)[2][-1])
    assert sum(rows) <= 0.25 * grid


# ---------------------------------------------------------------------------
# 2D scans bit for bit against the array code they replaced
# ---------------------------------------------------------------------------

def _meshgrid_disc(axis, r2):
    """The full product grid, masked by each point's summed squares."""
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts[(pts ** 2).sum(1) <= r2]


def _broadcast_piece_values(self, points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return pts @ self.slopes.T + self.intercepts


def _box_cell_polygon(A, B, i, box):
    """Vertices of piece i's cell {z : f_i(z) >= f_j(z) - tol for all j}
    within the counter-clockwise convex polygon ``box``, clipped by one
    Sutherland-Hodgman pass per other piece (no rows when it is empty): the
    per-query box clipping that the 2D ball queries ran before cells had
    exact edges."""
    poly = box
    for j in range(len(B)):
        if j == i or len(poly) == 0:
            continue
        g = poly @ (A[i] - A[j]) + (B[i] - B[j] + convex_analysis._TIE_TOL)
        keep = g >= 0
        cross = keep != np.roll(keep, -1)
        t = np.divide(g, g - np.roll(g, -1), out=np.zeros_like(g), where=cross)
        hit = poly + (np.roll(poly, -1, axis=0) - poly) * t[:, None]
        poly = np.stack([poly, hit], axis=1)[np.stack([keep, cross], axis=1)]
    return poly


def _where_active_diam2(active, pair_d2):
    k, npts = active.shape
    out = np.zeros(npts)
    for a in range(k):
        for b in range(a + 1, k):
            np.maximum(out, np.where(active[a] & active[b], pair_d2[a, b], 0.0), out=out)
    return out


def _all_axis_cell_actives_2d(f, centers, eta):
    A, B = f.slopes, f.intercepts
    lo = centers.min(axis=0) - 2.0 * eta
    hi = centers.max(axis=0) + 2.0 * eta
    box = np.array([lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]])
    active = np.empty((len(B), len(centers)), dtype=bool)
    x, y = centers[:, 0], centers[:, 1]
    for i in range(len(B)):
        active[i] = (centers @ (A[i] - A).T
                     + (B[i] - B + convex_analysis._TIE_TOL) >= 0).all(axis=1)
        poly = _box_cell_polygon(A, B, i, box)
        d2 = np.full(len(centers), np.inf)
        for p, e in zip(poly, np.roll(poly, -1, axis=0) - poly):
            wx, wy = x - p[0], y - p[1]
            ee = e @ e
            if ee > 0:
                t = np.clip((wx * e[0] + wy * e[1]) / ee, 0.0, 1.0)
                wx -= t * e[0]
                wy -= t * e[1]
            np.minimum(d2, wx * wx + wy * wy, out=d2)
        active[i] |= d2 <= eta * eta
    return active


def _dense_grid_ball_diams(f, axis, r2, eta):
    return convex_analysis._ball_diams(f, convex_analysis._disc_grid(axis, r2), eta)


def _old_scan_code(monkeypatch):
    """Put back the meshgrid point sets, the broadcast intercept adds of
    ``piece_values``, the ``.all(axis=1)`` cell membership, cells clipped
    from a box around the query points (``_box_cell_polygon``), grid scans
    as one query on every grid point and ``np.where`` diameters."""
    monkeypatch.setattr(convex_analysis, "_disc_grid", _meshgrid_disc)
    monkeypatch.setattr(MaxAffineFunction, "piece_values", _broadcast_piece_values)
    monkeypatch.setattr(convex_analysis, "_cell_actives_2d", _all_axis_cell_actives_2d)
    monkeypatch.setattr(convex_analysis, "_grid_ball_diams", _dense_grid_ball_diams)
    monkeypatch.setattr(_kernels, "active_diam2", _where_active_diam2)


def _bits(*arrays):
    return [(np.asarray(a).shape, np.asarray(a, dtype=float).tobytes()) for a in arrays]


def test_disc_grid_matches_meshgrid_mask():
    # (+-3, +-4), (+-4, +-3), (+-5, 0) and (0, +-5) lie exactly on the circle
    axis = np.arange(-6.0, 7.0)
    pts = _disc_grid(axis, 25.0)
    assert pts.flags.c_contiguous
    assert _bits(pts) == _bits(_meshgrid_disc(axis, 25.0))
    assert int(((pts ** 2).sum(1) == 25.0).sum()) == 12
    assert _disc_grid(axis + 100.0, 25.0).shape == (0, 2)
    # _scan_axis appends R when its step stops short; with a step just over
    # 1/4, 1e-7 is on the axis and (+-1, 1e-7) is within the 1e-12 slack
    step = (1.0 + 1e-7) / 4.0
    axis = -1.0 + step * np.arange(8)
    assert axis[-1] < 1.0 - 1e-12
    axis = np.append(axis, 1.0)
    assert _bits(_scan_axis(1.0, step)) == _bits(axis)
    pts = _disc_grid(_scan_axis(1.0, step), 1.0 + 1e-12)
    assert _bits(pts) == _bits(_meshgrid_disc(axis, 1.0 + 1e-12))
    assert (pts[:, 0] == 1.0).sum() == 1 and (pts[:, 1] == 1.0).sum() == 1


def _dense_disc_rows(axis, r2):
    """``_disc_rows`` and ``_disc_grid`` from the full (n, n) mask."""
    sq = axis * axis
    inside = sq[:, None] + sq[None, :] <= r2
    first = inside.argmax(axis=1)
    stop = first + inside.sum(axis=1)
    start = np.concatenate([[0], np.cumsum(stop - first)])
    i, j = np.nonzero(inside)
    return (first, stop, start), np.stack([axis[i], axis[j]], axis=1)


@pytest.mark.parametrize("n", [16, 17, 97, 160, 256, 511, 1000, 1024, 1599, 1600])
def test_disc_rows_match_the_dense_mask(n):
    # n = 1024 and 1600 are the integral's axes at h = R/512 and at
    # h = eta/8 with eta = 0.01; the rows are compared in blocks of rows
    for axis, r2 in [(-1.0 + (2.0 / n) * (np.arange(n) + 0.5), 1.0),
                     (_scan_axis(1.0, 2.0 / (n - 0.5)), 1.0 + 1e-12),
                     (np.linspace(-1.0, 1.0, n) + 0.3, 0.5)]:
        rows, pts = _dense_disc_rows(axis, r2)
        got = convex_analysis._disc_rows(axis, r2)
        for a, b in zip(got, rows):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert _bits(_disc_grid(axis, r2)) == _bits(pts)


def _scan_cases(rng):
    for k in range(1, 7):
        f = random_max_affine(rng, 2, k, 3.0, 1.0)
        x = rng.uniform(-0.6, 0.6, 2)
        yield f, x, float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.2, 1.5)) * f.lip


def test_lemma_and_covering_match_old_scan_code_bitwise(monkeypatch):
    rng = np.random.default_rng(43)
    cases = list(_scan_cases(rng))
    # the tie line x_0 = 0 runs through a grid row (h = 1/32, x_0 offset
    # h/2) between pieces of norms 1 and 2: only the first may win there
    tie = MaxAffineFunction(np.array([[1.0, 0.0], [-2.0, 0.0]]), np.zeros(2))
    cases.append((tie, np.array([1.0 / 64.0, 0.0]), 1.0, 1.0))
    # a duplicated piece
    f = cases[3][0]
    dup = MaxAffineFunction(f.slopes[[0, 1, 2, 3, 1]], f.intercepts[[0, 1, 2, 3, 1]])
    cases.append((dup,) + cases[3][1:])

    def run(lemma):
        out = []
        for f, x, eta, alpha in cases:
            lhs, rhs = lemma(f, x, eta)
            rep = covering_number_sigma(f, min(eta, 0.15), alpha, 1.0)
            out.append(_bits(lhs, rhs, rep.count, rep.centers,
                             _first_argmax_slopes(f, x[None, :] + rep.centers)))
        return out

    new = run(verify_lemma_diam_l1)
    _old_scan_code(monkeypatch)
    # the lemma's right-hand side no longer runs on the full point set
    assert run(lambda f, x, eta: (diam_subdiff_ball(f, x, eta), _dense_lemma_rhs(f, x, eta))) == new


def test_integral_matches_old_scan_code_bitwise(monkeypatch):
    # each is a 1024^2 grid clipped to the unit disc: 823,592 points
    rng = np.random.default_rng(47)
    cases = [(random_max_affine(rng, 2, k, 3.0, 1.0), float(rng.uniform(0.05, 0.2)), q)
             for k, q in ((1, 2.0), (4, 1.5), (6, 3.0))]
    new = [_bits(*integral_diam_estimate(f, eta, q, 1.0)) for f, eta, q in cases]
    _old_scan_code(monkeypatch)
    assert [_bits(*integral_diam_estimate(f, eta, q, 1.0)) for f, eta, q in cases] == new


def test_integral_peak_memory_is_one_float_per_point():
    # the scan benchmark's integral: R = 1, q = 2, k = 4, eta ~ 0.077, so a
    # 1024-point axis (h = R/512) and 823,592 points in the disc; the floor
    # is the one float64 array of diameters summed at once
    name, f, eta, q, R = _scan_calls(1)[0]
    assert name == "integral_diam_estimate" and (len(f.slopes), q, R) == (4, 2.0, 1.0)
    assert eta / 8.0 > R / 512.0
    axis = -R + (R / 512.0) * (np.arange(1024) + 0.5)
    npts = int(convex_analysis._disc_rows(axis, R * R)[2][-1])
    # cells with no edge, where the exact predicate decides every point: one
    # piece, two identical pieces, and a piece below its equal-slope twin,
    # at eta = 0.1 on the same 1024-point axis
    a = np.array([[1.0, 0.5], [1.0, 0.5]])
    edge_free = [MaxAffineFunction(a[:1], np.zeros(1)), MaxAffineFunction(a, np.zeros(2)),
                 MaxAffineFunction(a, np.array([0.0, -0.25]))]
    cases = [(f, eta)] + [(g, 0.1) for g in edge_free]
    for f, eta in cases:
        tracemalloc.start()
        try:
            integral_diam_estimate(f, eta, q, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * npts + 2 * 2 ** 20, (f.slopes, f.intercepts, peak)


def test_grid_scans_run_without_the_bracket_kernel(monkeypatch):
    # the values the bracket kernel and its exact fallback gave; the
    # covering's step 0.0325 stops short of 1, so its axis ends in 0.9825, 1
    f = random_max_affine(np.random.default_rng(61), 2, 5, 3.0, 1.0)

    def must_not_run(*args):
        raise AssertionError("a patched-out path ran")

    monkeypatch.setattr(_kernels, "ball_activity_2d", must_not_run)
    monkeypatch.setattr(convex_analysis, "_cell_actives_2d", must_not_run)
    assert integral_diam_estimate(f, 0.12, 2.0, 1.0).estimate == 2.7082385723990035
    rep = covering_number_sigma(f, 0.13, 0.6 * f.lip, 1.0)
    assert rep.count == 2
    assert rep.centers.tolist() == [[-0.4475, -0.87], [-0.2849999999999999, 0.16999999999999993]]

    # one-point queries decide on the cell predicate alone: the values the
    # bracket kernel and its fallback gave, which decided every point but
    # (0.5, 0.5); (diam, lemma rhs, diam_partial_c) per point
    monkeypatch.undo()
    monkeypatch.setattr(_kernels, "ball_activity_2d", must_not_run)
    pot = convex_to_phi(f, 1.0)
    for x, eta, diam, rhs, bound in [
            ((0.1, -0.2), 0.12, 0.670053843311532, 276.25800092234203, 25.281722985969022),
            ((-0.4, 0.3), 0.05, 1.2094295472198582, 375.85608664319045, 40.30174551103546),
            ((0.5, 0.5), 0.2, 0.0, 314.12826319190856, 6.4),
            ((0.0, 0.0), 0.3, 2.876589765244267, 323.82977787794715, 101.65087248781654)]:
        x = np.array(x)
        assert diam_subdiff_ball(f, x, eta) == diam
        assert verify_lemma_diam_l1(f, x, eta) == (diam, rhs)
        assert diam_partial_c(pot, x, eta) == (diam / 2.0, bound)
