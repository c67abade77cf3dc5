"""Oracle tests for the NumPy kernels.

``ssp_flow`` is checked against ``linear_sum_assignment`` on permutation
instances, against the HiGHS LP on general integer instances, and bit for
bit against its earlier form, which stored every sink's predecessor during
the search.
The ball queries that run the exact cell predicate on every piece
(``_ball_diams``), and the brackets of ``ball_activity_2d`` (kept for the
benchmark's patch list), are checked against exact max-affine cells, clipped
from a box by halfplanes; the 2D grid scans from row sections of the cells'
eta-offsets are checked bit for bit against ``_ball_diams``.
"""

import hashlib
import heapq

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from otpush import convex_analysis, random_max_affine
from otpush._kernels import ball_activity_2d, ssp_flow
from otpush.convex_analysis import (_TIE_TOL, MaxAffineFunction, _ball_diams,
                                    _cell_actives_2d, _disc_grid, _grid_ball_diams,
                                    _scan_axis)
from otpush.discrete_ot import MASS_SCALE, _scaled_units, _solve_highs

# ---------------------------------------------------------------------------
# min-cost flow
# ---------------------------------------------------------------------------


def _random_flow_instance(rng, n, m):
    cost = rng.uniform(0.0, 4.0, (n, m))
    supply = rng.integers(1, 30, n)
    demand = np.zeros(m, dtype=np.int64)
    remaining = int(supply.sum())
    for j in range(m - 1):
        demand[j] = rng.integers(0, remaining + 1)
        remaining -= demand[j]
    demand[m - 1] = remaining
    return cost, supply.astype(np.int64), demand


def _tie_instance(rng, n, m):
    """Grid-to-grid squared distances: costs tie everywhere, some supplies are 0."""
    X = rng.integers(0, 4, (n, 2)) / 4.0
    Y = rng.integers(0, 4, (m, 2)) / 4.0
    cost = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(-1)
    supply = rng.integers(0, 4, n)
    supply[0] += 1
    demand = np.bincount(rng.integers(0, m, int(supply.sum())), minlength=m)
    return cost, supply, demand


def _check_flow_optimal(cost, supply, demand, flow, u, v, status):
    assert status == 0
    assert (flow.sum(axis=1) == supply).all()
    assert (flow.sum(axis=0) == demand).all()
    assert flow.min() >= 0
    slack = cost - u[:, None] - v[None, :]
    assert slack.min() >= -1e-9 * (1.0 + np.abs(cost).max())
    active = flow > 0
    assert np.abs(slack[active]).max() <= 1e-9 * (1.0 + np.abs(cost).max())


def test_ssp_flow_matches_lsap_on_permutations():
    rng = np.random.default_rng(71)
    for trial in range(30):
        n = int(rng.integers(1, 12))
        cost = rng.uniform(0.0, 4.0, (n, n))
        if trial % 3 == 0:
            cost = np.round(cost)  # integer costs: many tied optima
        ones = np.ones(n, dtype=np.int64)
        flow, u, v, status = ssp_flow(cost, ones, ones, max_iters=10_000)
        _check_flow_optimal(cost, ones, ones, flow, u, v, status)
        rows, cols = linear_sum_assignment(cost)
        ref = cost[rows, cols].sum()
        assert abs((flow * cost).sum() - ref) <= 1e-12 * (1.0 + ref)


def test_ssp_flow_matches_highs_on_integer_instances():
    rng = np.random.default_rng(73)
    for trial in range(40):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        make = _tie_instance if trial % 2 == 0 else _random_flow_instance
        cost, supply, demand = make(rng, n, m)
        flow, u, v, status = ssp_flow(cost, supply, demand, max_iters=10_000)
        _check_flow_optimal(cost, supply, demand, flow, u, v, status)
        ref = _solve_highs(cost, supply, demand)
        assert abs((flow * cost).sum() - ref) <= 1e-9 * (1.0 + abs(ref))


def test_ssp_flow_iteration_cap_status():
    rng = np.random.default_rng(77)
    cost, supply, demand = _random_flow_instance(rng, 5, 5)
    *_, status = ssp_flow(cost, supply, demand, max_iters=1)
    assert status == 1


def test_ssp_flow_excess_supply_status():
    # the sixth unit of supply finds no sink with demand left
    cost = np.array([[1.0, 2.0], [2.0, 1.0]])
    *_, status = ssp_flow(cost, np.array([3, 3]), np.array([3, 2]), max_iters=100)
    assert status == 2


# sha256 of (flow, u, v, status) over the instances of the test below.  It
# was recorded while a scalar-loop reference still matched this kernel byte
# for byte on them, so it pins the pop order that breaks ties: smallest
# label, sources before sinks, lower index first.
_TIE_DIGEST = "f26e71bc655df6d4f2bd02521728adf248b072aba44416c89a27c5edd04161c5"


def test_ssp_flow_tie_breaking_is_pinned():
    rng = np.random.default_rng(83)
    digest = hashlib.sha256()
    for trial in range(30):
        n = int(rng.integers(1, 10))
        m = int(rng.integers(1, 10))
        cost, supply, demand = _tie_instance(rng, n, m)
        cap = 2 if trial % 10 == 0 else 10_000
        flow, u, v, status = ssp_flow(cost, supply, demand, max_iters=cap)
        for part in (flow, u, v, np.int64(status)):
            digest.update(part.tobytes())
    assert digest.hexdigest() == _TIE_DIGEST


# The kernel before predecessors were recovered after the search: every
# relaxation recomputed its rows' reduced costs and stored the predecessor
# of each improved sink (first row of a batch, strict ``<`` across batches).
# Kept verbatim as the bit-for-bit oracle of ``ssp_flow``.
_INF = np.inf


def _ssp_flow_oracle(cost, supply, demand, *, max_iters):
    """Successive-shortest-path min-cost flow on a dense bipartite graph.

    Node potentials keep every residual reduced cost nonnegative, so each
    augmentation is one Dijkstra pass.  Returns ``(flow, u, v, status)`` with
    ``status`` 0 on success, 1 if the iteration cap was hit, 2 if no
    deficient sink is reachable (supply exceeds demand).  Dual feasibility:
    u[i] + v[j] <= cost[i, j] with equality on every arc carrying flow.

    Nodes are popped in a fixed order, which fixes the plan and duals on
    tied instances: smallest label first, sources before sinks on ties,
    lower index first within each side.  Two facts keep the pops few and
    cheap without changing that order:

    * popping a source never gives another source a label, so every source
      holding the current minimum label is popped as one batch, relaxing
      all sinks in one array operation (first index wins label ties);
    * a popped sink relaxes only the sources carrying flow into it, a short
      scalar loop; the labels it sets go on a heap keyed (label, index).

    Reduced costs are clamped at zero, so no relaxation sets a label below
    the popped node's own; popped nodes therefore need no mask.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    flow = np.zeros((n, m), dtype=np.int64)
    rem_s = np.array(supply, dtype=np.int64)
    rem_d = np.array(demand, dtype=np.int64)
    u = np.zeros(n)
    v = cost.min(axis=0)
    cost_cols = cost.T.tolist()
    senders = [set() for _ in range(m)]  # sources with flow into sink j
    cols = np.arange(m)

    iters = 0
    while rem_s.sum() > 0:
        iters += 1
        if iters > max_iters:
            return flow, u, v, 1
        u_list = u.tolist()
        v_list = v.tolist()
        dist_s = [_INF] * n
        done_s = [False] * n
        prev_s = [-1] * n
        dist_t = np.full(m, _INF)
        label_t = np.full(m, _INF)  # dist_t with popped sinks masked out
        prev_t = np.full(m, -1, dtype=np.int64)
        heap = []

        # every source with supply starts at label 0 and is popped first
        batch = np.flatnonzero(rem_s > 0).tolist()
        d = 0.0
        for i in batch:
            dist_s[i] = 0.0
            done_s[i] = True
        target = -1
        while True:
            if batch:
                if len(batch) == 1:
                    src = batch[0]
                    nd = cost[src] - u[src] - v
                    np.maximum(nd, 0.0, out=nd)
                    nd = d + nd
                else:
                    rows = np.array(batch)
                    rc = cost[rows] - u[rows, None] - v
                    np.maximum(rc, 0.0, out=rc)
                    rc = d + rc
                    first = rc.argmin(axis=0)
                    nd = rc[first, cols]
                    src = rows[first]
                better = np.flatnonzero(nd < dist_t)
                if better.size:
                    vals = nd[better]
                    dist_t[better] = vals
                    label_t[better] = vals
                    prev_t[better] = src if len(batch) == 1 else src[better]
                batch = None
            while heap and done_s[heap[0][1]]:
                heapq.heappop(heap)
            j = int(label_t.argmin())
            dj = float(label_t[j])
            if heap and heap[0][0] <= dj:
                d = heap[0][0]
                batch = []
                while heap and heap[0][0] == d:
                    i = heapq.heappop(heap)[1]
                    if not done_s[i]:
                        done_s[i] = True
                        batch.append(i)
                continue
            if dj == _INF:
                break
            if rem_d[j] > 0:
                target = j
                break
            label_t[j] = _INF
            vj = v_list[j]
            cj = cost_cols[j]
            for i in senders[j]:
                if done_s[i]:
                    continue
                rc = u_list[i] + vj - cj[i]
                nd_i = dj + (rc if rc > 0.0 else 0.0)
                if nd_i < dist_s[i]:
                    dist_s[i] = nd_i
                    prev_s[i] = j
                    heapq.heappush(heap, (nd_i, i))
        if target < 0:
            return flow, u, v, 2

        # Johnson-style update keeps residual reduced costs >= 0
        dt = dist_t[target]
        u -= np.minimum(np.array(dist_s), dt)
        v += np.minimum(dist_t, dt)

        path = []
        j = target
        bottleneck = rem_d[target]
        while True:
            i = int(prev_t[j])
            path.append((i, j))
            jprev = prev_s[i]
            if jprev < 0:
                bottleneck = min(bottleneck, rem_s[i])
                break
            bottleneck = min(bottleneck, flow[i, jprev])
            path.append((i, jprev))
            j = jprev
        for k, (i, j) in enumerate(path):
            if k % 2 == 0:
                flow[i, j] += bottleneck
            else:
                flow[i, j] -= bottleneck
            if flow[i, j] > 0:
                senders[j].add(i)
            else:
                senders[j].discard(i)
        rem_s[path[-1][0]] -= bottleneck
        rem_d[target] -= bottleneck
    return flow, u, v, 0


def _assert_same_bits(got, want):
    assert got[3] == want[3]
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _lattice_count_instance(rng, n_cells, source_side, target_side):
    """The instances ``figure1`` solves: pushforwards of an ``n_cells``-cell
    grid land on lattice points (here of a side x side lattice), so costs
    tie everywhere and each side weighs count / n_cells, rounded to 1e12
    units as ``solve`` does."""
    def side(size):
        pts, counts = np.unique(rng.integers(0, size, (n_cells, 2)) / 4.0,
                                axis=0, return_counts=True)
        return pts, _scaled_units(counts / n_cells, MASS_SCALE)
    X, supply = side(source_side)
    Y, demand = side(target_side)
    cost = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(-1)
    return cost, supply, demand


def _oracle_cases():
    rng = np.random.default_rng(97)
    # N = 16 and 25 divide 1e12; N = 24, 7 and 48 leave units that are
    # routed one short path at a time
    for n_cells in (16, 25, 24, 7, 48):
        for _ in range(3):
            yield _lattice_count_instance(rng, n_cells, 4, 5)
            yield _lattice_count_instance(rng, n_cells, 5, 3)
    # n >> m and m >> n
    for _ in range(3):
        cost, supply, demand = _lattice_count_instance(rng, 60, 9, 2)
        yield cost, supply, demand
        yield cost.T.copy(), demand, supply
    # duplicate rows and columns
    for _ in range(3):
        cost, supply, demand = _tie_instance(rng, 6, 5)
        rows = rng.integers(0, 6, 9)
        yield cost[rows][:, [0, 1, 1, 2, 3, 4, 4]], supply[rows], np.bincount(
            rng.integers(0, 7, int(supply[rows].sum())), minlength=7)
    for _ in range(3):
        yield _random_flow_instance(rng, 7, 5)


def test_ssp_flow_matches_recorded_predecessor_oracle():
    for cost, supply, demand in _oracle_cases():
        _assert_same_bits(ssp_flow(cost, supply, demand, max_iters=10_000),
                          _ssp_flow_oracle(cost, supply, demand, max_iters=10_000))


def test_ssp_flow_oracle_mid_run_states():
    # every cap from 1 up to a full run: status 1 returns the state after
    # the last completed augmentation, and that state matches too
    rng = np.random.default_rng(101)
    for n_cells in (24, 7):
        cost, supply, demand = _lattice_count_instance(rng, n_cells, 4, 4)
        for cap in range(1, 40):
            want = _ssp_flow_oracle(cost, supply, demand, max_iters=cap)
            _assert_same_bits(ssp_flow(cost, supply, demand, max_iters=cap), want)
            if want[3] == 0:
                break
        assert want[3] == 0


def test_ssp_flow_oracle_excess_supply():
    rng = np.random.default_rng(103)
    for trial in range(6):
        cost, supply, demand = _lattice_count_instance(rng, 16, 4, 4)
        demand = demand.copy()
        demand[trial % len(demand)] -= 10 ** (trial + 3)
        want = _ssp_flow_oracle(cost, supply, demand, max_iters=10_000)
        assert want[3] == 2
        _assert_same_bits(ssp_flow(cost, supply, demand, max_iters=10_000), want)


# ---------------------------------------------------------------------------
# 2D ball activity
# ---------------------------------------------------------------------------


def _clip(poly, normal, offset):
    """Sutherland-Hodgman: the part of convex ``poly`` where normal @ z + offset >= 0."""
    out = []
    for t in range(len(poly)):
        p, q = poly[t], poly[(t + 1) % len(poly)]
        gp, gq = normal @ p + offset, normal @ q + offset
        if gp >= 0:
            out.append(p)
        if (gp >= 0) != (gq >= 0):
            out.append(p + (q - p) * (gp / (gp - gq)))
    return out


def _dist_to_boundary(x, poly):
    if not poly:
        return np.inf
    P = np.array(poly)
    E = np.roll(P, -1, axis=0) - P
    W = x - P
    ee = (E ** 2).sum(1)
    t = np.clip((W * E).sum(1) / np.where(ee > 0, ee, 1.0), 0.0, 1.0)
    return float(np.sqrt(((W - t[:, None] * E) ** 2).sum(1)).min())


def _cell_distances(slopes, intercepts, x, eta):
    """Distance from x to each piece's cell {z : f_i(z) >= f_j(z) - tol for all j}.

    ``tol`` is the scans' tie tolerance.  The distance is 0 when x meets
    every inequality; otherwise it is the distance to the boundary of the
    cell clipped from a square containing B(x, eta), which changes no
    distance up to eta.  Membership is read from the inequalities, not from
    the polygon's winding: clipping twice by one halfplane (a duplicated
    piece) can leave a near-zero edge whose direction rounding has flipped.
    """
    box = [x + 2.0 * eta * np.array(c) for c in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    out = np.empty(len(slopes))
    for i in range(len(slopes)):
        poly = box
        inside = True
        for j in range(len(slopes)):
            if j != i:
                normal = slopes[i] - slopes[j]
                offset = intercepts[i] - intercepts[j] + _TIE_TOL
                poly = _clip(poly, normal, offset)
                inside &= bool(normal @ x + offset >= 0)
        out[i] = 0.0 if inside else _dist_to_boundary(x, poly)
    return out


def _ball_cases():
    rng = np.random.default_rng(79)
    for k in range(2, 7):
        for _ in range(2):
            f = random_max_affine(rng, 2, k, 3.0, 1.0)
            yield f.slopes, f.intercepts, float(rng.uniform(0.02, 0.4))
    # near-parallel slopes: pieces 0 and 1 tie along y = 0 and nowhere steeply
    yield (np.array([[1.0, 0.0], [1.0, 1e-6], [-0.5, 0.8], [-0.5, -0.8]]),
           np.array([0.0, 0.0, -0.1, -0.2]), 0.15)
    # a duplicated piece
    yield (np.array([[1.0, 0.0], [-1.0, 0.3], [1.0, 0.0], [0.2, -1.0]]),
           np.array([0.0, 0.1, 0.0, -0.3]), 0.2)


def _vertex_ring_points(rng, slopes, intercepts, eta, count):
    """Points just within eta of vertices of the max-affine graph, where a
    piece may be active only near the ball's rim."""
    f = MaxAffineFunction(slopes, intercepts)
    verts = []
    k = len(slopes)
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                M = np.array([slopes[i] - slopes[j], slopes[i] - slopes[l]])
                if abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]) < 1e-9:
                    continue
                z = np.linalg.solve(M, [intercepts[j] - intercepts[i],
                                        intercepts[l] - intercepts[i]])
                if f(z) - (slopes[i] @ z + intercepts[i]) <= 1e-9:
                    verts.append(z)
    if not verts:
        return np.empty((0, 2))
    centers = np.array(verts)[rng.integers(0, len(verts), count)]
    ang = rng.uniform(0.0, 2.0 * np.pi, count)
    r = eta * rng.uniform(0.7, 1.0, count)
    return centers + r[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])


def test_ball_activity_brackets_exact_cells():
    rng = np.random.default_rng(89)
    checked = skipped = 0
    for slopes, intercepts, eta in _ball_cases():
        points = np.vstack([rng.uniform(-1.0, 1.0, (40, 2)),
                            _vertex_ring_points(rng, slopes, intercepts, eta, 40)])
        lo, hi, _ = ball_activity_2d(slopes, intercepts, points, eta, _TIE_TOL)
        diams = _ball_diams(MaxAffineFunction(slopes, intercepts), points, eta)
        pair_d2 = ((slopes[:, None, :] - slopes[None, :, :]) ** 2).sum(-1)
        for t, x in enumerate(points):
            dist = _cell_distances(slopes, intercepts, x, eta)
            if (np.abs(dist - eta) <= 1e-9).any():
                skipped += 1
                continue
            active = dist <= eta
            exact2 = pair_d2[np.ix_(active, active)].max()
            assert lo[t] <= exact2 <= hi[t]
            assert diams[t] == np.sqrt(exact2)
            checked += 1
    assert skipped <= 0.01 * checked


def test_exact_ball_actives_need_tie_line_crossings():
    # piece 0's cell is the narrow wedge |z_1| <= 0.02 + 0.01 z_2 with its
    # apex (0, -2) far outside B(x, eta), and neither pair minimizer of
    # piece 0 lies in it: the ball meets the wedge only across the tie
    # lines, so piece 0 is found only through the distance to its cell
    slopes = np.array([[0.0, 0.0], [1.0, -0.01], [-1.0, -0.01]])
    intercepts = np.array([0.0, -0.02, -0.02])
    x, eta = np.array([0.3, 0.0]), 0.35
    dist = _cell_distances(slopes, intercepts, x, eta)
    assert dist[0] < eta - 0.05
    active = _cell_actives_2d(MaxAffineFunction(slopes, intercepts), x[None, :], eta)
    assert (active[:, 0] == (dist <= eta)).all() and active[0, 0]


_coord = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def _degenerate_max_affine(draw):
    """1-6 pieces, where two pieces may be duplicates, share a slope with
    different intercepts, or have slopes 1e-6 apart."""
    k = draw(st.integers(1, 6))
    slopes = np.array(draw(st.lists(st.tuples(_coord, _coord), min_size=k, max_size=k)))
    intercepts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)))
    if k >= 2:
        i, j = draw(st.permutations(range(k)))[:2]
        twist = draw(st.sampled_from(["none", "duplicate", "equal slope", "near-parallel"]))
        if twist == "duplicate":
            slopes[j], intercepts[j] = slopes[i], intercepts[i]
        elif twist == "equal slope":
            slopes[j] = slopes[i]
            intercepts[j] = intercepts[i] + draw(st.floats(-0.3, 0.3))
        elif twist == "near-parallel":
            slopes[j] = slopes[i] + np.array([0.0, 1e-6])
            intercepts[j] = intercepts[i]
    return slopes, intercepts


@settings(max_examples=150, deadline=None)
@given(piece=_degenerate_max_affine(), eta=st.floats(0.02, 0.5),
       seed=st.integers(0, 2 ** 32 - 1))
# a duplicated piece: the clipped cell of piece 0 gets a flipped edge 1e-16 long
@example(piece=(np.array([[-0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]), np.array([0.5, 0.0, 0.0])),
         eta=0.47021961802737916, seed=0)
# slopes 2.2e-308 apart: 1e-12 + 2.2e-308 y rounds to 1e-12, so only the
# cell's own inequality puts piece 1's cell at y <= 0, 0.83 from point 2
@example(piece=(np.array([[0.0, 2.2250738585072014e-308], [0.0, 0.0]]), np.array([1e-12, 0.0])),
         eta=0.5, seed=0)
def test_cell_actives_match_cell_distance_oracle(piece, eta, seed):
    slopes, intercepts = piece
    rng = np.random.default_rng(seed)
    points = np.vstack([rng.uniform(-1.0, 1.0, (8, 2)),
                        _vertex_ring_points(rng, slopes, intercepts, eta, 8)])
    active = _cell_actives_2d(MaxAffineFunction(slopes, intercepts), points, eta)
    for t, x in enumerate(points):
        dist = _cell_distances(slopes, intercepts, x, eta)
        if (np.abs(dist - eta) <= 1e-9).any():
            continue
        assert (active[:, t] == (dist <= eta)).all(), (t, dist)


@st.composite
def _lattice_max_affine(draw):
    """1-6 pieces with integer slopes in [-2, 2]^2 (so +-e_1, +-e_2 and equal
    slopes come up often) and quarter-step intercepts in [-1, 1]."""
    k = draw(st.integers(1, 6))
    coord = st.integers(-2, 2)
    slopes = draw(st.lists(st.tuples(coord, coord), min_size=k, max_size=k))
    intercepts = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
    return np.array(slopes, dtype=float), np.array(intercepts, dtype=float) / 4.0


@st.composite
def _random_pieces(draw):
    f = random_max_affine(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                          2, draw(st.integers(1, 6)), 3.0, 1.0)
    return f.slopes, f.intercepts


def _grid_axis(kind, n, frac):
    """The integral's midpoint axis over [-1, 1] with n rows, or the
    covering's axis whose step 2 / (n + frac) stops short of 1, so that 1 is
    appended; with the disc radius^2 each scan uses."""
    if kind == "midpoint":
        return -1.0 + (2.0 / n) * (np.arange(n) + 0.5), 1.0
    return _scan_axis(1.0, 2.0 / (n + frac)), 1.0 + 1e-12


@settings(max_examples=150, deadline=None)
@given(piece=st.one_of(_degenerate_max_affine(), _lattice_max_affine(), _random_pieces()),
       eta=st.floats(0.02, 0.5), kind=st.sampled_from(["midpoint", "scan"]),
       n=st.integers(16, 160), frac=st.floats(0.05, 0.95))
# piece 0's cell is x_1 >= -5e-13 and row 8 of the axis is x_1 = -15/32: the
# row lies exactly eta from the cell, tangent to the set within eta of it
@example(piece=(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2)),
         eta=0.4687499999995, kind="midpoint", n=32, frac=0.5)
# the same with x_2: column 8 lies exactly eta from the cell, at the ends of
# the row sections
@example(piece=(np.array([[0.0, 1.0], [0.0, -1.0]]), np.zeros(2)),
         eta=0.4687499999995, kind="midpoint", n=32, frac=0.5)
def test_row_section_scan_matches_ball_diams_bitwise(piece, eta, kind, n, frac):
    f = MaxAffineFunction(*piece)
    axis, r2 = _grid_axis(kind, n, frac)
    old = _ball_diams(f, _disc_grid(axis, r2), eta)
    # these grids fit in one block of the scan; blocks of 97 points split
    # every grid, and its disc rows, over several
    new = [_grid_ball_diams(f, axis, r2, eta)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convex_analysis, "_BLOCK", 97)
        new.append(_grid_ball_diams(f, axis, r2, eta))
    for diams in new:
        assert diams.shape == old.shape
        assert (diams.view(np.int64) == old.view(np.int64)).all()


def test_ball_activity_dispatch():
    slopes = np.array([[1.0, 0.0], [-1.0, 0.0]])
    intercepts = np.zeros(2)
    pts = np.array([[0.0, 0.0], [3.0, 0.0]])
    lo, hi, amb = ball_activity_2d(slopes, intercepts, pts, 0.1, 1e-12)
    # both pieces active at the origin kink: exact diameter 2
    assert lo[0] == hi[0] == 4.0
    assert not amb[0]
    # far from the kink only one piece is active
    assert lo[1] == hi[1] == 0.0
