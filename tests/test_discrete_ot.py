"""Exact discrete optimal transport: plans, duals, bottleneck, c-transform."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse.csgraph import (dijkstra, maximum_bipartite_matching, maximum_flow,
                                  shortest_path)

from otpush import discrete_ot
from otpush.discrete_ot import (MASS_SCALE, Coupling, DualPotentials,
                                SolverError, _dijkstra, _gap_graph, _unit_bounds,
                                _solve_assignment, _solve_highs, bottleneck_solve,
                                c_transform, cost_matrix, solve, wasserstein)
from otpush.geometry_measures import (DiscreteMeasure, Domain, GridDensity,
                                      discretize)

DOM1 = Domain.ball(np.zeros(1), 2.0)


def _m1(points, weights, dom=DOM1):
    return DiscreteMeasure(np.asarray(points, dtype=float).reshape(-1, dom.dim),
                           np.asarray(weights, dtype=float), dom)


def _random_pair(rng, n, m, d=1, radius=1.5):
    dom = Domain.ball(np.zeros(d), radius + 0.5)
    X = rng.uniform(-radius / 2, radius / 2, size=(n, d))
    Y = rng.uniform(-radius / 2, radius / 2, size=(m, d))
    w = rng.uniform(0.2, 1.0, size=n)
    v = rng.uniform(0.2, 1.0, size=m)
    return (DiscreteMeasure(X, w / w.sum(), dom),
            DiscreteMeasure(Y, v / v.sum(), dom))


# ---------------------------------------------------------------------------
# reference example and basic structure
# ---------------------------------------------------------------------------

def test_cost_matrix_matches_broadcast_reduction_bitwise():
    # the (n, m, d) broadcast form summed over its last axis: the same bits
    # while NumPy adds the short axis in order (d <= 7), the same values to
    # rounding once it sums pairwise
    rng = np.random.default_rng(7)
    for d in range(1, 10):
        for trial in range(4):
            n, m = rng.integers(1, 40, size=2)
            scale = 10.0 ** rng.uniform(-3.0, 3.0, size=d)
            X = rng.normal(size=(n, d)) * scale
            Y = rng.normal(size=(m, d)) * scale
            d2 = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(-1)
            for p in (1.5, 2.0, 3.0):
                want = d2 if p == 2 else d2 ** (p / 2.0)
                got = cost_matrix(X, Y, p)
                assert got.shape == want.shape
                if d <= 7:
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (d, p)
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_two_point_mass_excess_example():
    eps = 0.1
    mu = _m1([-1.0, 1.0], [0.5, 0.5])
    nu = _m1([-1.0, 1.0], [(1 - eps) / 2, (1 + eps) / 2])
    coupling, value, duals = solve(mu, nu, p=2.0)
    assert value == pytest.approx(0.2, abs=1e-12)
    assert wasserstein(mu, nu, 2.0) == pytest.approx(math.sqrt(0.2), abs=1e-12)
    coupling.check_marginals()
    duals.verify(coupling)


def test_identity_is_diagonal():
    mu = _m1([-0.5, 0.0, 0.75], [0.2, 0.3, 0.5])
    coupling, value, _ = solve(mu, mu, p=2.0)
    assert value == 0.0
    assert (coupling.i == coupling.j).all()
    assert coupling.max_distance() == 0.0


def test_zero_weight_points_are_remapped():
    mu = _m1([-1.0, 0.3, 1.0], [0.5, 0.0, 0.5])
    nu = _m1([-1.0, 1.0], [0.4, 0.6])
    coupling, value, duals = solve(mu, nu, p=2.0)
    # index 1 of mu carries no mass so it never appears in the plan, but
    # indices still refer to the original 3-point measure
    assert set(np.unique(coupling.i)) <= {0, 2}
    assert coupling.source is mu and coupling.target is nu
    coupling.check_marginals()
    assert len(duals.phi) == 3 and len(duals.phi_c) == 2
    duals.verify(coupling)


def test_solver_input_validation():
    mu = _m1([0.0], [1.0])
    nu2 = DiscreteMeasure(np.zeros((1, 2)), np.ones(1),
                          Domain.ball(np.zeros(2), 1.0))
    with pytest.raises(ValueError):
        solve(mu, nu2, 2.0)
    with pytest.raises(ValueError):
        solve(mu, _m1([0.0, 1.0], [0.5, 0.6]), 2.0)


# ---------------------------------------------------------------------------
# permutation oracle
# ---------------------------------------------------------------------------

def _brute_force_value(mu, nu, p):
    """Exact optimum by enumerating vertex plans of the Birkhoff polytope.

    Only valid for uniform weights with equal support sizes (n <= 7).
    """
    n = len(mu)
    cost = cost_matrix(mu.points, nu.points, p)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)) / n)
    return best


def test_solver_matches_permutation_oracle():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 3))
        dom = Domain.ball(np.zeros(d), 2.0)
        mu = DiscreteMeasure(rng.uniform(-1, 1, (n, d)), np.full(n, 1.0 / n), dom)
        nu = DiscreteMeasure(rng.uniform(-1, 1, (n, d)), np.full(n, 1.0 / n), dom)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        _, value, _ = solve(mu, nu, p)
        assert value == pytest.approx(_brute_force_value(mu, nu, p), abs=1e-10)


def _lp_value(mu, nu, p):
    return _solve_highs(cost_matrix(mu.points, nu.points, p), mu.weights, nu.weights)


def _must_not_run(monkeypatch, *names):
    def fail(*args):
        raise AssertionError("the wrong engine ran")
    for name in names:
        monkeypatch.setattr(discrete_ot, name, fail)


def test_engines_agree():
    rng = np.random.default_rng(11)
    for trial in range(10):
        mu, nu = _random_pair(rng, 6, 9, d=2)
        assert solve(mu, nu, 2.0)[1] == pytest.approx(_lp_value(mu, nu, 2.0), abs=1e-9)


@pytest.mark.usefixtures("no_highs")
def test_ssp_solves_general_weights_past_120k_cells():
    # 1,250 x 97 = 121,250 cells, count weights over N = 10,000: general
    # weights go to the SSP engine at every size
    rng = np.random.default_rng(19)
    dom = Domain.ball(np.zeros(2), 2.0)

    def counted(k):
        units = 1 + rng.multinomial(10_000 - k, np.full(k, 1.0 / k))
        return DiscreteMeasure(rng.uniform(-0.7, 0.7, (k, 2)), units / 10_000, dom)

    mu, nu = counted(1250), counted(97)
    coupling, value, _ = solve(mu, nu, 2.0)
    coupling.check_marginals()
    ref = _lp_value(mu, nu, 2.0)
    assert abs(value - ref) <= 1e-9 * abs(ref)


def test_auto_engine_routes_tiny_target_weight_to_ssp(monkeypatch):
    # 10 * 1e-15 rounds to a zero count, so the targets are not integral
    # multiples of the uniform source weight and the assignment engine,
    # whose canonical duals start from target 0, must not be chosen
    rng = np.random.default_rng(17)
    mu = _m1(rng.uniform(-1, 1, 10), np.full(10, 0.1))
    nu = _m1(rng.uniform(-1, 1, 3), [1e-15, 0.5, 0.5 - 1e-15])
    i, j, mass, _, _ = discrete_ot._solve_ssp(cost_matrix(mu.points, nu.points, 2.0),
                                              mu.weights, nu.weights)
    _must_not_run(monkeypatch, "_solve_assignment")
    coupling, value, _ = solve(mu, nu, 2.0)
    assert value == Coupling(i, j, mass, mu, nu).value(2.0)
    coupling.check_marginals()


def test_direct_engine_dirac_marginal(monkeypatch):
    mu = _m1([0.25], [1.0])
    nu = _m1([-1.0, 1.0], [0.5, 0.5])
    _must_not_run(monkeypatch, "_solve_ssp", "_solve_assignment")
    coupling, value, _ = solve(mu, nu, 2.0)
    assert value == pytest.approx(0.5 * 1.25 ** 2 + 0.5 * 0.75 ** 2, abs=1e-12)
    coupling.check_marginals()


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------

def test_duality_gap_and_feasibility():
    rng = np.random.default_rng(23)
    for trial in range(20):
        mu, nu = _random_pair(rng, int(rng.integers(2, 12)),
                              int(rng.integers(2, 12)),
                              d=int(rng.integers(1, 3)))
        p = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
        coupling, value, duals = solve(mu, nu, p)
        assert abs(duals.dual_value(mu, nu) - value) <= 1e-8 * (1 + abs(value))
        cost = cost_matrix(mu.points, nu.points, p)
        slack = cost - duals.phi[:, None] - duals.phi_c[None, :]
        assert slack.min() >= -1e-9 * (1 + cost.max())
        pos = coupling.mass > 0
        assert np.abs(slack[coupling.i[pos], coupling.j[pos]]).max() <= \
            1e-9 * (1 + cost.max())


def _with_zero_weights(rng, n, m, d, zeros_s, zeros_t):
    """A random pair whose supports carry ``zeros_s``/``zeros_t`` extra
    zero-weight atoms, interleaved with the weighted ones."""
    mu, nu = _random_pair(rng, n, m, d=d)

    def pad(meas, k):
        pts = np.concatenate([meas.points, rng.uniform(-0.75, 0.75, (k, d))])
        w = np.concatenate([meas.weights, np.zeros(k)])
        order = rng.permutation(len(w))
        return DiscreteMeasure(pts[order], w[order], meas.domain)

    return pad(mu, zeros_s), pad(nu, zeros_t)


@pytest.mark.parametrize("zeros", [(0, 0), (2, 0), (0, 3), (2, 3)])
def test_solve_builds_one_cost_matrix(monkeypatch, zeros):
    rng = np.random.default_rng(41)
    mu, nu = _with_zero_weights(rng, 7, 5, 2, *zeros)
    calls = []

    def counted(X, Y, p):
        calls.append((len(X), len(Y)))
        return cost_matrix(X, Y, p)

    monkeypatch.setattr(discrete_ot, "cost_matrix", counted)
    solve(mu, nu, 2.0)
    assert calls == [(len(mu), len(nu))]


def _solve_by_separate_matrices(mu, nu, p):
    """Reference for ``solve`` on measures with zero weights: solve on the
    positive-weight atoms, complete the duals by c-transforms on their own
    cost matrices, and check them with ``DualPotentials.verify``."""
    mu0, keep_s = mu.drop_zero_weights()
    nu0, keep_t = nu.drop_zero_weights()
    c0, _, d0 = solve(mu0, nu0, p)
    u, v = d0.phi, d0.phi_c
    u_full, v_full = np.empty(len(mu)), np.empty(len(nu))
    u_full[keep_s], v_full[keep_t] = u, v
    drop_s = np.setdiff1d(np.arange(len(mu)), keep_s)
    drop_t = np.setdiff1d(np.arange(len(nu)), keep_t)
    if drop_s.size:
        u_full[drop_s] = (cost_matrix(mu.points[drop_s], nu0.points, p) - v).min(axis=1)
    if drop_t.size:
        v_full[drop_t] = (cost_matrix(mu.points, nu.points[drop_t], p)
                          - u_full[:, None]).min(axis=0)
    coupling = Coupling(keep_s[c0.i], keep_t[c0.j], c0.mass, mu, nu)
    duals = DualPotentials(u_full, v_full, p)
    duals.verify(coupling)
    return coupling, coupling.value(p), duals


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _zero_weight_instances():
    rng = np.random.default_rng(43)
    for trial in range(24):
        d = int(rng.integers(1, 3))
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        zeros_s, zeros_t = rng.integers(0, 4, size=2)
        mu, nu = _with_zero_weights(rng, n, m, d, zeros_s, zeros_t)
        yield mu, nu, float(rng.choice([1.5, 2.0, 3.0]))
    # a uniform source over integral targets: the assignment engine
    dom = Domain.ball(np.zeros(2), 2.0)
    mu = DiscreteMeasure(rng.uniform(-0.7, 0.7, (9, 2)),
                         np.r_[np.full(3, 1 / 6), 0.0, np.full(3, 1 / 6), 0.0, 0.0], dom)
    nu = DiscreteMeasure(rng.uniform(-0.7, 0.7, (4, 2)),
                         np.array([1 / 3, 0.0, 1 / 2, 1 / 6]), dom)
    yield mu, nu, 2.0


def test_solve_with_zero_weights_matches_separate_matrices_bitwise():
    for mu, nu, p in _zero_weight_instances():
        coupling, value, duals = solve(mu, nu, p)
        ref_c, ref_value, ref_d = _solve_by_separate_matrices(mu, nu, p)
        assert np.array_equal(coupling.i, ref_c.i) and np.array_equal(coupling.j, ref_c.j)
        assert np.array_equal(_bits(coupling.mass), _bits(ref_c.mass))
        assert np.array_equal(_bits(value), _bits(ref_value))
        assert np.array_equal(_bits(duals.phi), _bits(ref_d.phi))
        assert np.array_equal(_bits(duals.phi_c), _bits(ref_d.phi_c))


def test_verify_rejects_infeasible_duals():
    rng = np.random.default_rng(53)
    mu, nu = _with_zero_weights(rng, 6, 5, 2, 1, 1)
    coupling, _, duals = solve(mu, nu, 2.0)
    assert duals.verify(coupling) <= 1e-9
    phi = duals.phi.copy()
    phi[0] += 1.0
    with pytest.raises(AssertionError, match="dual infeasibility"):
        DualPotentials(phi, duals.phi_c, 2.0).verify(coupling)
    # lowering a shipping source's dual keeps feasibility but opens a gap
    # on its plan edges
    phi = duals.phi.copy()
    phi[coupling.i[coupling.mass > 0][0]] -= 1.0
    with pytest.raises(AssertionError, match="complementary slackness violation"):
        DualPotentials(phi, duals.phi_c, 2.0).verify(coupling)


# ---------------------------------------------------------------------------
# assignment engine: unit sources, integer target capacities
# ---------------------------------------------------------------------------

def _lsap_assignment(cost, counts):
    """Test-only oracle: each target repeated as ``counts`` columns of an
    n x n linear assignment problem."""
    col_of = np.repeat(np.arange(len(counts)), counts)
    rows, cols = linear_sum_assignment(cost[:, col_of])
    return col_of[cols[np.argsort(rows)]]


def _check_assignment_engine(cost, counts, generic):
    n, m = cost.shape
    i, j, mass, u, v = _solve_assignment(cost, np.full(n, 1.0 / n), counts)
    assert (i == np.arange(n)).all() and (mass == 1.0 / n).all()
    assert (np.bincount(j, minlength=m) == counts).all()
    ref = _lsap_assignment(cost, counts)
    value = cost[i, j].sum() / n
    assert value == pytest.approx(cost[np.arange(n), ref].sum() / n, abs=1e-12)
    if generic:
        assert (j == ref).all()
    # dual certificate: feasible everywhere, tight on the plan, no gap
    scale = 1.0 + np.abs(cost).max()
    slack = cost - u[:, None] - v[None, :]
    assert slack.min() >= -1e-12 * scale
    assert np.abs(slack[i, j]).max() <= 1e-12 * scale
    assert (u.sum() + v @ counts) / n == pytest.approx(value, abs=1e-12 * scale)
    # the target duals are the canonical ones: shortest distances from
    # target 0 on the gap graph
    gap = _gap_graph(cost, j)
    np.fill_diagonal(gap, 0.0)
    graph = np.ma.masked_array(np.where(np.isfinite(gap), gap, 0.0),
                               mask=~np.isfinite(gap))
    dist = shortest_path(graph, method="BF", indices=0)
    assert np.abs(v - dist).max() <= 1e-12 * scale


def _capacities(rng, n, m):
    """Positive integer capacities summing to n."""
    cuts = np.sort(rng.choice(np.arange(1, n), m - 1, replace=False))
    return np.diff(np.concatenate(([0], cuts, [n])))


def test_assignment_engine_many_sources_few_targets():
    rng = np.random.default_rng(101)
    for trial in range(12):
        n = int(rng.integers(60, 400))
        m = int(rng.integers(2, 12))
        X = rng.uniform(0.0, 1.0, (n, 2))
        Y = rng.uniform(0.0, 1.0, (m, 2))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        _check_assignment_engine(cost_matrix(X, Y, p), _capacities(rng, n, m),
                                 generic=True)


def test_assignment_engine_permutations():
    rng = np.random.default_rng(103)
    for trial in range(12):
        n = int(rng.integers(2, 60))
        cost = (cost_matrix(rng.uniform(-1, 1, (n, 2)), rng.uniform(-1, 1, (n, 2)), 2.0)
                if trial % 2 else rng.uniform(0.0, 5.0, (n, n)))
        _check_assignment_engine(cost, np.ones(n, dtype=np.int64), generic=True)


def test_assignment_engine_duplicate_targets():
    rng = np.random.default_rng(107)
    for trial in range(10):
        n = int(rng.integers(20, 200))
        m = int(rng.integers(3, 10))
        Y = rng.uniform(0.0, 1.0, (m, 2))
        Y[rng.integers(0, m, m // 2)] = Y[0]  # several copies of one atom
        cost = cost_matrix(rng.uniform(0.0, 1.0, (n, 2)), Y, 2.0)
        _check_assignment_engine(cost, _capacities(rng, n, m), generic=False)


def test_assignment_engine_lattice_ties():
    # grid sources, lattice targets: equidistant pairs tie exactly
    for side, cells, p in ((12, 3, 2.0), (16, 4, 2.0), (10, 5, 1.5), (9, 3, 3.0)):
        g = (np.arange(side) + 0.5) / side
        X = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
        c = (np.arange(cells) + 0.5) / cells
        Y = np.stack(np.meshgrid(c, c, indexing="ij"), -1).reshape(-1, 2)
        counts = np.full(cells * cells, side * side // (cells * cells))
        counts[: side * side - counts.sum()] += 1
        _check_assignment_engine(cost_matrix(X, Y, p), counts, generic=False)


def test_assignment_engine_zero_capacity_target():
    rng = np.random.default_rng(109)
    X = rng.uniform(0.0, 1.0, (40, 2))
    Y = rng.uniform(0.0, 1.0, (5, 2))
    _check_assignment_engine(cost_matrix(X, Y, 2.0), np.array([10, 0, 15, 0, 15]),
                             generic=True)


def test_assignment_engine_memory_stays_below_one_square_matrix():
    # the fit workload's shape: n = 52^2 grid sources, K = 24 targets; one
    # n x n float64 matrix, as a column expansion needs, would be 58 MB
    rng = np.random.default_rng(113)
    g = (np.arange(52) + 0.5) / 52
    X = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    c = (np.arange(6) + 0.5) / 6
    Y = np.stack(np.meshgrid(c[:4], c, indexing="ij"), -1).reshape(-1, 2)
    Y += rng.uniform(-0.005, 0.005, Y.shape)
    cost = cost_matrix(X, Y, 2.0)
    n, m = cost.shape
    counts = np.full(m, n // m)
    counts[: n - counts.sum()] += 1
    tracemalloc.start()
    try:
        _solve_assignment(cost, np.full(n, 1.0 / n), counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


# ---------------------------------------------------------------------------
# in-house graph searches against SciPy's csgraph
# ---------------------------------------------------------------------------

def _dijkstra_by_rule(W, sources):
    """Dijkstra as ``_dijkstra`` documents it, one scalar relaxation at a
    time: pop the smallest (label, index), update a label only on a strict
    ``<``.  Returns the predecessors and the pop order."""
    m = len(W)
    label, pred, done, order = [math.inf] * m, [-1] * m, [False] * m, []
    for s in sources:
        label[s] = 0.0
    while len(order) < m:
        d, a = min((label[b], b) for b in range(m) if not done[b])
        if d == math.inf:
            break
        done[a] = True
        order.append(a)
        for b in range(m):
            if not done[b] and d + W[a, b] < label[b]:
                label[b], pred[b] = d + W[a, b], a
    return np.array(pred), np.array(order)


def _random_dense_graph(rng, m):
    """Nonnegative weights with zeros, tied sums, missing arcs and rows of
    missing arcs only."""
    kind = rng.integers(3)
    if kind == 0:
        W = rng.uniform(0.0, 1.0, (m, m))
    elif kind == 1:
        W = rng.integers(0, 4, (m, m)).astype(float)
    else:
        W = rng.integers(0, 3, (m, m)) * 0.1
    W[rng.random((m, m)) < 0.1] = 0.0
    W[rng.random((m, m)) < 0.3] = np.inf
    W[rng.random(m) < 0.1] = np.inf
    return W


def test_dijkstra_matches_csgraph_and_its_tie_rule():
    rng = np.random.default_rng(211)
    for trial in range(300):
        m = int(rng.integers(1, 30))
        W = _random_dense_graph(rng, m)
        sources = np.sort(rng.choice(m, int(rng.integers(1, min(m, 4) + 1)),
                                     replace=False))
        dist, pred, root, order = _dijkstra(W, sources)
        # every arc stored, zero weights included: a dense input would
        # make csgraph drop them
        csr = sp.csr_array((W.ravel(), np.tile(np.arange(m), m),
                            np.arange(0, m * m + 1, m)), shape=(m, m))
        ref = dijkstra(csr, min_only=True, indices=sources)
        assert np.array_equal(dist, ref), trial
        ref_pred, ref_order = _dijkstra_by_rule(W, sources)
        assert np.array_equal(order, ref_order), trial
        assert np.array_equal(pred, ref_pred), trial
        reached = np.isfinite(dist)
        assert np.array_equal(np.sort(order), np.flatnonzero(reached))
        assert (root[~reached] == -1).all() and (root[sources] == sources).all()
        tree = reached & (pred >= 0)
        assert np.array_equal(root[tree], root[pred[tree]])


def _check_flow(n, tail, head, cap, source, sink, value, flow):
    """Capacity and conservation of the edge flows, and a cut of capacity
    ``value`` between the nodes the residual graph reaches from ``source``
    and the rest: the flow is maximum whatever the capacities' size."""
    assert len(flow) == len(cap)
    assert all(0 <= f <= c for f, c in zip(flow, cap))
    net = [0] * n
    for a, b, f in zip(tail, head, flow):
        net[a] -= f
        net[b] += f
    assert net[source] == -value and net[sink] == value
    assert not any(net[k] for k in range(n) if k not in (source, sink))
    reached, queue = {source}, [source]
    for a in queue:
        for t, h, c, f in zip(tail, head, cap, flow):
            for x, y, r in ((t, h, c - f), (h, t, f)):
                if x == a and r and y not in reached:
                    reached.add(y)
                    queue.append(y)
    assert sink not in reached
    assert value == sum(c for t, h, c in zip(tail, head, cap)
                        if t in reached and h not in reached)


def test_maximum_flow_matches_csgraph():
    rng = np.random.default_rng(223)
    for trial in range(400):
        n = int(rng.integers(2, 25))
        if trial % 4 == 0:
            # a unit bipartite network: its flow is a maximum matching
            r = int(rng.integers(1, n))
            adj = rng.random((r, n - r)) < rng.uniform(0.05, 0.7)
            ii, jj = np.nonzero(adj)
            source, sink = n, n + 1
            tail = [source] * r + ii.tolist() + list(range(r, n))
            head = list(range(r)) + (r + jj).tolist() + [sink] * (n - r)
            n += 2
            cap = [1] * len(tail)
        else:
            e = int(rng.integers(0, 4 * n))
            tail, head = rng.integers(0, n, (2, e))
            keep = tail != head
            tail, head = tail[keep].tolist(), head[keep].tolist()
            # csgraph sums parallel edges in int32: keep every sum below 2**31
            top = int(rng.choice([2, 10, 2 ** 31 // (4 * n)]))
            cap = rng.integers(0, top, len(tail)).tolist()
            source, sink = (int(k) for k in rng.choice(n, 2, replace=False))
        value, flow = discrete_ot.maximum_flow(n, tail, head, cap, source, sink)
        _check_flow(n, tail, head, cap, source, sink, value, flow)
        graph = sp.csr_array((np.array(cap, dtype=np.int32), (tail, head)),
                             shape=(n, n))
        assert value == maximum_flow(graph, source, sink).flow_value, trial
        if trial % 4 == 0:
            match = maximum_bipartite_matching(sp.csr_array(adj), perm_type="column")
            assert value == (match >= 0).sum(), trial


def test_maximum_flow_takes_capacities_past_int64():
    # Python ints: the flow is exact where int64 (or int32) capacities
    # would overflow
    rng = np.random.default_rng(227)
    for trial in range(40):
        n = int(rng.integers(2, 15))
        e = int(rng.integers(1, 4 * n))
        tail, head = rng.integers(0, n, (2, e)).tolist()
        cap = [int(c) * 10 ** 12 + int(c) for c in rng.integers(0, 10 ** 8, e)]
        value, flow = discrete_ot.maximum_flow(n, tail, head, cap, 0, n - 1)
        _check_flow(n, tail, head, cap, 0, n - 1, value, flow)


# ---------------------------------------------------------------------------
# metric structure
# ---------------------------------------------------------------------------

def test_triangle_inequality():
    rng = np.random.default_rng(37)
    for trial in range(15):
        d = int(rng.integers(1, 3))
        mu, nu = _random_pair(rng, 5, 6, d=d)
        kappa = _random_pair(rng, 4, 4, d=d)[0]
        for p in (1.5, 2.0, 3.0):
            ab = wasserstein(mu, nu, p)
            ak = wasserstein(mu, kappa, p)
            kb = wasserstein(kappa, nu, p)
            assert ab <= ak + kb + 1e-9


@pytest.fixture
def no_highs(monkeypatch):
    """HiGHS raises if called: no solve and no bottleneck plan reaches it."""
    _must_not_run(monkeypatch, "_solve_highs")


@pytest.mark.usefixtures("no_highs")
def test_wp_monotone_in_p():
    rng = np.random.default_rng(41)
    for trial in range(10):
        mu, nu = _random_pair(rng, 6, 5, d=2)
        vals = [wasserstein(mu, nu, p) for p in (1.5, 2.0, 3.0, 4.0)]
        assert all(vals[k] <= vals[k + 1] + 1e-9 for k in range(len(vals) - 1))
        _, winf = bottleneck_solve(mu, nu)
        assert vals[-1] <= winf + 1e-9


# ---------------------------------------------------------------------------
# bottleneck
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("no_highs")
def test_bottleneck_examples():
    mu = _m1([-0.5, 0.5], [0.5, 0.5])
    coupling, value = bottleneck_solve(mu, mu)
    assert value == 0.0
    coupling.check_marginals()

    eps = 0.2
    dirac = _m1([0.0], [1.0])
    split = _m1([-eps / 4, eps / 4], [0.5, 0.5])
    coupling, value = bottleneck_solve(dirac, split)
    assert value == pytest.approx(eps / 4, abs=1e-12)
    assert coupling.max_distance() == pytest.approx(eps / 4, abs=1e-12)


def test_bottleneck_matches_minimax_permutation_oracle():
    rng = np.random.default_rng(53)
    for trial in range(25):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 3))
        dom = Domain.ball(np.zeros(d), 2.0)
        mu = DiscreteMeasure(rng.uniform(-1, 1, (n, d)), np.full(n, 1.0 / n), dom)
        nu = DiscreteMeasure(rng.uniform(-1, 1, (n, d)), np.full(n, 1.0 / n), dom)
        dist = np.sqrt(cost_matrix(mu.points, nu.points, 2.0))
        oracle = min(max(dist[i, perm[i]] for i in range(n))
                     for perm in itertools.permutations(range(n)))
        coupling, value = bottleneck_solve(mu, nu)
        assert value == pytest.approx(oracle, abs=1e-12)
        assert coupling.max_distance() <= value + 1e-12
        coupling.check_marginals()


@pytest.mark.usefixtures("no_highs")
def test_bottleneck_unequal_weights():
    rng = np.random.default_rng(59)
    for trial in range(8):
        mu, nu = _random_pair(rng, 4, 6, d=1)
        coupling, value = bottleneck_solve(mu, nu)
        coupling.check_marginals()
        assert coupling.max_distance() <= value + 1e-12
        # any W_q lower-bounds the bottleneck value
        assert wasserstein(mu, nu, 4.0) <= value + 1e-9


def _bounds_feasible(admitted, mu, nu):
    """Whether some plan on the admitted edges has row and column sums in
    the unit bounds of ``_unit_bounds`` and MASS_SCALE units in all: an LP
    by HiGHS, whose constraint matrix is totally unimodular, so that an
    integer plan exists whenever a fractional one does."""
    (lo_s, hi_s), (lo_t, hi_t) = _unit_bounds(mu.weights), _unit_bounds(nu.weights)
    ii, jj = np.nonzero(admitted)
    k = np.arange(len(ii))
    rows = sp.csr_matrix((np.ones(len(ii)), (ii, k)), shape=(len(mu), len(ii)))
    cols = sp.csr_matrix((np.ones(len(ii)), (jj, k)), shape=(len(nu), len(ii)))
    res = linprog(np.zeros(len(ii)), A_ub=sp.vstack([rows, -rows, cols, -cols]),
                  b_ub=np.concatenate([hi_s, -lo_s, hi_t, -lo_t]),
                  A_eq=np.ones((1, len(ii))), b_eq=[MASS_SCALE], method="highs")
    return res.status == 0


def _full_range_bottleneck(mu, nu):
    """The bottleneck level by binary search over every distinct squared
    distance between the atoms of positive weight, each threshold checked
    on its own graph by csgraph's matching in the uniform square case and
    by ``_bounds_feasible`` otherwise."""
    mu, nu = mu.drop_zero_weights()[0], nu.drop_zero_weights()[0]
    d2 = cost_matrix(mu.points, nu.points, 2)
    n, m = d2.shape
    uniform = (n == m and np.abs(mu.weights - 1.0 / n).max() <= 1e-12
               and np.abs(nu.weights - 1.0 / n).max() <= 1e-12)

    def feasible(level):
        admitted = d2 <= level * (1 + 1e-12)
        if uniform:
            match = maximum_bipartite_matching(sp.csr_matrix(admitted),
                                               perm_type="column")
            return bool((match >= 0).all())
        return _bounds_feasible(admitted, mu, nu)

    levels = np.unique(d2)
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return levels[hi]


def _check_against_full_range(mu, nu):
    """The level of ``bottleneck_solve`` bit for bit, and a plan between
    the original measures on edges admitted at that level; between uniform
    measures of one size the plan is the identity of their positive-weight
    atoms when the level is the identity's own longest edge."""
    level = _full_range_bottleneck(mu, nu)
    coupling, value = bottleneck_solve(mu, nu)
    assert value.hex() == float(np.sqrt(level)).hex()
    assert coupling.source is mu and coupling.target is nu
    coupling.check_marginals()
    d2 = cost_matrix(mu.points, nu.points, 2)
    assert (d2[coupling.i, coupling.j] <= level * (1 + 1e-12)).all()
    keep_s, keep_t = np.flatnonzero(mu.weights > 0), np.flatnonzero(nu.weights > 0)
    n = len(keep_s)
    if (n == len(keep_t) and np.abs(mu.weights[keep_s] - 1.0 / n).max() <= 1e-12
            and np.abs(nu.weights[keep_t] - 1.0 / n).max() <= 1e-12
            and level == d2[keep_s, keep_t].max()):
        assert np.array_equal(coupling.i, keep_s)
        assert np.array_equal(coupling.j, keep_t)
        assert np.array_equal(coupling.mass, np.full(n, 1.0 / n))


def _uniform(points, dom):
    return DiscreteMeasure(points, np.full(len(points), 1.0 / len(points)), dom)


def test_bottleneck_bracket_matches_full_range_search_uniform():
    rng = np.random.default_rng(61)
    for trial in range(30):
        n = int(rng.integers(2, 26))
        d = int(rng.integers(1, 4))
        dom = Domain.ball(np.zeros(d), 10.0)
        X, Y = rng.uniform(-1, 1, (2, n, d))
        if trial % 3 == 0:  # lattice points: many tied distances
            X, Y = np.round(3 * X), np.round(3 * Y)
        _check_against_full_range(_uniform(X, dom), _uniform(Y, dom))


def test_bottleneck_bracket_matches_full_range_search_jittered_grid():
    # the stability audit's 2D instances: a uniform disc grid against its
    # cell centers jittered by a fraction of the cell and kept in the disc
    rng = np.random.default_rng(67)
    for res in (6, 9, 12):
        grid = discretize(GridDensity.uniform(Domain.ball(np.zeros(2), 1.0), res))
        dom = Domain.ball(np.zeros(2), 2.0)
        rho = DiscreteMeasure(grid.points, grid.weights, dom)
        _check_against_full_range(rho, rho)
        h = 2.0 / res
        for trial in range(3):
            scale = rng.uniform(0.1, 0.45) * h / 2.0
            pts = rho.points + rng.uniform(-scale, scale, rho.points.shape)
            norms = np.linalg.norm(pts, axis=1)
            pts[norms > 1.0] *= ((1.0 - 1e-12) / norms[norms > 1.0])[:, None]
            _check_against_full_range(rho, DiscreteMeasure(pts, rho.weights, dom))


@pytest.mark.usefixtures("no_highs")
def test_bottleneck_level_admitted_by_tolerance_below_lower_bound():
    # one pair sits a few 1e-13 relative beyond the others: the largest
    # row minimum exceeds the answer, which the 1e-12 threshold tolerance
    # still lets that pair under
    rng = np.random.default_rng(71)
    dom = Domain.ball(np.zeros(1), 100.0)
    for trial in range(10):
        n = int(rng.integers(2, 8))
        offsets = rng.uniform(0.2, 1.0, n)
        offsets[rng.permutation(n)[:2]] = 1.0, 1.0 + int(rng.integers(1, 5)) * 1e-13
        X = 10.0 * np.arange(n, dtype=float)[:, None]
        Y = X + offsets[:, None]
        mu, nu = _uniform(X, dom), _uniform(Y, dom)
        d2 = cost_matrix(X, Y, 2)
        assert max(d2.min(axis=1).max(), d2.min(axis=0).max()) > 1.0
        _check_against_full_range(mu, nu)
        assert bottleneck_solve(mu, nu)[1] == 1.0
    # unequal weights: the second source splits over two targets
    mu = _m1([0.0, 10.0], [0.5, 0.5], dom)
    nu = _m1([1.0, 11.0, 10.0 - (1.0 + 2e-13)], [0.5, 0.25, 0.25], dom)
    _check_against_full_range(mu, nu)
    assert bottleneck_solve(mu, nu)[1] == 1.0


@pytest.mark.usefixtures("no_highs")
def test_bottleneck_bracket_matches_full_range_search_unequal_weights():
    rng = np.random.default_rng(73)
    for trial in range(12):
        n, m = (int(k) for k in rng.integers(2, 9, size=2))
        mu, nu = _random_pair(rng, n, m, d=1 + trial % 2)
        _check_against_full_range(mu, nu)
    # uniform weights on unequal support sizes: the bracket top is d2.max()
    dom = Domain.ball(np.zeros(2), 2.0)
    _check_against_full_range(_uniform(rng.uniform(-1, 1, (4, 2)), dom),
                              _uniform(rng.uniform(-1, 1, (6, 2)), dom))
    # lattice points: many tied distances
    for trial in range(12):
        n, m = (int(k) for k in rng.integers(2, 9, size=2))
        mu, nu = _random_pair(rng, n, m, d=1 + trial % 2)
        _check_against_full_range(
            DiscreteMeasure(np.round(3 * mu.points) / 3, mu.weights, mu.domain),
            DiscreteMeasure(np.round(3 * nu.points) / 3, nu.weights, nu.domain))


@pytest.mark.usefixtures("no_highs")
def test_bottleneck_degenerate_inputs_match_full_range_search():
    rng = np.random.default_rng(79)
    dom = Domain.ball(np.zeros(2), 2.0)
    # zero-weight atoms, interleaved with the weighted ones
    for zeros in ((2, 0), (0, 3), (2, 3)):
        for n, m in ((5, 7), (6, 6), (1, 4)):
            _check_against_full_range(*_with_zero_weights(rng, n, m, 2, *zeros))
    # uniform atoms of one count padded with zero-weight atoms: the plan is
    # the identity of the weighted atoms whenever the search ends at its top
    for trial in range(6):
        X, Y = rng.uniform(-0.7, 0.7, (2, 8, 2))
        w = np.r_[np.full(5, 0.2), np.zeros(3)]
        w_s, w_t = w[rng.permutation(8)], w[rng.permutation(8)]
        if trial % 2:  # weighted atoms of Y next to those of X, in order
            Y[w_t > 0] = X[w_s > 0] + rng.uniform(-0.01, 0.01, (5, 2))
        _check_against_full_range(DiscreteMeasure(X, w_s, dom),
                                  DiscreteMeasure(Y, w_t, dom))
    # Dirac marginals
    for n, m in ((1, 1), (1, 5), (4, 1)):
        mu, nu = _random_pair(rng, n, m, d=2)
        _check_against_full_range(mu, nu)
    # duplicate atoms, with uniform and with general weights
    for trial in range(6):
        X, Y = rng.uniform(-0.7, 0.7, (2, 3, 2))
        X, Y = X[rng.integers(0, 3, 6)], Y[rng.integers(0, 3, 6)]
        _check_against_full_range(_uniform(X, dom), _uniform(Y, dom))
        mu, nu = _random_pair(rng, 6, 6, d=2)
        _check_against_full_range(DiscreteMeasure(X, mu.weights, dom),
                                  DiscreteMeasure(Y, nu.weights, dom))


@pytest.mark.usefixtures("no_highs")
@pytest.mark.parametrize("w", [3e-13, 3e-10, 3e-9])
def test_bottleneck_counts_atoms_below_one_flow_unit(w):
    # an atom of less than 1e-9 of mass (less than one 1e-12 unit for the
    # smallest w) must still ship it: from 5 to 1, 4 away; and from 1,
    # whose nearest target 0 is full, to 10, 9 away
    dom = Domain.ball(np.zeros(1), 20.0)
    for near, small, level in ((1.0, 5.0, 4.0), (10.0, 1.0, 9.0)):
        mu = _m1([0.0, near, small], [0.5, 0.5 - w, w], dom)
        nu = _m1([0.0, near], [0.5, 0.5], dom)
        for a, b in ((mu, nu), (nu, mu)):
            coupling, value = bottleneck_solve(a, b)
            assert value == level
            coupling.check_marginals()
            assert coupling.max_distance() <= value * (1 + 1e-12)


@pytest.mark.usefixtures("no_highs")
def test_bottleneck_count_weights_round_alike():
    # 1/7 rounds to 142857142857.14 units: the leftover unit of each
    # side's largest-fraction rounding lands on different atoms, yet the
    # atom at 0 holds 1/7 on both sides, so level 0 is feasible
    dom = Domain.ball(np.zeros(1), 20.0)
    mu = _m1([0.0] + [10.0] * 6, np.full(7, 1 / 7), dom)
    nu = _m1([0.0, 10.0], [1 / 7, 6 / 7], dom)
    for a, b in ((mu, nu), (nu, mu)):
        coupling, value = bottleneck_solve(a, b)
        assert value == 0.0
        coupling.check_marginals()
        assert coupling.max_distance() == 0.0


@pytest.mark.usefixtures("no_highs")
@pytest.mark.parametrize("count", [7, 24, 48, 99])
def test_bottleneck_zero_between_two_splits_of_one_count_measure(count):
    # count/N units on a few lattice sites, split into atoms two different
    # ways: the measures are equal, so the level is 0
    rng = np.random.default_rng(count)
    dom = Domain.ball(np.zeros(2), 10.0)
    for trial in range(6):
        sites = rng.integers(-3, 4, (int(rng.integers(2, 6)), 2)).astype(float)
        owner = rng.integers(0, len(sites), count)
        owner[:len(sites)] = np.arange(len(sites))

        def split():
            atom = np.minimum(rng.integers(0, 3, count), owner % 3)
            keys, units = np.unique(np.stack([owner, atom], 1), axis=0,
                                    return_counts=True)
            return DiscreteMeasure(sites[keys[:, 0]], units / count, dom)

        coupling, value = bottleneck_solve(split(), split())
        assert value == 0.0
        coupling.check_marginals()
        assert coupling.max_distance() == 0.0


def test_bottleneck_raises_on_plan_with_forbidden_edge(monkeypatch):
    # a flow that finds no plan is reported, not repaired by another
    # engine: with zero flow every probe fails, and so does the flow at the
    # top level, where every edge between atoms is admitted
    mu = _m1([0.0, 1.0], [1 / 3, 2 / 3])
    nu = _m1([0.0, 1.0, 1.5], [1 / 3, 1 / 3, 1 / 3])
    assert bottleneck_solve(mu, nu)[1] == 0.5
    monkeypatch.setattr(discrete_ot, "maximum_flow",
                        lambda n, tail, head, cap, source, sink: (0, [0] * len(cap)))
    with pytest.raises(SolverError) as exc:
        bottleneck_solve(mu, nu)
    for part in ("2x3", "level 1.5", "admits every edge"):
        assert part in str(exc.value), (part, str(exc.value))


# ---------------------------------------------------------------------------
# c-transform
# ---------------------------------------------------------------------------

def test_c_transform_zero_potential_is_min_cost():
    mu = _m1([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
    ys = np.array([[-0.6], [0.4]])
    out = c_transform(np.zeros(3), mu, ys, p=2.0)
    expect = np.min(cost_matrix(mu.points, ys, 2.0), axis=0)
    assert np.allclose(out, expect, atol=1e-15)


def test_c_transform_single_source():
    mu = _m1([0.5], [1.0])
    ys = np.array([[-1.0], [0.0], [2.0]])
    out = c_transform(np.array([0.3]), mu, ys, p=3.0)
    expect = np.abs(ys.ravel() - 0.5) ** 3 - 0.3
    assert np.allclose(out, expect, atol=1e-15)
    with pytest.raises(ValueError):
        c_transform(np.array([np.inf]), mu, ys, p=2.0)


def test_double_transform_fixed_point_on_support():
    rng = np.random.default_rng(61)
    mu, nu = _random_pair(rng, 7, 7, d=2)
    _, _, duals = solve(mu, nu, 2.0)
    phi_c = c_transform(duals.phi, mu, nu, p=2.0)
    phi_cc = c_transform(phi_c, nu, mu.points, p=2.0)
    # optimal potentials are fixed points of the double transform on the
    # support of the source measure
    assert np.allclose(phi_cc, duals.phi, atol=1e-9)
    # and one c-transform of the optimal phi reproduces a feasible phi_c
    assert (phi_c >= duals.phi_c - 1e-9).all()


# ---------------------------------------------------------------------------
# coupling container
# ---------------------------------------------------------------------------

def test_coupling_csv_lexicographic(tmp_path):
    mu = _m1([-1.0, 1.0], [0.5, 0.5])
    nu = _m1([-1.0, 1.0], [0.4, 0.6])
    coupling = Coupling(np.array([1, 0, 0]), np.array([1, 1, 0]),
                        np.array([0.5, 0.1, 0.4]), mu, nu)
    path = tmp_path / "plan.csv"
    coupling.to_csv(path, p=2.0)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,mass,cost"
    keys = [tuple(int(tok) for tok in ln.split(",")[:2]) for ln in lines[1:]]
    assert keys == sorted(keys)
    path2 = tmp_path / "plan2.csv"
    coupling.to_csv(path2, p=2.0)
    assert path.read_bytes() == path2.read_bytes()


def test_coupling_validation():
    mu = _m1([-1.0, 1.0], [0.5, 0.5])
    nu = _m1([0.0], [1.0])
    with pytest.raises(ValueError):
        Coupling(np.array([0, 1]), np.array([0, 0]),
                 np.array([0.5, -0.5]), mu, nu)
    with pytest.raises(ValueError):
        Coupling(np.array([0, 5]), np.array([0, 0]),
                 np.array([0.5, 0.5]), mu, nu)
    # a plan that misses the marginals is rejected at construction
    with pytest.raises(AssertionError):
        Coupling(np.array([0]), np.array([0]), np.array([1.0]), mu, nu)
