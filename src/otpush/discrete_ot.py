"""Exact discrete-discrete optimal transport for p-costs.

Primal plan, dual potentials and W_q values come from exact combinatorial
solvers; no entropic regularization anywhere.  Masses are scaled to int64
units (scale 1e12) so flows are integral; costs stay in double precision and
a complementary-slackness audit runs after every solve.

Engines
-------
``solve`` picks one from the instance alone:

* ``_solve_direct``     — one of the marginals is a Dirac: the plan is
                          forced.
* ``_solve_assignment`` — a uniform source whose target masses are integer
                          multiples of 1/n: successive shortest paths on
                          the K-node target graph, each row moved whole, so
                          the plan is an exact unsplit assignment; target
                          duals are the shortest distances from target 0 on
                          that graph.
* ``_solve_ssp``        — every other instance: in-house successive-
                          shortest-paths min-cost flow (NumPy kernel, see
                          ``_kernels``).  A kernel failure (iteration cap or
                          unroutable units) raises ``SolverError``; nothing
                          re-solves.

``bottleneck_solve`` checks each level and builds its plan with one
in-house maximum flow (``maximum_flow``, Dinic) and raises ``SolverError``
when the flow finds no plan where one must exist.

Only NumPy is imported here, and no solve imports SciPy.  ``_solve_highs``,
the transportation LP by ``scipy.optimize.linprog``, is the reference that
tests compare the engines against; it imports ``scipy.sparse`` and
``scipy.optimize`` when called.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .geometry_measures import DiscreteMeasure

__all__ = [
    "Coupling",
    "DualPotentials",
    "cost_matrix",
    "solve",
    "wasserstein",
    "bottleneck_solve",
    "c_transform",
]

MASS_SCALE = 10 ** 12


def __getattr__(name):
    # The traced benchmark patches ``linear_sum_assignment``,
    # ``maximum_bipartite_matching`` and ``shortest_path`` here although
    # nothing calls them; resolve them on first access only, so that
    # importing this module does not import SciPy.  This hook goes when
    # the benchmark reads the product's own trace (ROADMAP direction 1).
    if name == "linear_sum_assignment":
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment
    if name in ("maximum_bipartite_matching", "shortest_path"):
        from scipy.sparse import csgraph
        return getattr(csgraph, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cost_matrix(X: np.ndarray, Y: np.ndarray, p: float) -> np.ndarray:
    """Pairwise costs ||x_i - y_j||^p.

    The squared distance is summed one coordinate at a time, in coordinate
    order, with no (n, m, d) temporary.
    """
    X = np.atleast_2d(X)
    Y = np.atleast_2d(Y)
    d2 = (X[:, 0, None] - Y[None, :, 0]) ** 2
    for k in range(1, X.shape[1]):
        dk = X[:, k, None] - Y[None, :, k]
        dk *= dk
        d2 += dk
    if p == 2:
        return d2
    return d2 ** (p / 2.0)


def _scaled_units(weights: np.ndarray, scale: int) -> np.ndarray:
    """Round weights to integer units summing exactly to scale.

    Floor plus largest-fraction top-up keeps every entry within 2 units of
    weight * scale, so per-point marginal error stays below 2/scale.
    """
    w = np.asarray(weights, dtype=float)
    units = np.floor(w * scale).astype(np.int64)
    resid = int(scale - units.sum())
    if resid > 0:
        frac = w * scale - units
        units[np.argsort(-frac)[:resid]] += 1
    elif resid < 0:
        units[np.argsort(-units)[:-resid]] -= 1
    if (units < 0).any():
        raise SolverError("negative scaled mass")
    return units


@dataclass(frozen=True)
class Coupling:
    """Sparse transport plan between two discrete measures."""

    i: np.ndarray
    j: np.ndarray
    mass: np.ndarray
    source: DiscreteMeasure
    target: DiscreteMeasure

    def __post_init__(self):
        order = np.lexsort((self.j, self.i))
        object.__setattr__(self, "i", np.asarray(self.i)[order])
        object.__setattr__(self, "j", np.asarray(self.j)[order])
        object.__setattr__(self, "mass", np.asarray(self.mass, dtype=float)[order])
        if (self.mass < 0).any():
            raise ValueError("negative coupling mass")
        if len(self.i) and ((self.i < 0).any() or self.i.max() >= len(self.source)
                            or (self.j < 0).any() or self.j.max() >= len(self.target)):
            raise ValueError("coupling index out of range")
        self.check_marginals()

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        a = np.zeros(len(self.source))
        b = np.zeros(len(self.target))
        np.add.at(a, self.i, self.mass)
        np.add.at(b, self.j, self.mass)
        return a, b

    def check_marginals(self, tol: float = 1e-10):
        a, b = self.marginals()
        err = max(np.abs(a - self.source.weights).max(), np.abs(b - self.target.weights).max())
        if err > tol:
            raise AssertionError(f"coupling marginal error {err}")

    def costs(self, p: float) -> np.ndarray:
        diff = self.source.points[self.i] - self.target.points[self.j]
        d2 = (diff ** 2).sum(-1)
        return d2 if p == 2 else d2 ** (p / 2.0)

    def value(self, p: float) -> float:
        return float(self.mass @ self.costs(p))

    def max_distance(self) -> float:
        d2 = self.costs(2.0)[self.mass > 0]
        return float(np.sqrt(d2.max())) if d2.size else 0.0

    def to_csv(self, path, p: float = 2.0):
        costs = self.costs(p)
        with open(path, "w") as fh:
            fh.write("i,j,mass,cost\n")
            for i, j, m, c in zip(self.i, self.j, self.mass, costs):
                fh.write(f"{i},{j},{m!r},{c!r}\n")


@dataclass(frozen=True)
class DualPotentials:
    """Kantorovich duals: phi on the source, phi_c on the target, cost exponent p.

    Feasibility phi[i] + phi_c[j] <= ||x_i - y_j||^p everywhere, equality on
    the support of the optimal plan.
    """

    phi: np.ndarray
    phi_c: np.ndarray
    p: float

    def verify(self, coupling: Coupling, tol: float = 1e-9) -> float:
        cost = cost_matrix(coupling.source.points, coupling.target.points, self.p)
        return _check_duals(cost, self.phi, self.phi_c, coupling, tol)

    def dual_value(self, source: DiscreteMeasure, target: DiscreteMeasure) -> float:
        return float(self.phi @ source.weights + self.phi_c @ target.weights)


def _check_duals(cost, phi, phi_c, coupling, tol=1e-9):
    """``DualPotentials.verify`` against a given ``cost`` matrix on the
    coupling's full supports."""
    slack = cost - phi[:, None] - phi_c[None, :]
    worst = -float(slack.min())
    if worst > tol * (1.0 + np.abs(cost).max()):
        raise AssertionError(f"dual infeasibility {worst}")
    support = coupling.mass > 0
    gap = float(np.abs(slack[coupling.i[support], coupling.j[support]]).max()) if support.any() else 0.0
    if gap > tol * (1.0 + np.abs(cost).max()):
        raise AssertionError(f"complementary slackness violation {gap}")
    return max(worst, gap)


class SolverError(RuntimeError):
    pass


def _solve_direct(cost, w_s, w_t):
    n, m = cost.shape
    if n == 1:
        i = np.zeros(m, dtype=np.int64)
        j = np.arange(m, dtype=np.int64)
        mass = w_t.copy()
        u = np.zeros(1)
        v = cost[0].copy()
    else:
        i = np.arange(n, dtype=np.int64)
        j = np.zeros(n, dtype=np.int64)
        mass = w_s.copy()
        v = np.zeros(1)
        u = cost[:, 0].copy()
    return i, j, mass, u, v


def _solve_ssp(cost, w_s, w_t):
    """Min-cost flow of the marginals in MASS_SCALE units by the SSP
    kernel; raises ``SolverError`` if the kernel fails."""
    n, m = cost.shape
    supply = _scaled_units(w_s, MASS_SCALE)
    cap = 10 * (n + m) + 64
    flow, u, v, status = _kernels.ssp_flow(
        cost, supply, _scaled_units(w_t, MASS_SCALE), max_iters=cap)
    if status:
        reason = ("iteration cap hit" if status == 1
                  else "no sink with demand left is reachable")
        raise SolverError(
            f"SSP failed on a {n}x{m} instance: {reason} (status {status}, "
            f"cap 10(n+m)+64 = {cap}); {int(supply.sum() - flow.sum())} of "
            f"{int(supply.sum())} units unrouted")
    ii, jj = np.nonzero(flow)
    mass = flow[ii, jj] / MASS_SCALE
    return ii.astype(np.int64), jj.astype(np.int64), mass, u, v


def _uniform(w):
    """Whether every weight is 1/len(w), to within 1e-12."""
    return np.abs(w - 1.0 / len(w)).max() <= 1e-12


def _integral_multiples(w_t, n):
    """Target counts n * w_t, or None unless each is an integer; a positive
    weight that rounds to a zero count is not a multiple of 1/n."""
    counts = w_t * n
    rounded = np.round(counts)
    if (np.abs(counts - rounded).max() > 1e-12 * n or int(rounded.sum()) != n
            or ((rounded == 0) & (w_t > 0)).any()):
        return None
    return rounded.astype(np.int64)


def _gap_rows(cost, assign, picked):
    """The rows of the gap graph (see ``_gap_graph``) for the targets in
    the boolean mask ``picked``."""
    rows = np.flatnonzero(picked[assign])
    rows = rows[np.argsort(assign[rows], kind="stable")]
    size = np.bincount(assign[rows], minlength=len(picked))[picked]
    gap = np.full((size.size, cost.shape[1]), np.inf)
    if rows.size:
        diff = cost[rows]
        diff -= cost[rows, assign[rows]][:, None]
        start = np.cumsum(size) - size
        gap[size > 0] = np.minimum.reduceat(diff, start[size > 0], axis=0)
    return gap


def _gap_graph(cost, assign):
    """gap[a, b] = min over rows i assigned to a of cost[i, b] - cost[i, a].

    Rows of targets that no row is assigned to are ``inf``.  Duals v with
    v[b] - v[a] <= gap[a, b] keep every row's assignment optimal.
    """
    return _gap_rows(cost, assign, np.ones(cost.shape[1], dtype=bool))


def _reduced(gap, v):
    """gap[a, b] + v[a] - v[b], clamped at 0 against rounding."""
    W = gap + v[:, None]
    W -= v
    return np.maximum(W, 0.0, out=W)


def _dijkstra(W, sources):
    """Dijkstra on the dense graph of arc weights ``W[a, b] >= 0`` (inf: no
    arc) from the nearest of ``sources``, as ``(dist, pred, root, order)``.

    Nodes are popped smallest label first, lowest index on ties; ``order``
    lists the reached ones.  ``pred[b]`` is the first popped a with
    ``dist[a] + W[a, b] == dist[b]``, whose relaxation set b's final label
    under strict ``<`` updates; -1 on the sources and unreached nodes, as
    is ``root[b]``, b's source, on the unreached ones.  Rounding is
    monotone, so ``dist`` does not depend on how ties are settled.
    """
    m = len(W)
    label = np.full(m, np.inf)  # labels of the nodes not yet popped
    label[sources] = 0.0
    shut = np.zeros(m)  # inf on the popped nodes
    dist = np.full(m, np.inf)
    nd = np.empty(m)
    order = []
    while True:
        a = int(label.argmin())
        d = label[a]
        if d == np.inf:
            break
        order.append(a)
        dist[a] = d
        label[a] = shut[a] = np.inf
        np.add(W[a], d, out=nd)
        nd += shut
        np.minimum(label, nd, out=label)
    # predecessors in one pass after the search, not masked writes per pop
    order = np.array(order)
    hit = W[order]
    hit += dist[order, None]
    pred = np.where(np.isfinite(dist), order[(hit == dist).argmax(axis=0)], -1)
    pred[sources] = -1
    root = np.full(m, -1)
    root[sources] = sources
    up, root = pred.tolist(), root.tolist()
    for b in order.tolist():
        if up[b] >= 0:
            root[b] = root[up[b]]
    return dist, pred, np.array(root), order


def _price_step(reduced, assign, load, counts, raise_under):
    """Change to the target potentials v from one vectorized price pass,
    given ``reduced = cost - v`` and its row-wise arg-min ``assign``.

    Lowers v on every over-full target just past the margin of its e-th
    most loosely held row, e its excess, so that about e rows leave it; or,
    with ``raise_under``, raises v on every under-full target just past the
    switching cost of its f-th cheapest outside row, f its deficit.
    """
    n = len(assign)
    switch = reduced - reduced[np.arange(n), assign][:, None]
    switch[np.arange(n), assign] = np.inf
    step = np.zeros(len(counts))
    if raise_under:
        k = np.flatnonzero(load < counts)
        f = counts[k] - load[k]
        col = np.sort(switch[:, k], axis=0)
        lo = col[f - 1, np.arange(k.size)]
        hi = col[np.minimum(f, n - 1), np.arange(k.size)]
        step[k] = np.where(np.isfinite(hi), (lo + hi) / 2.0, lo)
    else:
        margin = switch.min(axis=1)
        order = np.lexsort((margin, assign))  # rows by target, then margin
        k = np.flatnonzero(load > counts)
        last = np.cumsum(load)[k] - counts[k]
        step[k] = -(margin[order[last - 1]] + margin[order[np.minimum(last, n - 1)]]) / 2.0
    return step


def _assign_to_targets(cost, counts):
    """Optimal assignment of n unit rows to targets of capacities ``counts``.

    Successive shortest paths with node potentials v on the target graph
    (Ahuja-Magnanti-Orlin, *Network Flows*, ch. 9), the rows assigned to a
    target collapsed into its gap row (Bertsekas-Castanon 1989).  Every row
    always sits at an arg-min of ``cost[i] - v``, so the assignment is
    optimal once no target is over-full.  Returns the assignment and its
    canonical target duals.
    """
    m = cost.shape[1]
    v = np.zeros(m)
    reduced = cost
    # price passes, lowering and raising in turn, until a round of both
    # leaves the excess no smaller; the best state seen is kept
    best, stalled = (np.inf,), 0
    for raise_under in itertools.cycle((False, True)):
        assign = reduced.argmin(axis=1)
        load = np.bincount(assign, minlength=m)
        excess = int(np.maximum(load - counts, 0).sum())
        if excess < best[0]:
            best, stalled = (excess, v, assign, load), 0
        else:
            stalled += 1
        if not excess or stalled == 2:
            break
        v = v + _price_step(reduced, assign, load, counts, raise_under)
        reduced = cost - v
    excess, v, assign, load = best
    gap = _gap_graph(cost, assign)
    while excess:
        d, pred, root, _ = _dijkstra(_reduced(gap, v), np.flatnonzero(load > counts))
        ends = np.flatnonzero((load < counts) & np.isfinite(d))
        if not ends.size:
            raise SolverError("no augmenting path on the target graph")
        # tree paths meet only on a shared path to their root, so the
        # nearest end of each root gives vertex-disjoint shortest paths
        ends = ends[np.lexsort((d[ends], root[ends]))]
        ends = ends[np.diff(root[ends], prepend=-1) != 0]
        # every tree arc on them becomes tight, so the lowest-index row
        # attaining an arc's gap weight stays at an arg-min when it moves
        v += np.minimum(d, d[ends].max())
        up, head = pred.tolist(), [-1] * m
        for b in ends.tolist():
            while up[b] >= 0:
                head[up[b]], b = b, up[b]
        head = np.array(head)
        rows = np.flatnonzero(head[assign] >= 0)
        src = assign[rows]
        dst = head[src]
        rows = rows[cost[rows, dst] - cost[rows, src] == gap[src, dst]]
        rows = rows[np.unique(assign[rows], return_index=True)[1]]
        assign[rows] = head[assign[rows]]
        used = head >= 0
        used[ends] = True
        load[ends] += 1
        load[root[ends]] -= 1
        excess -= ends.size
        gap[used] = _gap_rows(cost, assign, used)
    return assign, _canonical_duals(gap, v)


def _canonical_duals(gap, v):
    """Shortest distances from target 0 on the gap graph: one Dijkstra under
    weights reduced by potentials v finds the shortest-path tree, and the
    raw gap weights are summed down it in pop order."""
    m = len(v)
    _, pred, _, order = _dijkstra(_reduced(gap, v), [0])
    if (pred[1:] < 0).any():
        raise SolverError("dual recovery failed: disconnected target graph")
    step = gap[pred, np.arange(m)].tolist()
    up, dist = pred.tolist(), [0.0] * m
    for b in order[1:].tolist():
        dist[b] = dist[up[b]] + step[b]
    return np.array(dist)


def _solve_assignment(cost, w_s, counts):
    """Uniform source, target capacities ``counts`` (the target masses in
    units of 1/n): an exact assignment, with the canonical target duals of
    ``_canonical_duals``."""
    n = cost.shape[0]
    assign, v = _assign_to_targets(cost, counts)
    u = cost[np.arange(n), assign] - v[assign]
    slack = cost - u[:, None]
    slack -= v
    if slack.min() < -1e-8 * (1.0 + np.abs(cost).max()):
        raise SolverError(f"dual recovery infeasible by {-slack.min()}")
    i = np.arange(n, dtype=np.int64)
    return i, assign.astype(np.int64), w_s.copy(), u, v


def _solve_highs(cost, w_s, w_t):
    """Optimal value of the transportation LP by HiGHS: the reference that
    tests compare the exact engines against.  No solve calls it."""
    import scipy.sparse as sp  # on first use; see the module docstring
    from scipy.optimize import linprog

    n, m = cost.shape
    rows_a = sp.kron(sp.eye(n, format="csr"), np.ones((1, m)), format="csr")
    rows_b = sp.kron(np.ones((1, n)), sp.eye(m, format="csr"), format="csr")
    A_eq = sp.vstack([rows_a, rows_b], format="csc")
    b_eq = np.concatenate([w_s, w_t])
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise SolverError(f"LP solver failed: {res.message}")
    return res.fun


def solve(mu: DiscreteMeasure, nu: DiscreteMeasure,
          p: float) -> tuple[Coupling, float, DualPotentials]:
    """Exact optimal transport plan, its cost value and dual potentials.

    Returns (coupling, value, duals) with value = sum of mass * cost
    minimized exactly; W_p = value ** (1/p).  Zero-weight support points are
    dropped before solving and reported coupling indices refer to the
    original measures.  One cost matrix on the full supports serves the
    solve (sliced to the kept points), the duals of the dropped points and
    the dual check.
    """
    if len(mu) == 0 or len(nu) == 0:
        raise ValueError("empty measure")
    if mu.dim != nu.dim:
        raise ValueError("ambient dimension mismatch")
    if abs(mu.weights.sum() - nu.weights.sum()) > 1e-9:
        raise ValueError("weight sums differ")
    mu0, keep_s = mu.drop_zero_weights()
    nu0, keep_t = nu.drop_zero_weights()
    full = cost_matrix(mu.points, nu.points, p)
    drop_s = np.flatnonzero(~(mu.weights > 0))
    drop_t = np.flatnonzero(~(nu.weights > 0))
    cost = full[np.ix_(keep_s, keep_t)] if drop_s.size or drop_t.size else full
    n, m = cost.shape
    w_s, w_t = mu0.weights, nu0.weights

    if n == 1 or m == 1:
        i, j, mass, u, v = _solve_direct(cost, w_s, w_t)
    else:
        counts = _integral_multiples(w_t, n) if _uniform(w_s) else None
        if counts is None:
            i, j, mass, u, v = _solve_ssp(cost, w_s, w_t)
        else:
            # an exact unsplit plan, with no mass-scaling artifacts
            i, j, mass, u, v = _solve_assignment(cost, w_s, counts)

    coupling = Coupling(keep_s[i], keep_t[j], mass, mu, nu)
    # extend duals to dropped zero-weight points by c-transform, which is
    # the tightest dual-feasible completion
    u_full = np.empty(len(mu))
    v_full = np.empty(len(nu))
    u_full[keep_s] = u
    v_full[keep_t] = v
    if drop_s.size:
        u_full[drop_s] = (full[np.ix_(drop_s, keep_t)] - v[None, :]).min(axis=1)
    if drop_t.size:
        v_full[drop_t] = (full[:, drop_t] - u_full[:, None]).min(axis=0)
    duals_full = DualPotentials(u_full, v_full, p)
    value = coupling.value(p)
    _check_duals(full, u_full, v_full, coupling)
    dual_value = u @ w_s + v @ w_t
    if abs(value - dual_value) > 1e-8 * (1.0 + abs(value)):
        raise SolverError(f"duality gap {abs(value - dual_value)}")
    return coupling, value, duals_full


def wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    _, value, _ = solve(mu, nu, p)
    return float(value ** (1.0 / p))


# ---------------------------------------------------------------------------
# bottleneck (W_inf) transport
# ---------------------------------------------------------------------------

def maximum_flow(n, tail, head, cap, source, sink):
    """Maximum flow from ``source`` to ``sink`` on nodes ``0..n-1`` by
    Dinic's algorithm (*Soviet Math. Dokl.* 11, 1970), as ``(value,
    flow)``: edge e runs from ``tail[e]`` to ``head[e]`` with capacity
    ``cap[e]``, a Python int of any size, and carries ``flow[e]`` units.

    Each phase layers the nodes by BFS over the arcs with residual
    capacity, then augments along layered paths by a depth-first search
    that moves each node's current-arc pointer past dead arcs, until the
    sink is cut off.  On a unit-capacity bipartite network this is
    Hopcroft-Karp (*SIAM J. Comput.* 2(4), 1973).
    """
    to, res = [], []  # arc 2e is edge e, arc 2e + 1 its reverse
    out = [[] for _ in range(n)]
    for a, b, c in zip(tail, head, cap):
        out[a].append(len(to))
        out[b].append(len(to) + 1)
        to += (b, a)
        res += (c, 0)
    value = 0
    while True:
        layer = [-1] * n
        layer[source] = 0
        queue = [source]
        for a in queue:
            for k in out[a]:
                if res[k] and layer[to[k]] < 0:
                    layer[to[k]] = layer[a] + 1
                    queue.append(to[k])
        if layer[sink] < 0:
            return value, res[1::2]  # a reverse arc holds its edge's flow
        ptr = [0] * n
        path, a = [], source
        while True:
            arcs = out[a]
            while ptr[a] < len(arcs):
                k = arcs[ptr[a]]
                if res[k] and layer[to[k]] == layer[a] + 1:
                    break
                ptr[a] += 1
            else:
                if not path:
                    break
                a = to[path.pop() ^ 1]  # a dead end: retreat one arc
                ptr[a] += 1
                continue
            path.append(k)
            a = to[k]
            if a == sink:
                push = min(res[k] for k in path)
                for k in path:
                    res[k] -= push
                    res[k ^ 1] += push
                value += push
                path, a = [], source


def _unit_bounds(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor and ceiling of ``weight * MASS_SCALE``, at least 1 (every atom
    ships mass, as the bracket's lower bound assumes); the largest atom
    takes up any excess of ``lo.sum()`` or shortfall of ``hi.sum()``."""
    x = np.asarray(weights, dtype=float) * MASS_SCALE
    lo = np.maximum(np.floor(x), 1).astype(np.int64)
    hi = np.maximum(np.ceil(x), 1).astype(np.int64)
    lo[lo.argmax()] -= max(int(lo.sum()) - MASS_SCALE, 0)
    hi[hi.argmax()] += max(MASS_SCALE - int(hi.sum()), 0)
    return lo, hi


def _bounded_plan(allowed, bounds_s, bounds_t):
    """An integer plan ``(i, j, units)`` on the ``allowed`` edges whose row
    and column sums lie in the unit bounds and add up to MASS_SCALE, or
    None if there is none.

    One maximum flow with lower bounds (Ahuja-Magnanti-Orlin, *Network
    Flows*, ch. 6-7): the source feeds each row its ``lo`` units directly
    and the ``MASS_SCALE - lo.sum()`` spare units through a pool that
    gives each row at most ``hi - lo`` more; the columns mirror this into
    the sink, and admitted edges are uncapacitated.  A plan exists exactly
    when the flow saturates the source, at MASS_SCALE units.
    """
    (lo_s, hi_s), (lo_t, hi_t) = bounds_s, bounds_t
    n, m = allowed.shape
    ii, jj = np.nonzero(allowed)
    rows, cols = np.arange(n), np.arange(n, n + m)
    pool_s, pool_t, source, sink = range(n + m, n + m + 4)
    tail = np.concatenate([np.full(n + 1, source), np.full(n, pool_s), ii,
                           cols, cols, [pool_t]])
    head = np.concatenate([rows, [pool_s], rows, n + jj,
                           np.full(m, sink), np.full(m, pool_t), [sink]])
    cap = [*lo_s.tolist(), MASS_SCALE - int(lo_s.sum()), *(hi_s - lo_s).tolist(),
           *[MASS_SCALE] * len(ii),
           *lo_t.tolist(), *(hi_t - lo_t).tolist(), MASS_SCALE - int(lo_t.sum())]
    value, flow = maximum_flow(n + m + 4, tail.tolist(), head.tolist(), cap,
                               source, sink)
    if value != MASS_SCALE:
        return None
    units = np.array(flow[2 * n + 1:2 * n + 1 + len(ii)], dtype=np.int64)
    keep = units > 0
    return ii[keep], jj[keep], units[keep]


def bottleneck_solve(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[Coupling, float]:
    """min over couplings of the max transported distance.

    Binary search over the distinct squared distances inside a certified
    bracket.  A threshold admits the edges with ``d2 <= level * (1 +
    1e-12)`` and is feasible when ``_bounded_plan`` finds a plan on them
    within one MASS_SCALE unit of each weight, by one maximum flow; the
    plan of the lowest feasible probe is returned, in the same units, so
    sums such as 6 * (1/7) match 6/7.  The bracket:

    * below: every row and column of positive weight must ship mass and so
      needs an admitted edge; no level with ``level * (1 + 1e-12) <
      max(max_i min_j d2, max_j min_i d2)`` is feasible;
    * above: a known plan is feasible at its own longest edge, the identity
      permutation (``max_i d2[i, i]``) when both measures are uniform with
      equal support sizes and every edge (``d2.max()``) otherwise.

    A search that never leaves the top returns that plan: the identity,
    with mass 1/n on each pair, or one flow with every edge admitted.
    Feasibility is monotone in the level, so the search returns the same
    level as one over every distinct distance (Burkard, Dell'Amico,
    Martello, *Assignment Problems*, ch. 6).  A flow that finds no plan at
    the top raises ``SolverError``.
    """
    if mu.dim != nu.dim:
        raise ValueError("ambient dimension mismatch")
    mu0, keep_s = mu.drop_zero_weights()
    nu0, keep_t = nu.drop_zero_weights()
    d2 = cost_matrix(mu0.points, nu0.points, 2)
    n, m = d2.shape

    uniform = n == m and _uniform(mu0.weights) and _uniform(nu0.weights)
    lower = max(d2.min(axis=1).max(), d2.min(axis=0).max())
    upper = d2.diagonal().max() if uniform else d2.max()
    bounds = _unit_bounds(mu0.weights), _unit_bounds(nu0.weights)

    def plan_at(level):
        return _bounded_plan(d2 <= level * (1 + 1e-12), *bounds)

    levels = np.unique(d2[(d2 * (1 + 1e-12) >= lower) & (d2 <= upper)])
    lo, hi, plan = 0, len(levels) - 1, None  # levels[hi] = upper is feasible
    while lo < hi:
        mid = (lo + hi) // 2
        found = plan_at(levels[mid])
        if found is None:
            lo = mid + 1
        else:
            hi, plan = mid, found
    distance = float(np.sqrt(levels[hi]))
    if plan is None and not uniform:
        plan = plan_at(levels[hi])
        if plan is None:
            raise SolverError(
                f"no admissible plan on a {n}x{m} instance at level {distance!r}, "
                f"which admits every edge")
    if plan is None:
        i = j = np.arange(n)
        mass = np.full(n, 1.0 / n)
    else:
        i, j, units = plan
        mass = units / MASS_SCALE
    return Coupling(keep_s[i], keep_t[j], mass, mu, nu), distance


# ---------------------------------------------------------------------------
# c-transform
# ---------------------------------------------------------------------------

def c_transform(phi_values: np.ndarray, source: DiscreteMeasure,
                target, p: float) -> np.ndarray:
    """phi^c(y) = min over source points of ||x_i - y||^p - phi(x_i).

    ``target`` is a DiscreteMeasure or a raw (m, d) point array.
    """
    phi_values = np.asarray(phi_values, dtype=float)
    if not np.isfinite(phi_values).all():
        raise ValueError("potential values must be finite")
    pts = target.points if isinstance(target, DiscreteMeasure) else np.atleast_2d(np.asarray(target, dtype=float))
    cost = cost_matrix(source.points, pts, p)
    return (cost - phi_values[:, None]).min(axis=0)
