"""Exact discrete-discrete optimal transport for p-costs.

Primal plan, dual potentials and W_q values come from exact combinatorial
solvers; no entropic regularization anywhere.  Masses are scaled to int64
units (scale 1e12) so flows are integral; costs stay in double precision and
a complementary-slackness audit runs after every solve.

Engines
-------
* ``direct``     — one of the marginals is a Dirac: the plan is forced.
* ``ssp``        — in-house successive-shortest-paths min-cost flow
                   (NumPy kernel, see ``_kernels``).
* ``assignment`` — uniform sources whose target masses are integer
                   multiples of 1/n: successive shortest paths on the
                   K-node target graph, each row moved whole, so the plan
                   is an exact unsplit assignment; target duals are the
                   shortest distances from target 0 on that graph.
* ``highs``      — transportation LP via ``scipy.optimize.linprog`` for
                   large instances with general weights.  ``scipy.optimize``
                   is imported on first use: its import costs about
                   0.26 s and 17 MiB of resident memory, which runs that
                   never reach this engine (no benchmark workload does)
                   need not pay.

``engine="auto"`` routes between them by instance shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import (dijkstra, maximum_bipartite_matching, maximum_flow,
                                  shortest_path)

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
_FLOW_SCALE = 10 ** 9  # max-flow feasibility checks run in int32-safe units


def __getattr__(name):
    # The traced benchmark patches ``linear_sum_assignment`` here although
    # nothing calls it; resolve it on first access only, so that importing
    # this module does not import ``scipy.optimize``.  This hook goes when
    # the benchmark reads the product's own trace (ROADMAP direction 2).
    if name == "linear_sum_assignment":
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment
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
        diff = self.source.points[self.i] - self.target.points[self.j]
        active = self.mass > 0
        if not active.any():
            return 0.0
        return float(np.sqrt((diff[active] ** 2).sum(-1).max()))

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
    supply = _scaled_units(w_s, MASS_SCALE)
    demand = _scaled_units(w_t, MASS_SCALE)
    n, m = cost.shape
    flow, u, v, status = _kernels.ssp_flow(cost, supply, demand, max_iters=10 * (n + m) + 64)
    if status == 1:
        raise SolverError("iteration cap hit")
    if status == 2:
        raise SolverError("infeasible scaled instance")
    ii, jj = np.nonzero(flow)
    mass = flow[ii, jj] / MASS_SCALE
    return ii.astype(np.int64), jj.astype(np.int64), mass, u, v


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


def _dense_graph(m):
    """An m-node CSR graph storing all m * m arcs, so that ``csgraph`` keeps
    zero-weight arcs as edges (a dense array input would drop them)."""
    return sp.csr_array((np.zeros(m * m), np.tile(np.arange(m, dtype=np.int32), m),
                         np.arange(0, m * m + 1, m, dtype=np.int32)), shape=(m, m))


def _set_reduced(graph, gap, v):
    """Write gap[a, b] + v[a] - v[b], clamped at 0 against rounding, into
    the arc weights of ``graph``."""
    W = graph.data.reshape(gap.shape)
    np.add(gap, v[:, None], out=W)
    W -= v
    np.maximum(W, 0.0, out=W)
    return graph


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
    graph = _dense_graph(m)
    while excess:
        d, pred, root = dijkstra(_set_reduced(graph, gap, v), min_only=True,
                                 indices=np.flatnonzero(load > counts),
                                 return_predecessors=True)
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
    return assign, _canonical_duals(gap, v, graph)


def _canonical_duals(gap, v, graph):
    """Shortest distances from target 0 on the gap graph: one Dijkstra under
    weights reduced by potentials v finds the shortest-path tree, and the
    raw gap weights are summed down it."""
    m = len(v)
    _, pred = shortest_path(_set_reduced(graph, gap, v), method="D", indices=0,
                            return_predecessors=True)
    if (pred[1:] < 0).any():
        raise SolverError("dual recovery failed: disconnected target graph")
    parent = np.maximum(pred, 0)
    step = gap[parent, np.arange(m)]
    step[0] = 0.0
    dist = np.zeros(m)
    while True:
        down = dist[parent] + step
        if np.array_equal(down, dist):
            return dist
        dist = down


def _solve_assignment(cost, w_s, w_t):
    """Uniform source, integer-multiple targets: an exact assignment, with
    the canonical target duals of ``_canonical_duals``."""
    n = cost.shape[0]
    counts = _integral_multiples(w_t, n)
    if counts is None or np.abs(w_s - 1.0 / n).max() > 1e-12:
        raise SolverError("assignment engine needs uniform source and integral targets")
    assign, v = _assign_to_targets(cost, counts)
    u = cost[np.arange(n), assign] - v[assign]
    slack = cost - u[:, None]
    slack -= v
    if slack.min() < -1e-8 * (1.0 + np.abs(cost).max()):
        raise SolverError(f"dual recovery infeasible by {-slack.min()}")
    i = np.arange(n, dtype=np.int64)
    return i, assign.astype(np.int64), w_s.copy(), u, v


def _forest_masses(ii, jj, w_s, w_t):
    """Exact masses for a plan supported on a forest, by leaf elimination.

    LP solvers return marginals only to their own feasibility tolerance;
    a basic solution's support is a forest, on which the masses satisfying
    the marginal constraints are unique and recoverable at float precision.
    """
    from collections import deque

    n, m = len(w_s), len(w_t)
    K = len(ii)
    row_set = [set() for _ in range(n)]
    col_set = [set() for _ in range(m)]
    for k in range(K):
        row_set[ii[k]].add(k)
        col_set[jj[k]].add(k)
    rem_r = np.array(w_s, dtype=float)
    rem_c = np.array(w_t, dtype=float)
    mass = np.zeros(K)
    q = deque((0, a) for a in range(n) if len(row_set[a]) == 1)
    q.extend((1, b) for b in range(m) if len(col_set[b]) == 1)
    done = 0
    while q:
        side, node = q.popleft()
        entries = row_set[node] if side == 0 else col_set[node]
        if len(entries) != 1:
            continue
        k = next(iter(entries))
        a, b = int(ii[k]), int(jj[k])
        mass[k] = max(rem_r[a] if side == 0 else rem_c[b], 0.0)
        rem_r[a] -= mass[k]
        rem_c[b] -= mass[k]
        row_set[a].discard(k)
        col_set[b].discard(k)
        done += 1
        if len(row_set[a]) == 1:
            q.append((0, a))
        if len(col_set[b]) == 1:
            q.append((1, b))
    if done != K:
        raise SolverError("plan support contains a cycle")
    return mass


def _solve_highs(cost, w_s, w_t):
    from scipy.optimize import linprog  # on first use; see the module docstring

    n, m = cost.shape
    rows_a = sp.kron(sp.eye(n, format="csr"), np.ones((1, m)), format="csr")
    rows_b = sp.kron(np.ones((1, n)), sp.eye(m, format="csr"), format="csr")
    A_eq = sp.vstack([rows_a, rows_b], format="csc")
    b_eq = np.concatenate([w_s, w_t])
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise SolverError(f"LP solver failed: {res.message}")
    plan = res.x.reshape(n, m)
    duals = np.asarray(res.eqlin.marginals, dtype=float)
    u, v = duals[:n].copy(), duals[n:].copy()
    slack = cost - u[:, None] - v[None, :]
    if slack.min() < -1e-8 * (1.0 + np.abs(cost).max()):
        u, v = -u, -v  # sign convention differs across scipy versions
    ii, jj = np.nonzero(plan > 1e-15)
    ii = ii.astype(np.int64)
    jj = jj.astype(np.int64)
    mass = _forest_masses(ii, jj, w_s, w_t)
    keep = mass > 0
    return ii[keep], jj[keep], mass[keep], u, v


def solve(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float,
          engine: str = "auto") -> tuple[Coupling, float, DualPotentials]:
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
    drop_s = np.setdiff1d(np.arange(len(mu)), keep_s)
    drop_t = np.setdiff1d(np.arange(len(nu)), keep_t)
    cost = full[np.ix_(keep_s, keep_t)] if drop_s.size or drop_t.size else full
    n, m = cost.shape
    w_s, w_t = mu0.weights, nu0.weights

    if engine == "auto":
        if n == 1 or m == 1:
            engine = "direct"
        elif np.abs(w_s - 1.0 / n).max() <= 1e-12 and _integral_multiples(w_t, n) is not None:
            # exact unsplit plans (no mass-scaling artifacts); preferred
            # whenever the structure allows it
            engine = "assignment"
        elif n * m <= 120_000:
            engine = "ssp"
        else:
            engine = "highs"

    if engine == "direct":
        if n != 1 and m != 1:
            raise SolverError("direct engine needs a Dirac marginal")
        i, j, mass, u, v = _solve_direct(cost, w_s, w_t)
    elif engine == "ssp":
        try:
            i, j, mass, u, v = _solve_ssp(cost, w_s, w_t)
        except SolverError:
            i, j, mass, u, v = _solve_highs(cost, w_s, w_t)
    elif engine == "assignment":
        i, j, mass, u, v = _solve_assignment(cost, w_s, w_t)
    elif engine == "highs":
        i, j, mass, u, v = _solve_highs(cost, w_s, w_t)
    else:
        raise ValueError(f"unknown engine {engine!r}")

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


def wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float, engine: str = "auto") -> float:
    _, value, _ = solve(mu, nu, p, engine=engine)
    return float(value ** (1.0 / p))


# ---------------------------------------------------------------------------
# bottleneck (W_inf) transport
# ---------------------------------------------------------------------------

def _matching_feasible(adj: np.ndarray) -> bool:
    """Perfect matching existence on a square boolean adjacency."""
    graph = sp.csr_matrix(adj)
    match = maximum_bipartite_matching(graph, perm_type="column")
    return bool((match >= 0).all())


def _flow_feasible(adj: np.ndarray, supply_units, demand_units) -> bool:
    n, m = adj.shape
    total = int(supply_units.sum())
    src, snk = n + m, n + m + 1
    ii, jj = np.nonzero(adj)
    rows = np.concatenate([np.full(n, src), ii, n + np.arange(m)])
    cols = np.concatenate([np.arange(n), n + jj, np.full(m, snk)])
    caps = np.concatenate([supply_units, np.full(len(ii), total), demand_units])
    graph = sp.csr_matrix((caps, (rows, cols)), shape=(n + m + 2, n + m + 2),
                          dtype=np.int32)
    return maximum_flow(graph, src, snk).flow_value == total


def bottleneck_solve(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[Coupling, float]:
    """min over couplings of the max transported distance.

    Binary search over the distinct squared distances inside a certified
    bracket, with a feasibility check per threshold: Hopcroft-Karp matching
    when both measures are uniform with equal support sizes, max-flow on
    scaled integer masses otherwise.  A threshold admits the edges with
    ``d2 <= level * (1 + 1e-12)``.  The bracket's two certificates:

    * below: every row and column that must ship mass needs an admitted
      edge, so no level with ``level * (1 + 1e-12) < max(max_i min_j d2,
      max_j min_i d2)`` is feasible;
    * above: a known plan is feasible at its own longest edge, the identity
      permutation (``max_i d2[i, i]``) in the uniform square case and every
      edge (``d2.max()``) otherwise.

    Feasibility is monotone in the level, so the search returns the same
    level as one over every distinct distance (Burkard, Dell'Amico,
    Martello, *Assignment Problems*, ch. 6).  The returned coupling is an
    admissible plan at that level, produced by a masked min-cost-flow solve.
    """
    if mu.dim != nu.dim:
        raise ValueError("ambient dimension mismatch")
    mu0, keep_s = mu.drop_zero_weights()
    nu0, keep_t = nu.drop_zero_weights()
    d2 = cost_matrix(mu0.points, nu0.points, 2)
    n, m = d2.shape

    uniform = (n == m and np.abs(mu0.weights - 1.0 / n).max() <= 1e-12
               and np.abs(nu0.weights - 1.0 / n).max() <= 1e-12)
    if uniform:
        lower = max(d2.min(axis=1).max(), d2.min(axis=0).max())
        upper = d2.diagonal().max()
    else:
        supply_units = _scaled_units(mu0.weights, _FLOW_SCALE)
        demand_units = _scaled_units(nu0.weights, _FLOW_SCALE)
        # a row or column rounded to zero units ships nothing
        lower = max(d2[supply_units > 0].min(axis=1).max(),
                    d2[:, demand_units > 0].min(axis=0).max())
        upper = d2.max()

    def feasible(level):
        adj = d2 <= level * (1 + 1e-12)
        if uniform:
            return _matching_feasible(adj)
        return _flow_feasible(adj, supply_units, demand_units)

    levels = np.unique(d2[(d2 * (1 + 1e-12) >= lower) & (d2 <= upper)])
    lo, hi = 0, len(levels) - 1  # levels[hi] = upper is feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    level = levels[hi]

    # build an admissible plan supported on the allowed edges only
    allowed = d2 <= level * (1 + 1e-12)
    if uniform:
        # the matching itself is an exact unsplit plan (mass 1/n per pair);
        # integer mass scaling could otherwise strand a rounding unit on a
        # graph whose only admissible plan is that single matching
        match = maximum_bipartite_matching(sp.csr_matrix(allowed),
                                           perm_type="column")
        i = np.arange(n)
        j = match.astype(np.int64)
        mass = np.full(n, 1.0 / n)
    else:
        # forbid edges above the threshold with a penalty exceeding any
        # achievable admissible total
        penalty = (d2.max() + 1.0) * 1e14
        masked = np.where(allowed, d2, penalty)
        try:
            i, j, mass, _, _ = _solve_ssp(masked, mu0.weights, nu0.weights)
        except SolverError:
            i, j, mass, _, _ = _solve_highs(masked, mu0.weights, nu0.weights)
        if not allowed[i, j].all():
            i, j, mass, _, _ = _solve_highs(masked, mu0.weights, nu0.weights)
    if not allowed[i, j].all():
        raise SolverError("admissible plan construction used a forbidden edge")
    coupling = Coupling(keep_s[i], keep_t[j], mass, mu, nu)
    return coupling, float(np.sqrt(level))


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
