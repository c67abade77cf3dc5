"""Exact discrete-discrete optimal transport for p-costs.

Primal plan, dual potentials and W_q values come from exact combinatorial
solvers; no entropic regularization anywhere.  Masses are scaled to int64
units (scale 1e12) so flows are integral; costs stay in double precision and
a complementary-slackness audit runs after every solve.

Engines
-------
* ``direct``     — one of the marginals is a Dirac: the plan is forced.
* ``ssp``        — in-house successive-shortest-paths min-cost flow
                   (NumPy kernel, see ``_kernels``).  A kernel failure
                   (iteration cap or unroutable units) raises
                   ``SolverError``; no other engine re-solves.
* ``assignment`` — uniform sources whose target masses are integer
                   multiples of 1/n: successive shortest paths on the
                   K-node target graph, each row moved whole, so the plan
                   is an exact unsplit assignment; target duals are the
                   shortest distances from target 0 on that graph.
* ``highs``      — transportation LP via ``scipy.optimize.linprog`` for
                   large instances with general weights.

``engine="auto"`` routes between them by instance shape.  HiGHS is reached
only through ``solve``; ``bottleneck_solve`` builds its plans with the
matching or the SSP kernel and raises ``SolverError`` when they fail.

Only NumPy is imported here: the graph searches are in-house, and
``_solve_highs`` imports ``scipy.sparse`` and ``scipy.optimize`` on first
use (about 0.65 s and 45 MiB of resident memory), which runs that never
reach that engine need not pay.
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
    # ``shortest_path`` and ``maximum_flow`` here although nothing calls
    # them; resolve them on first access only, so that importing this
    # module does not import SciPy.  This hook goes when the benchmark
    # reads the product's own trace (ROADMAP direction 3).
    if name == "linear_sum_assignment":
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment
    if name in ("shortest_path", "maximum_flow"):
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


def _ssp_units(cost, supply, demand):
    """Integer min-cost flow of ``supply`` into ``demand`` units by the SSP
    kernel, as ``(flow, u, v)``; raises ``SolverError`` if the kernel fails."""
    n, m = cost.shape
    cap = 10 * (n + m) + 64
    flow, u, v, status = _kernels.ssp_flow(cost, supply, demand, max_iters=cap)
    if status:
        reason = ("iteration cap hit" if status == 1
                  else "no sink with demand left is reachable")
        raise SolverError(
            f"SSP failed on a {n}x{m} instance: {reason} (status {status}, "
            f"cap 10(n+m)+64 = {cap}); {int(supply.sum() - flow.sum())} of "
            f"{int(supply.sum())} units unrouted")
    return flow, u, v


def _solve_ssp(cost, w_s, w_t):
    flow, u, v = _ssp_units(cost, _scaled_units(w_s, MASS_SCALE),
                            _scaled_units(w_t, MASS_SCALE))
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
    drop_s = np.flatnonzero(~(mu.weights > 0))
    drop_t = np.flatnonzero(~(nu.weights > 0))
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
        i, j, mass, u, v = _solve_ssp(cost, w_s, w_t)
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

def maximum_bipartite_matching(adj: np.ndarray) -> np.ndarray:
    """Maximum matching on a boolean (n, m) adjacency by Hopcroft-Karp
    (*SIAM J. Comput.* 2(4), 1973): the column matched to each row, or -1.

    The same matching as ``scipy.sparse.csgraph.maximum_bipartite_matching``
    with ``perm_type="column"``, by SciPy's order: a greedy pass gives each
    row its first free column; each phase layers the rows by BFS from the
    free rows (a free column is one layer past its row), then from each
    free row a LIFO search, expanding a row at most once per phase, pushes
    every next-layer row in adjacency order and augments at the first free
    column one layer on.
    """
    n, m = adj.shape
    flat = np.flatnonzero(adj)  # a 2D np.nonzero takes about 10x as long
    cut = np.searchsorted(flat, np.arange(n + 1) * m).tolist()
    cols = (flat % m).tolist()
    nbrs = [cols[cut[k]:cut[k + 1]] for k in range(n)]
    x, y = [-1] * n, [n] * m  # y[c] == n: column c is free
    for k, row in enumerate(nbrs):
        for c in row:
            if y[c] == n:
                x[k], y[c] = c, k
                break
    inf = n + 1
    while True:
        free = [k for k in range(n) if x[k] < 0]
        # layers of the rows; dist[n] is the layer of the free columns
        dist = [inf if c >= 0 else 0 for c in x] + [inf]
        queue = list(free)
        for k in queue:
            if dist[k] < dist[n]:
                for c in nbrs[k]:
                    if dist[y[c]] == inf:
                        dist[y[c]] = dist[k] + 1
                        queue.append(y[c])
        if dist[n] == inf:
            return np.array(x)
        parent = [-1] * n
        for k in free:
            stack = [k]
            while stack:
                r = stack.pop()
                if dist[r] == inf:
                    continue
                layer, dist[r] = dist[r] + 1, inf
                for c in nbrs[r]:
                    u = y[c]
                    if dist[u] == layer and u < n:
                        parent[u] = r
                        stack.append(u)
                    elif dist[u] == layer:
                        while r >= 0:  # flip the path back to k
                            x[r], y[c], c = c, r, x[r]
                            r = parent[r]
                        stack.clear()
                        break


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
    """``(i, j, mass, stray)``: an integer plan with marginals in the unit
    bounds, by one SSP solve on 0/1 costs (0 on admitted edges), and the
    ``stray`` mass it puts on cost-1 edges.  An atom with ``hi > lo``
    gets a second row (column) of ``hi - lo`` units that may also go to a
    dummy column (come from a dummy row) holding the spare units, so
    ``stray == 0`` exactly when an admissible plan exists.  Costs, labels
    and potentials are small integers: no rounding picks the edges."""
    (lo_s, hi_s), (lo_t, hi_t) = bounds_s, bounds_t
    n, m = allowed.shape
    rows = np.concatenate([np.arange(n), np.flatnonzero(hi_s > lo_s)])
    cols = np.concatenate([np.arange(m), np.flatnonzero(hi_t > lo_t)])
    cost = np.ones((len(rows) + 1, len(cols) + 1))
    cost[:-1, :-1] = ~allowed[np.ix_(rows, cols)]
    cost[n:-1, -1] = 0.0
    cost[-1, m:-1] = 0.0
    supply = np.concatenate([lo_s, (hi_s - lo_s)[rows[n:]],
                             [hi_t.sum() - MASS_SCALE]])
    demand = np.concatenate([lo_t, (hi_t - lo_t)[cols[m:]],
                             [hi_s.sum() - MASS_SCALE]])
    flow, _, _ = _ssp_units(cost, supply, demand)
    plan = np.zeros((n, m), dtype=np.int64)
    np.add.at(plan, (rows[:, None], cols[None, :]), flow[:-1, :-1])
    i, j = np.nonzero(plan)
    return i, j, plan[i, j] / MASS_SCALE, flow[cost > 0].sum() / MASS_SCALE


def bottleneck_solve(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[Coupling, float]:
    """min over couplings of the max transported distance.

    Binary search over the distinct squared distances inside a certified
    bracket, with a feasibility check per threshold, which admits the
    edges with ``d2 <= level * (1 + 1e-12)``: Hopcroft-Karp matching when
    both measures are uniform with equal support sizes, else
    ``_bounded_plan``, which asks for a plan on admitted edges within one
    MASS_SCALE unit of each weight; the plan comes from the same check, in
    the same units, so sums such as 6 * (1/7) match 6/7.  The bracket:

    * below: every row and column of positive weight must ship mass and so
      needs an admitted edge; no level with ``level * (1 + 1e-12) <
      max(max_i min_j d2, max_j min_i d2)`` is feasible;
    * above: a known plan is feasible at its own longest edge, the identity
      permutation (``max_i d2[i, i]``) in the uniform square case and every
      edge (``d2.max()``) otherwise.

    Feasibility is monotone in the level, so the search returns the same
    level as one over every distinct distance (Burkard, Dell'Amico,
    Martello, *Assignment Problems*, ch. 6).  A plan on a forbidden edge
    raises ``SolverError``.
    """
    if mu.dim != nu.dim:
        raise ValueError("ambient dimension mismatch")
    mu0, keep_s = mu.drop_zero_weights()
    nu0, keep_t = nu.drop_zero_weights()
    d2 = cost_matrix(mu0.points, nu0.points, 2)
    n, m = d2.shape

    uniform = (n == m and np.abs(mu0.weights - 1.0 / n).max() <= 1e-12
               and np.abs(nu0.weights - 1.0 / n).max() <= 1e-12)
    lower = max(d2.min(axis=1).max(), d2.min(axis=0).max())
    if uniform:
        upper = d2.diagonal().max()
    else:
        bounds = _unit_bounds(mu0.weights), _unit_bounds(nu0.weights)
        upper = d2.max()

    def feasible(level):
        adj = d2 <= level * (1 + 1e-12)
        if uniform:
            return bool((maximum_bipartite_matching(adj) >= 0).all())
        return _bounded_plan(adj, *bounds)[3] == 0

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
        i = np.arange(n)
        j = maximum_bipartite_matching(allowed)
        mass = np.full(n, 1.0 / n)
        stray = float(mass[~allowed[i, j]].sum())
    else:
        i, j, mass, stray = _bounded_plan(allowed, *bounds)
    distance = float(np.sqrt(level))
    if stray:
        raise SolverError(
            f"no admissible plan on a {n}x{m} instance at level {distance!r}: "
            f"mass {stray!r} sits on forbidden edges")
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
