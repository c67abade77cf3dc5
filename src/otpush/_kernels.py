"""The two hot NumPy kernels.

* ``ssp_flow`` — successive-shortest-path min-cost flow on a dense bipartite
  transportation instance with integer supplies/demands and float costs.
* ``ball_activity_2d`` — for a max-affine function and a batch of query
  points, bracket the set of affine pieces active somewhere in the closed
  ball of radius ``eta`` around each point, between the pieces active at
  the center and a pairwise-slack upper set (squared slope-diameter
  brackets plus an ambiguity flag).  ``convex_analysis`` resolves the
  ambiguous points exactly from the pieces' cells, taking diameters from
  the same ``pair_dist2`` values through ``active_diam2``.
"""

from __future__ import annotations

import heapq

import numpy as np

_INF = np.inf

# perfbench/child.py records this in its environment block.
NUMBA_ACTIVE = False


# ---------------------------------------------------------------------------
# successive shortest paths on a dense bipartite graph
# ---------------------------------------------------------------------------

def ssp_flow(cost, supply, demand, *, max_iters):
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


# ---------------------------------------------------------------------------
# ball activity bracketing for max-affine functions (2D scans)
# ---------------------------------------------------------------------------

def pair_dist2(slopes):
    """Squared distances between every two slopes (k, k): every 2D ball-scan
    diameter is the square root of one of these values."""
    return ((slopes[:, None, :] - slopes[None, :, :]) ** 2).sum(-1)


def active_diam2(active, pair_d2):
    """Squared diameter of the slopes marked in each column of ``active``
    (k, npts), read from ``pair_d2`` one pair of pieces at a time."""
    k, npts = active.shape
    out = np.zeros(npts)
    for a in range(k):
        for b in range(a + 1, k):
            both = active[a] & active[b]
            np.maximum(out, pair_d2[a, b], out=out, where=both)
    return out


def ball_activity_2d(slopes, intercepts, points, eta, tol):
    """For each query point, bracket the active-slope set over B(x, eta).

    Upper set U: pieces i whose best slack against every j over the ball is
    >= -tol, using max over the ball of (f_i - f_j) = value gap at the
    center + eta * |a_i - a_j|.  Lower set L: pieces within tol of the max
    at the center itself, which are active in every ball around it.
    Returns squared diameters of both slope sets and a flag marking points
    where the brackets disagree beyond tol; the caller resolves those from
    exact cell geometry.

    Works on one piece's row at a time: NumPy reductions along a short last
    axis are slow, while max, comparisons and the pairwise differences are
    exact, so the brackets equal those of a whole-matrix formulation bit
    for bit.
    """
    slopes = np.asarray(slopes, dtype=np.float64)
    intercepts = np.asarray(intercepts, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    eta = float(eta)
    tol = float(tol)
    k = slopes.shape[0]
    pair_d2 = pair_dist2(slopes)
    pair_gap = eta * np.sqrt(pair_d2)

    vals = points @ slopes.T
    vals += intercepts
    vals = np.ascontiguousarray(vals.T)  # (k, npts)
    in_upper = np.ones(vals.shape, dtype=bool)
    for a in range(k):
        for b in range(a + 1, k):
            diff = vals[a] - vals[b]  # vals[b] - vals[a] is exactly -diff
            in_upper[a] &= (diff + pair_gap[a, b]) >= -tol
            in_upper[b] &= (pair_gap[b, a] - diff) >= -tol

    best = vals[0].copy()
    for a in range(1, k):
        np.maximum(best, vals[a], out=best)
    in_lower = vals >= best - tol

    diam2_hi = active_diam2(in_upper, pair_d2)
    diam2_lo = active_diam2(in_lower, pair_d2)
    ambiguous = (np.sqrt(diam2_hi) - np.sqrt(diam2_lo)) > tol
    return diam2_lo, diam2_hi, ambiguous
