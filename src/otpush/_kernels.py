"""The two hot NumPy kernels.

* ``ssp_flow`` — successive-shortest-path min-cost flow on a dense bipartite
  transportation instance with integer supplies/demands and float costs.
  Ties between optimal plans are settled by a fixed pop order (smallest
  label, sources before sinks, lower index first) and a fixed predecessor
  rule (first source in pop order), so a plan and its duals are a function
  of the instance alone.  Each pop costs a handful of NumPy calls on rows of
  one clamped reduced-cost matrix built per augmentation.
* ``ball_activity_2d`` — for a max-affine function and a batch of query
  points, bracket the set of affine pieces active somewhere in the closed
  ball of radius ``eta`` around each point, between the pieces active at
  the center and a pairwise-slack upper set (squared slope-diameter
  brackets plus an ambiguity flag).  It serves ``convex_analysis``'s
  one-point queries (``diam_subdiff_ball``), which resolve the ambiguous
  points exactly from the pieces' cells; the grid scans mark exact cell
  offsets instead.  Both take diameters from the same ``pair_dist2``
  values through ``active_diam2``.
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
    augmentation is one Dijkstra pass (Ahuja, Magnanti, Orlin, *Network
    Flows*, ch. 9).  Returns ``(flow, u, v, status)`` with ``status`` 0 on
    success, 1 if the iteration cap was hit, 2 if no deficient sink is
    reachable (supply exceeds demand); on 1 and 2 the state after the last
    completed augmentation is returned.  Dual feasibility: u[i] + v[j] <=
    cost[i, j] with equality on every arc carrying flow.

    Tied instances have many optimal plans; two rules pick one.

    * Pop order: smallest label first, sources before sinks on ties, lower
      index first within each side.  Popping a source never gives another
      source a label, so every source holding the current minimum label is
      popped as one batch.  A popped sink relaxes only the sources carrying
      flow into it, a short scalar loop; the labels it sets go on a heap
      keyed (label, index).
    * Predecessors: a sink's predecessor is the first source in pop order
      (batch after batch, ascending index within a batch) whose label plus
      clamped reduced cost equals the sink's label.  It is the source whose
      relaxation first set that label, so it is recovered only for the
      sinks on the augmenting path, after the search.

    The clamped reduced costs ``red = max((cost - u) - v, 0)`` are built
    once per augmentation.  A batch at label ``d`` relaxes the sinks
    with one ``min(label, red[batch].min(0) + d)``, with inf added on the
    popped sinks: rounding is monotone, so that is the minimum over the
    batch of ``d + red``.  Clamping means no relaxation sets a label below
    the popped node's own, so labels are final when popped.  A node that is
    not popped has a label at least the target's, which is what it counts
    as in the potential update.
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
    red = np.empty((n, m))

    iters = 0
    while rem_s.sum() > 0:
        iters += 1
        if iters > max_iters:
            return flow, u, v, 1
        np.subtract(cost, u[:, None], out=red)
        red -= v
        np.maximum(red, 0.0, out=red)
        u_list = u.tolist()
        v_list = v.tolist()
        dist_s = [_INF] * n
        done_s = [False] * n
        prev_s = [-1] * n
        order = []  # sources in pop order
        label = np.full(m, _INF)  # labels of the sinks not yet popped
        shut = np.zeros(m)  # inf on the popped sinks
        dist_t = np.full(m, _INF)  # labels of the popped sinks
        deficient = (rem_d > 0).tolist()
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
                order += batch
                if len(batch) == 1:
                    nd = red[batch[0]] + d
                else:
                    nd = np.minimum.reduce(red.take(batch, axis=0))
                    nd += d
                nd += shut
                np.minimum(label, nd, out=label)
                batch = None
            while heap and done_s[heap[0][1]]:
                heapq.heappop(heap)
            j = int(label.argmin())
            dj = float(label[j])
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
            dist_t[j] = dj
            if deficient[j]:
                target = j
                break
            label[j] = _INF
            shut[j] = _INF
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

        dist_s = np.array(dist_s)
        rank = np.full(n, n)  # pop rank of each source, n if not popped
        rank[order] = np.arange(len(order))
        path = []
        j = target
        bottleneck = rem_d[target]
        while True:
            # sources not popped have label inf, or above the target's
            hit = red[:, j] + dist_s == dist_t[j]
            i = int(np.where(hit, rank, n).argmin())
            path.append((i, j))
            jprev = prev_s[i]
            if jprev < 0:
                bottleneck = min(bottleneck, rem_s[i])
                break
            bottleneck = min(bottleneck, flow[i, jprev])
            path.append((i, jprev))
            j = jprev

        # Johnson-style update keeps residual reduced costs >= 0
        dt = dist_t[target]
        u -= np.minimum(dist_s, dt)
        v += np.minimum(dist_t, dt)
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
# slope diameters over balls for max-affine functions (2D)
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
