"""Span recording for the traced benchmark run.

The recorder wraps functions from the outside: it rebinds a module (or
class) attribute to a wrapper that records a span per call.  A wrapper only
sees calls that look the name up where it was rebound, so every name is
patched in the module whose code calls it.  ``pushforward`` binds ``solve``
at import, for example, so ``otpush.discrete_ot.solve`` alone would miss the
potential fits.

Spans are kept in memory and reduced to per-layer figures when the child
process ends.  A span's self time is its duration minus the durations of its
direct children; self times of all spans under the root add up to the root's
duration, which is how the traced run accounts for ``run_s``.
"""

from __future__ import annotations

import functools
import importlib
import os
import time


class Recorder:
    """In-memory span list plus the patches that feed it."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` wrapped so each call records a span called ``name``.

        ``attrs(args, kwargs, result)`` returns counters stored on the span;
        it runs after the span is closed.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"name": name, "parent": stack[-1] if stack else None,
                   "failed": False}
            stack.append(len(spans))
            spans.append(rec)
            rec["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec["failed"] = True
                raise
            finally:
                rec["t1"] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def patch(self, target: str, name: str, attrs=None) -> None:
        """Rebind ``module.attr`` or ``module.Class.attr`` to a recording wrapper."""
        module_name, _, attr = target.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError:
            module_name, _, cls = module_name.rpartition(".")
            owner = getattr(importlib.import_module(module_name), cls)
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))


def _size_of_path(arg_index):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[arg_index])}
    return attrs


def _solve_cells(args, kwargs, result):
    return {"cells": len(args[0]) * len(args[1])}


def _ball_points(args, kwargs, result):
    return {"points": len(args[2]), "ambiguous": int(result[2].sum())}


def _declined(args, kwargs, result):
    return {"declined": result is None}


# (patched name, span name, counters).  The span name's prefix before the
# first dot is the layer its self time is charged to; ``experiments.io`` and
# ``experiments.sample`` are layers of their own.
PATCHES = (
    ("otpush.experiments.wasserstein", "discrete_ot.wasserstein", None),
    ("otpush.experiments.bottleneck_solve", "discrete_ot.bottleneck", None),
    ("otpush.discrete_ot.solve", "discrete_ot.solve", _solve_cells),
    ("otpush.pushforward.solve", "discrete_ot.solve", _solve_cells),
    ("otpush.discrete_ot._solve_assignment", "discrete_ot.assignment", None),
    ("otpush.discrete_ot._solve_ssp", "discrete_ot.ssp", None),
    ("otpush.discrete_ot._solve_highs", "discrete_ot.highs", None),
    ("otpush.discrete_ot._solve_direct", "discrete_ot.direct", None),
    ("otpush.discrete_ot.linear_sum_assignment", "discrete_ot.lsap", None),
    ("otpush.discrete_ot.shortest_path", "discrete_ot.shortest_path", None),
    ("otpush.discrete_ot.maximum_bipartite_matching", "discrete_ot.matching",
     None),
    ("otpush.discrete_ot.maximum_flow", "discrete_ot.max_flow", None),
    ("otpush._kernels.ssp_flow", "kernels.ssp_flow", None),
    ("otpush._kernels.ball_activity_2d", "kernels.ball_activity_2d",
     _ball_points),
    ("otpush.convex_analysis.integral_diam_estimate",
     "convex_analysis.integral_diam_estimate", None),
    ("otpush.convex_analysis.covering_number_sigma",
     "convex_analysis.covering_number_sigma", None),
    ("otpush.convex_analysis.verify_lemma_diam_l1",
     "convex_analysis.verify_lemma_diam_l1", None),
    ("otpush.experiments.potential_from_discrete_ot",
     "pushforward.potential_from_discrete_ot", None),
    ("otpush.pushforward._max_margin_duals", "pushforward.max_margin",
     _declined),
    ("otpush.experiments.lot_interpolant", "pushforward.lot_interpolant", None),
    ("otpush.experiments.pushforward_tmap", "pushforward.pushforward_tmap",
     None),
    ("otpush.experiments.wasserstein_1d", "geometry_measures.wasserstein_1d",
     None),
    ("otpush.experiments.discretize", "geometry_measures.discretize", None),
    ("otpush.pushforward.discretize", "geometry_measures.discretize", None),
    ("otpush.experiments._write_svg", "experiments.io", _size_of_path(0)),
    ("otpush.geometry_measures.DiscreteMeasure.to_csv", "experiments.io",
     _size_of_path(1)),
    ("otpush.experiments.ExperimentReport.to_csv", "experiments.io",
     _size_of_path(1)),
    ("otpush.experiments._random_valid_potential_1d", "experiments.sample",
     None),
    ("otpush.experiments._random_valid_potential_2d", "experiments.sample",
     None),
    ("otpush.experiments._random_rho_1d", "experiments.sample", None),
    ("otpush.experiments._collapse_perturbation", "experiments.sample", None),
    ("otpush.experiments._jitter_into_ball", "experiments.sample", None),
)

ROOT = "experiments"


def _layer(name: str) -> str:
    if name.startswith(("experiments.io", "experiments.sample")):
        return name
    return name.split(".", 1)[0]


def unit_of(metric: str) -> str:
    if metric.endswith((".calls", ".cells", ".points", ".probes", ".failed",
                        ".declined")):
        return "count"
    if metric.endswith(".bytes"):
        return "B"
    return "1" if metric.endswith("_frac") else "s"


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer figures of one traced workload call.

    ``spans`` must hold exactly one root span named ``ROOT`` and every other
    span must lie under it.  Times are seconds, counts are plain numbers.
    """
    roots = [k for k, s in enumerate(spans) if s["parent"] is None]
    if len(roots) != 1 or spans[roots[0]]["name"] != ROOT:
        raise ValueError(f"expected one {ROOT!r} root span, got {len(roots)}")
    dur = [s["t1"] - s["t0"] for s in spans]
    self_s = list(dur)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            self_s[s["parent"]] -= d

    def under(k, name):
        k = spans[k]["parent"]
        while k is not None:
            if spans[k]["name"] == name:
                return True
            k = spans[k]["parent"]
        return False

    def named(name):
        return [k for k, s in enumerate(spans) if s["name"] == name]

    def total(name):
        return sum(dur[k] for k in named(name))

    def self_in_layer(layer):
        return sum(self_s[k] for k, s in enumerate(spans)
                   if _layer(s["name"]) == layer)

    ball = named("kernels.ball_activity_2d")
    points = sum(spans[k]["points"] for k in ball)
    potential = named("pushforward.potential_from_discrete_ot")
    m = {
        "discrete_ot.solve.calls": len(named("discrete_ot.solve")),
        "discrete_ot.solve.s": total("discrete_ot.solve"),
        "discrete_ot.solve.cells": sum(spans[k]["cells"]
                                       for k in named("discrete_ot.solve")),
        "discrete_ot.assignment.calls": len(named("discrete_ot.assignment")),
        "discrete_ot.assignment.s": total("discrete_ot.assignment"),
        "discrete_ot.assignment.lsap_s": total("discrete_ot.lsap"),
        "discrete_ot.assignment.dual_recovery_s":
            total("discrete_ot.shortest_path"),
        "discrete_ot.ssp.calls": len(named("discrete_ot.ssp")),
        "discrete_ot.ssp.s": total("discrete_ot.ssp"),
        "discrete_ot.ssp.failed": sum(spans[k]["failed"]
                                      for k in named("discrete_ot.ssp")),
        "discrete_ot.highs.calls": len(named("discrete_ot.highs")),
        "discrete_ot.highs.s": total("discrete_ot.highs"),
        "discrete_ot.bottleneck.calls": len(named("discrete_ot.bottleneck")),
        "discrete_ot.bottleneck.s": total("discrete_ot.bottleneck"),
        "discrete_ot.bottleneck.probes": sum(
            under(k, "discrete_ot.bottleneck")
            for k in named("discrete_ot.matching") + named("discrete_ot.max_flow")),
        "discrete_ot.self_s": self_in_layer("discrete_ot"),
        "kernels.ssp_flow.calls": len(named("kernels.ssp_flow")),
        "kernels.ssp_flow.s": total("kernels.ssp_flow"),
        "kernels.ball_activity_2d.calls": len(ball),
        "kernels.ball_activity_2d.s": total("kernels.ball_activity_2d"),
        "kernels.ball_activity_2d.points": points,
        "kernels.ball_activity_2d.ambiguous_frac":
            sum(spans[k]["ambiguous"] for k in ball) / points if points else 0.0,
        "convex_analysis.integral_diam_estimate.s":
            total("convex_analysis.integral_diam_estimate"),
        "convex_analysis.covering_number_sigma.s":
            total("convex_analysis.covering_number_sigma"),
        "convex_analysis.verify_lemma_diam_l1.s":
            total("convex_analysis.verify_lemma_diam_l1"),
        "convex_analysis.scan.self_s": self_in_layer("convex_analysis"),
        "pushforward.potential_from_discrete_ot.s":
            total("pushforward.potential_from_discrete_ot"),
        # time in the potential fit outside the OT solve: Karp recentering
        # (_max_margin_duals) and the cost matrix built for it
        "pushforward.potential_from_discrete_ot.self_s": sum(
            self_s[k] for k in potential) + sum(
            self_s[k] for k in named("pushforward.max_margin")
            if under(k, "pushforward.potential_from_discrete_ot")),
        "pushforward.max_margin.declined": sum(
            spans[k]["declined"] for k in named("pushforward.max_margin")),
        "pushforward.lot_interpolant.s": total("pushforward.lot_interpolant"),
        "pushforward.pushforward_tmap.s": total("pushforward.pushforward_tmap"),
        "pushforward.self_s": self_in_layer("pushforward"),
        "geometry_measures.wasserstein_1d.calls":
            len(named("geometry_measures.wasserstein_1d")),
        "geometry_measures.wasserstein_1d.s":
            total("geometry_measures.wasserstein_1d"),
        "geometry_measures.discretize.s": total("geometry_measures.discretize"),
        "geometry_measures.self_s": self_in_layer("geometry_measures"),
        "experiments.io.s": total("experiments.io"),
        "experiments.io.bytes": sum(spans[k]["bytes"]
                                    for k in named("experiments.io")),
        "experiments.sample.s": self_in_layer("experiments.sample"),
        "experiments.self_s": self_s[roots[0]],
        "trace.run_s": dur[roots[0]],
    }
    return m


# The self-time metrics that partition the root span's duration.
PARTITION = ("discrete_ot.self_s", "kernels.ssp_flow.s",
             "kernels.ball_activity_2d.s", "convex_analysis.scan.self_s",
             "pushforward.self_s", "geometry_measures.self_s",
             "experiments.io.s", "experiments.sample.s", "experiments.self_s")
