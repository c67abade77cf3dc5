"""The four benchmark workloads: their inputs, the call that is timed, and
the checks on what that call produced.

Why these four (the layer each one exercises is the one a ROADMAP direction
rewrites; the others are the workloads that must not move):

``figure``  ``otpush figure1`` with the built-in pixel-cloud targets
            (K = 113 and 152 atoms).  Most of its time is the general-weight
            SSP (``discrete_ot._solve_ssp`` -> ``_kernels.ssp_flow``) behind
            the seven ``wasserstein`` calls on interpolants; the rest is the
            two assignment fits, ``lot_interpolant`` and the CSV/SVG/manifest
            output.  It exercises the SSP rewrite and bypasses the ball scans.
            The built-in targets take no random input, so this workload is
            the same for every seed.
``fit``     ``otpush figure1`` on a large grid with two few-atom targets
            (K = 16 and 24) written from the seed.  Nearly all its time is
            ``linear_sum_assignment`` on the two n x n column expansions
            (n = grid^2 >> K); the SSP share is small.  This is the shape the
            collapsed sink-graph assignment targets, and the only workload
            whose peak memory that shape sets.
``audit``   ``otpush stability-audit``: many small solves.  Its 2D instances
            are square uniform assignments (K = n), where Bellman-Ford dual
            recovery (``shortest_path``) dominates the assignment engine;
            ``bottleneck_solve`` and exact 1D ``wasserstein_1d`` follow.  A
            sink-graph rewrite that wins at K << n must not lose here.
``scan``    singular-set scans through the public ``convex_analysis`` API on
            seeded 2D ``random_max_affine`` instances drawn before timing:
            one ~823k-point ``integral_diam_estimate`` plus batches of
            ``covering_number_sigma`` and ``verify_lemma_diam_l1`` calls
            shaped like the singularity suite's.  Most of the time is
            ``_kernels.ball_activity_2d``, the rest the exact fallback on
            ambiguous points.  It exercises the exact cell geometry rewrite
            and never touches ``discrete_ot``.

Sizes are cut from the scenarios' defaults so that one child process takes
2-7 s here and a benchmark run repeats it several times within its
``--seconds``: ``figure`` at grid 16 (not 70; the SSP's cost is irregular in
the grid, and 16 is a cheap point where it still dominates), ``fit`` at grid
52 (not 70), ``audit`` at 40 1D and 10 2D instances (not 200 and 50), and
``scan`` with one integral, 10 coverings and 50 lemma checks per child.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

FIGURE_GRID = 16
FIT_GRID = 52
FIT_ATOMS = (16, 24)
AUDIT_COUNTS = (40, 10)
SCAN_INTEGRAL_K = 4
SCAN_COVERINGS = 10
SCAN_LEMMAS = 50

NAMES = ("figure", "fit", "audit", "scan")
# Workloads whose inputs do not depend on the seed share one reference.
UNSEEDED = ("figure",)


def prepare(name: str, seed: int, work: str) -> dict:
    """Write the workload's input files under ``work`` and return the spec a
    child process runs.  Paths in the spec are relative to the checkout
    root, so the programs' outputs (which name them) do not depend on where
    the checkout lives."""
    out = os.path.join(work, "out", name)
    if name == "figure":
        argv = ["figure1", "--grid", str(FIGURE_GRID), "--out", out]
        return {"name": name, "argv": argv, "out": out}
    if name == "fit":
        argv = ["figure1", "--grid", str(FIT_GRID), "--out", out]
        for path in _write_fit_targets(seed, os.path.join(work, "inputs")):
            argv += ["--target", path]
        return {"name": name, "argv": argv, "out": out}
    if name == "audit":
        argv = ["stability-audit", "--seed", str(seed),
                "--count-1d", str(AUDIT_COUNTS[0]),
                "--count-2d", str(AUDIT_COUNTS[1]), "--out", out]
        return {"name": name, "argv": argv, "out": out}
    if name == "scan":
        return {"name": name, "seed": seed}
    raise ValueError(f"unknown workload {name!r}")


def _write_fit_targets(seed: int, directory: str) -> list[str]:
    """K atoms on a lattice over the unit box, each moved by a small seeded
    jitter that breaks exact distance ties with the grid.  Uniformly random
    atoms make the assignment's cost swing about 2x from seed to seed at a
    fixed grid (1.6-3.4 s CPU at grid 44 here), which would swamp the
    run-to-run spread; the lattice keeps the n >> K shape at a cost that
    varies less between seeds than between repeats of one seed."""
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    os.makedirs(directory, exist_ok=True)
    paths = []
    for k in FIT_ATOMS:
        rows = int(np.ceil(np.sqrt(k)))
        cols = int(np.ceil(k / rows))
        gx, gy = np.meshgrid((np.arange(rows) + 0.5) / rows,
                             (np.arange(cols) + 0.5) / cols, indexing="ij")
        cell = 1.0 / max(rows, cols)
        pts = np.column_stack([gx.ravel(), gy.ravel()])[:k]
        pts = 0.05 + 0.9 * (pts + rng.uniform(-0.02 * cell, 0.02 * cell, pts.shape))
        doc = {"kind": "discrete",
               "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
               "points": pts.tolist(), "weights": [1.0 / k] * k}
        path = os.path.join(directory, f"fit-{seed}-{k}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# child side: the scan workload's inputs and timed call
# ---------------------------------------------------------------------------

def scan_instances(seed: int) -> list[tuple]:
    """Seeded scan calls ``(function name, f, args...)``.  The piece counts
    cycle deterministically so every seed does the same mix of work; only
    the continuous parameters are drawn."""
    import numpy as np
    from otpush.experiments import random_max_affine

    rng = np.random.default_rng([seed, 2])
    calls = []
    f = random_max_affine(rng, 2, SCAN_INTEGRAL_K, 3.0, 1.0)
    calls.append(("integral_diam_estimate", f, float(rng.uniform(0.05, 0.2)),
                  2.0, 1.0))
    for i in range(SCAN_COVERINGS):
        f = random_max_affine(rng, 2, 3 + i % 4, 3.0, 1.0)
        eta = float(rng.uniform(0.05, 0.15))
        alpha = float(rng.uniform(0.2, 1.5)) * f.lip
        calls.append(("covering_number_sigma", f, eta, alpha, 1.0))
    for i in range(SCAN_LEMMAS):
        f = random_max_affine(rng, 2, 2 + i % 5, 3.0, 1.0)
        eta = float(rng.uniform(0.05, 0.3))
        x = rng.uniform(-0.8, 0.8, 2)
        while x @ x > 0.64:
            x = rng.uniform(-0.8, 0.8, 2)
        calls.append(("verify_lemma_diam_l1", f, x, eta))
    return calls


def run_scan(calls: list[tuple]) -> list[list[float]]:
    """Each call's (value, bound) pair.  Functions are looked up on the module
    at call time so the traced run's wrappers see them."""
    from otpush import convex_analysis

    pairs = []
    for fname, f, *args in calls:
        out = getattr(convex_analysis, fname)(f, *args)
        if fname == "integral_diam_estimate":
            pairs.append([out.estimate, out.bound])
        elif fname == "covering_number_sigma":
            pairs.append([float(out.count), out.bound])
        else:
            pairs.append([float(out[0]), float(out[1])])
    return pairs


# ---------------------------------------------------------------------------
# parent side: output digests and checks
# ---------------------------------------------------------------------------

def output_digest(spec: dict, values) -> str:
    """sha256 over what the workload produced: the output files of a CLI
    workload (report CSV, every ``mu_t*.csv``/``.svg`` and ``manifest.json``
    for figure1), or the ``repr`` of every scan value."""
    h = hashlib.sha256()
    if spec["name"] == "scan":
        for pair in values:
            h.update((",".join(repr(v) for v in pair) + "\n").encode())
        return h.hexdigest()
    for fname in sorted(os.listdir(spec["out"])):
        h.update(fname.encode() + b"\0")
        with open(os.path.join(spec["out"], fname), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def check_outputs(spec: dict, rc: int, values) -> list[str]:
    """Problems with one child's outputs, beyond the digest comparison."""
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    name = spec["name"]
    if name == "scan":
        for i, (value, bound) in enumerate(values):
            if not (math.isfinite(value) and math.isfinite(bound)):
                problems.append(f"scan call {i}: non-finite {value!r} {bound!r}")
            elif value > bound:
                problems.append(f"scan call {i}: {value!r} above bound {bound!r}")
        return problems
    files = set(os.listdir(spec["out"]))
    report = "stability.csv" if name == "audit" else "figure1.csv"
    expected = {report}
    if name != "audit":
        expected |= {"manifest.json"} | {
            f"mu_t{t:.2f}.{ext}" for t in (0.0, 0.25, 0.5, 0.75, 1.0)
            for ext in ("csv", "svg")}
    if files != expected:
        problems.append(f"output files {sorted(files)} != {sorted(expected)}")
        return problems
    with open(os.path.join(spec["out"], report)) as fh:
        tail = [line[2:].split(",") for line in fh.read().splitlines()
                if line.startswith("# ") and "passed=" in line]
    if not tail or "passed=True" not in tail[-1]:
        problems.append(f"{report} does not record passed=True")
    return problems
