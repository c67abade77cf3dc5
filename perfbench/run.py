#!/usr/bin/env python3
"""otpush benchmark: run one workload repeatedly, one child process per run,
check every output, and print the metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads are ``figure``, ``fit``, ``audit`` and ``scan`` (see
``workloads.py`` for why each was chosen); ``all`` runs them in turn.  Runs
are serial, each in a fresh interpreter started by ``child.py``.  Runs keep
starting until the next one would end past ``--seconds`` (at least
``MIN_RUNS``).

``--trace 0`` reports end-to-end metrics, each the median over the runs:

* ``run_s``: wall seconds of the workload call (``otpush.cli.main`` or the
  scan batch) in the child;
* ``cpu_s``: user + system CPU seconds of the whole child process;
* ``setup_s``: from spawning the child to ``import otpush.cli`` returning;
* ``peak_rss_mib``: peak resident memory of the child process.

CPU time and memory come from ``os.wait4`` on each child, never from
``RUSAGE_CHILDREN``, whose ``ru_maxrss`` is the maximum over every child
reaped so far.

``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of ``spans.layer_metrics``, each the mean over the traced runs (a
mean, so the self-time metrics in ``spans.PARTITION`` still add up to
``trace.run_s``), plus ``trace.overhead_s``: mean traced minus mean untraced
``run_s``.

A run fails when the child exits non-zero, its report says ``passed=False``,
a scan value is NaN or above its bound, or its output digest differs from
``reference.json`` for that workload and seed.  For a seed with no stored
reference, every run must reproduce the first run's digest.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print each metric with its
unit, ``failed_frac`` and the environment block.  Each result is also saved
under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".perfbench_work"
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120.0

END_TO_END = (("run_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"))


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return f"unknown ({ref})"


def run_child(spec_path: str, index: int, traced: bool) -> dict:
    """Run ``child.py`` once; return its result plus wall, CPU and memory."""
    result_path = os.path.join(WORK, f"child-{index}.json")
    log_path = os.path.join(WORK, f"child-{index}.log")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), spec_path,
           result_path] + (["--trace"] if traced else [])
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        status = rusage = None
        try:
            while True:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() - spawned > CHILD_TIMEOUT_S:
                    proc.kill()
                    _, status, rusage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"exit": proc.returncode, "wall_s": ended - spawned,
              "cpu_s": rusage.ru_utime + rusage.ru_stime,
              "peak_rss_mib": rusage.ru_maxrss / 1024.0, "traced": traced}
    if proc.returncode == 0 and os.path.isfile(result_path):
        with open(result_path) as fh:
            res = json.load(fh)
        sample.update(res)
        sample["setup_s"] = res["imported"] - spawned
    else:
        with open(log_path) as fh:
            sample["log_tail"] = fh.read()[-2000:]
    return sample


def check_sample(spec: dict, sample: dict, reference: str | None) -> list[str]:
    if "run_s" not in sample:
        return [f"child exited {sample['exit']}:\n{sample['log_tail']}"]
    problems = workloads.check_outputs(spec, sample["rc"], sample["values"])
    if not problems:
        sample["digest"] = workloads.output_digest(spec, sample["values"])
        if reference is not None and sample["digest"] != reference:
            problems.append(f"output digest {sample['digest']} != "
                            f"reference {reference}")
    if sample.get("traced"):
        layers = sample["layers"]
        accounted = sum(layers[k] for k in spans.PARTITION)
        if abs(accounted - layers["trace.run_s"]) > 1e-6 * (1 + accounted):
            problems.append(f"layer self times sum to {accounted!r}, "
                            f"traced run_s is {layers['trace.run_s']!r}")
    return problems


def reference_digest(name: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "reference.json")) as fh:
        table = json.load(fh).get(name, {})
    return table.get("any" if name in workloads.UNSEEDED else str(seed))


def percentile_note(values: list[float]) -> str:
    """Median with sample count, plus the highest percentile that still has
    at least ten samples beyond it, when there are enough samples."""
    n = len(values)
    note = f"median of {n}"
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        q = statistics.quantiles(values, n=100)[pct - 1]
        note += f", p{pct} {q:.4g}"
    return note


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = workloads.prepare(name, seed, WORK)
    spec_path = os.path.join(WORK, f"spec-{name}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    reference = reference_digest(name, seed)

    samples, problems = [], []
    start = time.monotonic()
    while True:
        if "out" in spec:
            shutil.rmtree(spec["out"], ignore_errors=True)
        sample = run_child(spec_path, len(samples), trace and len(samples) % 2 == 1)
        found = check_sample(spec, sample, reference)
        if reference is None and "digest" in sample:
            reference = sample["digest"]   # later runs must reproduce it
        sample["problems"] = found
        problems += [f"run {len(samples)}: {p}" for p in found]
        samples.append(sample)
        longest = max(s["wall_s"] for s in samples)
        if (len(samples) >= MIN_RUNS + trace
                and time.monotonic() - start + longest > seconds):
            break

    good = [s for s in samples if not s["problems"]] or samples
    metrics = {}
    if not trace:
        for key, unit in END_TO_END:
            vals = [s[key] for s in good if key in s]
            metrics[key] = {"value": statistics.median(vals) if vals else None,
                            "unit": unit}
    else:
        traced = [s for s in good if s.get("traced") and "layers" in s]
        plain = [s for s in good if not s.get("traced") and "run_s" in s]
        for key in (traced[0]["layers"] if traced else ()):
            vals = [s["layers"][key] for s in traced]
            metrics[key] = {"value": statistics.fmean(vals),
                            "unit": spans.unit_of(key)}
        if traced and plain:
            metrics["trace.overhead_s"] = {
                "value": statistics.fmean(s["layers"]["trace.run_s"] for s in traced)
                - statistics.fmean(s["run_s"] for s in plain), "unit": "s"}
    failed = sum(bool(s["problems"]) for s in samples)
    return {"workload": name, "seed": seed, "trace": int(trace),
            "correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics, "problems": problems, "samples": samples,
            "reference": reference}


def environment(result: dict) -> dict:
    env = {"git_commit": git_commit(), "seed": result["seed"],
           "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "OTPUSH_NUMBA": os.environ.get("OTPUSH_NUMBA"),
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    child_env = next((s["env"] for s in result["samples"] if "env" in s), {})
    env.update(child_env)
    return env


def report(result: dict, seconds: float) -> None:
    name, n = result["workload"], result["attempted"]
    print(f"== {name} seed={result['seed']} trace={result['trace']} "
          f"seconds={seconds:g}: {n} runs, {result['failed']} failed, "
          f"failed_frac {result['failed'] / n:.4g}")
    for p in result["problems"]:
        print(f"   FAILED {p}", file=sys.stderr)
    good = [s for s in result["samples"] if not s["problems"]] or result["samples"]
    for key, m in result["metrics"].items():
        note = ""
        if not result["trace"]:
            note = "  (" + percentile_note([s[key] for s in good if key in s]) + ")"
        value = "none" if m["value"] is None else f"{m['value']:.6g}"
        print(f"   {key:<48} {value} {m['unit']}{note}")
    print(f"   failed_frac{'':<37} {result['failed'] / n:.4g} 1")
    print("   env " + json.dumps(result["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "otpush", "cli.py")):
        print("perfbench: src/otpush not found next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result["env"] = environment(result)
        report(result, args.seconds)
        path = os.path.join(WORK, "results",
                            f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        results.append(result)
    summary = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "metrics": results[0]["metrics"] if len(results) == 1 else
               {f"{r['workload']}.{k}": v for r in results
                for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
