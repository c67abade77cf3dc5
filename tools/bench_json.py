#!/usr/bin/env python3
"""Condense one benchmark run into a committed ``BENCH_<n>.json``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0
    python3 tools/bench_json.py BENCH_<n>.json

Reads the four ``<workload>-seed1-trace0.json`` results that the run saved
under ``.perfbench_work/results/``.  Writes the commit, the environment
block and, per workload, ``attempted``, ``failed``, the reference digest
and the median and quartiles of each end-to-end metric over the repeats,
then prints the change of each median against the ``BENCH_<m>.json`` with
the largest m below n in the same directory.  Repeats with problems are
left out of the statistics unless every repeat has one, the rule
``perfbench/run.py`` uses for its medians.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

RESULTS = Path(".perfbench_work/results")
WORKLOADS = ("figure", "fit", "audit", "scan")
METRICS = ("run_s", "cpu_s", "setup_s", "peak_rss_mib")


def summarize(values: list[float]) -> dict:
    """Median and inclusive quartiles (all three equal for one value)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def condense(results: Path) -> dict:
    runs = {}
    for name in WORKLOADS:
        with open(results / f"{name}-seed1-trace0.json") as fh:
            runs[name] = json.load(fh)
    commits = {r["env"]["git_commit"] for r in runs.values()}
    if len(commits) != 1:
        raise ValueError(f"results come from several commits: {sorted(commits)}")
    out = {"commit": commits.pop(), "env": runs[WORKLOADS[0]]["env"], "workloads": {}}
    for name, r in runs.items():
        good = [s for s in r["samples"] if not s["problems"]] or r["samples"]
        entry = {"attempted": r["attempted"], "failed": r["failed"],
                 "reference": r["reference"]}
        for key in METRICS:
            entry[key] = summarize([s[key] for s in good if key in s])
        out["workloads"][name] = entry
    return out


def _number(path: Path) -> int | None:
    m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return int(m.group(1)) if m else None


def previous(path: Path) -> Path | None:
    """The BENCH_<m>.json next to ``path`` with the largest m below its n."""
    n = _number(path)
    earlier = [p for p in path.parent.glob("BENCH_*.json")
               if _number(p) is not None and _number(p) < n]
    return max(earlier, key=_number, default=None)


def diff_lines(old: dict, new: dict) -> list[str]:
    lines = []
    for name, entry in new["workloads"].items():
        before = old["workloads"].get(name, {})
        for key in METRICS:
            a, b = before.get(key, {}).get("median"), entry[key]["median"]
            was, change = ("-", "new") if a is None else (f"{a:.6g}", f"{(b - a) / a:+.1%}")
            lines.append(f"{name:<7} {key:<13} {was:>10} -> {b:.6g} ({change})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="BENCH_<n>.json")
    args = parser.parse_args(argv)
    if _number(args.out) is None:
        parser.error(f"the output must be named BENCH_<n>.json, got {args.out.name}")
    bench = condense(RESULTS)
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    prev = previous(args.out)
    if prev is None:
        print("no earlier BENCH_*.json to compare with")
        return 0
    with open(prev) as fh:
        old = json.load(fh)
    print(f"medians: {prev.name} ({old['commit'][:7]}) -> {args.out.name} ({bench['commit'][:7]})")
    print("\n".join(diff_lines(old, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
