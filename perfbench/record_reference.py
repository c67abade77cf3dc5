#!/usr/bin/env python3
"""Record reference output digests into ``reference.json``.

Usage (from the repository root)::

    python3 perfbench/record_reference.py --workload fit --seeds 0 31

Runs each workload once per seed in the range (one run in all for a
workload whose inputs ignore the seed), checks its outputs as the benchmark
does, and stores the digest.  Record only from a commit whose outputs are
known to be right: the benchmark counts every later mismatch as a failure.
Existing entries are kept unless ``--overwrite`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seeds", type=int, nargs=2, required=True,
                        metavar=("FIRST", "LAST"))
    parser.add_argument("--overwrite", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(run.ROOT)
    os.makedirs(run.WORK, exist_ok=True)
    path = os.path.join(run.HERE, "reference.json")
    with open(path) as fh:
        table = json.load(fh)
    entries = table.setdefault(args.workload, {})
    seeds = range(args.seeds[0], args.seeds[1] + 1)
    if args.workload in workloads.UNSEEDED:
        seeds = seeds[:1]
    for seed in seeds:
        key = "any" if args.workload in workloads.UNSEEDED else str(seed)
        if key in entries and not args.overwrite:
            continue
        spec = workloads.prepare(args.workload, seed, run.WORK)
        spec_path = os.path.join(run.WORK, f"spec-{args.workload}.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        if "out" in spec:
            shutil.rmtree(spec["out"], ignore_errors=True)
        sample = run.run_child(spec_path, 0, False)
        problems = run.check_sample(spec, sample, None)
        if problems:
            print(f"{args.workload} seed {seed}: {problems}", file=sys.stderr)
            return 1
        entries[key] = sample["digest"]
        print(f"{args.workload} {key} {sample['digest']}")
        with open(path, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
