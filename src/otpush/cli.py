"""Command-line front end for the experiment scenarios.

Subcommands: ``example``, ``rate-fit``, ``stability-audit``, ``singularity``,
``figure1``, ``demo``.  Each takes ``--config FILE`` (a JSON object), ``--out
DIR`` and a flag for each config field that ``_READS`` says its scenario
reads; the config file may set those fields and ``out``.  Any other flag or
key, or one the chosen ``example`` family does not read (``_EXAMPLE_READS``),
is a usage error.  Flags win over the config file, which wins over defaults.

Exit codes: 0 on success, 2 when an audited bound is violated (or a scenario
reports failure), 1 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .experiments import (BoundViolationError, ExperimentReport, SweepConfig,
                          audit_stability_bound, fit_holder_rate, run_demo,
                          run_example, run_figure1, run_singularity_suite)

# subcommand: (help, the config fields its scenario reads); ``id`` is the
# example family, and ``example`` takes the union over its three families
_READS = {
    "example": ("closed-form counterexample families", ("id", "p", "q", "r", "grid", "eps")),
    "rate-fit": ("log-log exponent fit on the atom-pinch family", ("p", "q", "r", "eps")),
    "stability-audit": ("randomized stability-bound audit",
                        ("seed", "p", "q", "r", "grid", "eps", "count_1d", "count_2d")),
    "singularity": ("singular-set covering and integral suite", ("seed",)),
    "figure1": ("interpolation figure pipeline", ("grid", "targets")),
    "demo": ("qualitative singular-selection gallery", ("seed", "p", "grid")),
}

# example family: the config fields its run reads (the default family is 1.3)
_EXAMPLE_READS = {"1.2": ("p", "q"), "1.3": ("p", "q", "r", "grid", "eps"),
                  "1.4": ("p", "q", "r", "eps")}

# config field: its flags, as (name, argparse keywords)
_FLAGS = {
    "id": [("--id", {"help": "example family id: 1.2, 1.3 or 1.4"})],
    "seed": [("--seed", {"type": int})], "grid": [("--grid", {"type": int})],
    "p": [("--p", {"type": float})], "q": [("--q", {"type": float})],
    "r": [("--r", {"type": float})],
    "eps": [("--eps-min", {"type": float}), ("--eps-max", {"type": float}),
            ("--eps-count", {"type": int})],
    "count_1d": [("--count-1d", {"type": int})], "count_2d": [("--count-2d", {"type": int})],
    "targets": [("--target", {"action": "append", "dest": "targets", "metavar": "FILE",
                              "help": "measure JSON for a figure target (give exactly "
                                      "twice); only its points and domain are used: "
                                      "its weights become near-uniform cell counts"})],
}


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def build_parser() -> _Parser:
    parser = _Parser(prog="otpush",
                     description="Stability experiments for transport-map "
                                 "pushforwards")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, reads) in _READS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", metavar="FILE",
                         help="JSON object of config fields")
        sub.add_argument("--out", metavar="DIR",
                         help="directory for the report CSV (and figure output)")
        for field in reads:
            for flag, kwargs in _FLAGS[field]:
                sub.add_argument(flag, **kwargs)
    return parser


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise _UsageError(f"cannot read config {path!r}: {e}")
    if not isinstance(doc, dict):
        raise _UsageError("config file must hold a JSON object")
    unread = set(doc) - set(_READS[command][1]) - {"out"}
    if unread:
        raise _UsageError(f"{command} does not read config keys {sorted(unread)}")
    return doc


def _eps_from_flags(args) -> tuple[float, ...] | None:
    given = [v is not None for v in (args.eps_min, args.eps_max, args.eps_count)]
    if not any(given):
        return None
    if not all(given):
        raise _UsageError("--eps-min, --eps-max and --eps-count must be "
                          "given together")
    if not (0.0 < args.eps_min <= args.eps_max and args.eps_count >= 1):
        raise _UsageError("need 0 < eps-min <= eps-max and eps-count >= 1")
    return tuple(float(e) for e in np.logspace(
        np.log10(args.eps_min), np.log10(args.eps_max), args.eps_count))


def _build_config(args) -> tuple[SweepConfig, str | None]:
    fields = _load_config(args.config, args.command) if args.config else {}
    reads = _READS[args.command][1]
    for name in reads + ("out",):  # each flag's dest is its config key
        v = getattr(args, name, None)
        if v is not None:
            fields[name] = v
    if "eps" in reads and (eps := _eps_from_flags(args)) is not None:
        fields["eps"] = eps
    example_id = fields.pop("id", None)
    if args.command == "example":  # an unknown family is run_example's error
        family = example_id or "1.3"
        unread = set(fields) - {"out"} - set(_EXAMPLE_READS.get(family, fields))
        if unread:
            raise _UsageError(f"example {family} does not read {sorted(unread)}")
    try:
        return SweepConfig(**fields), example_id
    except (TypeError, ValueError) as e:
        raise _UsageError(str(e))


def _run_scenario(command: str, cfg: SweepConfig, example_id: str | None) -> ExperimentReport:
    if command == "example":
        return run_example(example_id or "1.3", cfg)
    if command == "rate-fit":
        return fit_holder_rate(cfg)
    if command == "stability-audit":
        return audit_stability_bound(cfg)
    if command == "singularity":
        return run_singularity_suite(cfg)
    if command == "figure1":
        return run_figure1(cfg)
    return run_demo(cfg)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, example_id = _build_config(args)
        report = _run_scenario(args.command, cfg, example_id)
    except BoundViolationError as e:
        print(f"bound violation:\n{e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as e:  # _UsageError is a ValueError
        print(f"otpush: error: {e}", file=sys.stderr)
        return 1

    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        csv_path = os.path.join(cfg.out, f"{report.scenario}.csv")
        report.to_csv(csv_path)
        print(f"report: {csv_path}")
    summary = f"{report.scenario}: {len(report.rows)} rows, passed={report.passed}"
    if report.slope is not None:
        summary += f", slope={report.slope!r} (stderr {report.slope_stderr!r})"
    print(summary)
    for failure in report.failures:
        print(f"failure: {failure}", file=sys.stderr)
    return 0 if report.passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
