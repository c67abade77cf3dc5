"""Command-line front end for the experiment scenarios.

Subcommands: ``example``, ``rate-fit``, ``stability-audit``, ``singularity``,
``figure1``, ``demo``.  Every subcommand accepts ``--config FILE`` (a JSON
object of config fields) plus flag overrides; explicit flags win over the
config file, which wins over defaults.

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

_SCENARIO_OF = {"example": "example", "rate-fit": "rate",
                "stability-audit": "stability", "singularity": "singularity",
                "figure1": "figure1", "demo": "demo"}
_CONFIG_KEYS = {"eps", "p", "q", "r", "grid", "seed", "out",
                "count_1d", "count_2d", "targets", "id"}


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE",
                     help="JSON object of config fields")
    sub.add_argument("--out", metavar="DIR",
                     help="directory for the report CSV (and figure output)")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--eps-min", type=float)
    sub.add_argument("--eps-max", type=float)
    sub.add_argument("--eps-count", type=int)
    sub.add_argument("--p", type=float)
    sub.add_argument("--q", type=float)
    sub.add_argument("--r", type=float)
    sub.add_argument("--grid", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="otpush",
                     description="Stability experiments for transport-map "
                                 "pushforwards")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("example", "closed-form counterexample families"),
            ("rate-fit", "log-log exponent fit on the atom-pinch family"),
            ("stability-audit", "randomized stability-bound audit"),
            ("singularity", "singular-set covering and integral suite"),
            ("figure1", "interpolation figure pipeline"),
            ("demo", "qualitative singular-selection gallery")):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "example":
            sub.add_argument("--id", default=None,
                             help="example family id: 1.2, 1.3 or 1.4")
        if name == "stability-audit":
            sub.add_argument("--count-1d", type=int)
            sub.add_argument("--count-2d", type=int)
        if name == "figure1":
            sub.add_argument("--target", action="append", metavar="FILE",
                             help="measure JSON for a figure target "
                                  "(give exactly twice)")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise _UsageError(f"cannot read config {path!r}: {e}")
    if not isinstance(doc, dict):
        raise _UsageError("config file must hold a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
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
    doc = _load_config(args.config) if args.config else {}
    example_id = doc.pop("id", None)
    fields = {"scenario": _SCENARIO_OF[args.command]}
    fields.update(doc)
    eps = _eps_from_flags(args)
    if eps is not None:
        fields["eps"] = eps
    for name in ("p", "q", "r", "grid", "seed", "out", "count_1d", "count_2d"):
        v = getattr(args, name, None)
        if v is not None:
            fields[name] = v
    targets = getattr(args, "target", None)
    if targets:
        fields["targets"] = tuple(targets)
    if getattr(args, "id", None) is not None:
        example_id = args.id
    try:
        return SweepConfig(**fields), example_id
    except (TypeError, ValueError) as e:
        raise _UsageError(str(e))


def _run_scenario(cfg: SweepConfig, example_id: str | None) -> ExperimentReport:
    if cfg.scenario == "example":
        return run_example(example_id or "1.3", cfg)
    if cfg.scenario == "rate":
        return fit_holder_rate(cfg)
    if cfg.scenario == "stability":
        return audit_stability_bound(cfg)
    if cfg.scenario == "singularity":
        return run_singularity_suite(cfg)
    if cfg.scenario == "figure1":
        return run_figure1(cfg)
    return run_demo(cfg)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, example_id = _build_config(args)
        report = _run_scenario(cfg, example_id)
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
