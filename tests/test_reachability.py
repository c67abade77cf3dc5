"""Every function of ``src/otpush`` that no CLI scenario runs has a reason
to exist.

A fresh interpreter runs ``otpush.cli.main`` on each scenario of the
reachability run (examples 1.2-1.4, the rate fit and the stability audit
with two exponent sets each, the singular-set suite, ``figure1`` at grid 24
and the demo at p = 2 and p = 3), plus a ``--config`` file, a ``figure1``
run on two ``--target`` files and one usage error.  A global trace function
records every code object of the package that starts.  Each ``def`` of the
package, found from its source, that none of these ran must be listed in
``_KEPT`` with one of its four reasons, and each reason must have an entry;
a listed name that ran, or that no longer exists, fails the test as well.

The same runs check the CLI's tables of the config fields each subcommand
reads (``cli._READS``) and each example family reads
(``cli._EXAMPLE_READS``): a hook on ``SweepConfig.__getattribute__``, on
only while ``cli._run_scenario`` runs, records the fields that the
scenario's driver reads after the config is built.  Each table entry must
equal the union of those reads over its subcommand's (or family's) runs.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "otpush"

_FAILURE = "failure path"
_PATCH_TARGET = "perfbench patch target (ROADMAP direction 5)"
_ORACLE = "test oracle"
# the bottleneck search runs a flow only when its bracket holds more than one
# level or the instance is not uniform and square; its oracle is the
# product-family tests, test_discrete_ot.py's (which asserts that it probes)
# and test_pushforward.py's
_BRANCH = "a branch that no default instance takes"

# (module, qualified name) of each def that no run reaches, and why it stays
_KEPT = {
    ("experiments", "BoundViolationError.__init__"): _FAILURE,
    ("experiments", "_json_default"): _FAILURE,
    ("_kernels", "ball_activity_2d"): _PATCH_TARGET,
    ("discrete_ot", "__getattr__"): _PATCH_TARGET,
    ("discrete_ot", "_solve_highs"): _PATCH_TARGET,
    ("convex_analysis", "MaxAffineFunction.__call__"): _ORACLE,
    ("pcost_maps", "CConcavePotential.value"): _ORACLE,
    ("geometry_measures", "Measure1D.uniform"): _ORACLE,
    ("discrete_ot", "maximum_flow"): _BRANCH,
    ("discrete_ot", "_bounded_plan"): _BRANCH,
    ("discrete_ot", "bottleneck_solve.<locals>.plan_at"): _BRANCH,
}

# Runs the scenarios in the order given and writes the exit codes and the
# (module, qualified name) of every package code object that started.
_RUN = textwrap.dedent("""
    import dataclasses
    import json
    import os
    import sys

    from otpush import cli
    from otpush.experiments import SweepConfig

    package, tmp, expected = sys.argv[1], sys.argv[2], sys.argv[3]
    assert os.path.dirname(cli.__file__) == package, (cli.__file__, package)
    started = set()

    def record(frame, event, arg):
        code = frame.f_code
        if os.path.dirname(code.co_filename) == package:
            started.add((os.path.basename(code.co_filename)[:-3], code.co_qualname))

    # every subcommand takes out, so it is not one of the fields in the table
    fields = {f.name for f in dataclasses.fields(SweepConfig)} - {"out"}
    reads, family_reads, reading = {}, {}, []

    def getattribute(self, name):
        if reading and name in fields:
            reading[-1].add(name)
        return object.__getattribute__(self, name)

    run_scenario = cli._run_scenario

    def measured(command, cfg, example_id):
        # the example id is passed beside the config, not in it
        reading.append(set() if example_id is None else {"id"})
        try:
            return run_scenario(command, cfg, example_id)
        finally:
            read = reading.pop()
            reads.setdefault(command, set()).update(read)
            if command == "example":
                family_reads.setdefault(example_id or "1.3", set()).update(read - {"id"})

    SweepConfig.__getattribute__ = getattribute
    cli._run_scenario = measured

    config = os.path.join(tmp, "config.json")
    with open(config, "w") as fh:
        json.dump({"id": "1.4", "r": 3.0}, fh)
    targets = []
    for k, pts in enumerate(([[0.2, 0.3], [0.4, 0.5], [0.3, 0.7]],
                             [[0.6, 0.2], [0.8, 0.4], [0.7, 0.8], [0.5, 0.5]])):
        targets += ["--target", os.path.join(tmp, f"target{k}.json")]
        with open(targets[-1], "w") as fh:
            json.dump({"kind": "discrete", "points": pts,
                       "weights": [1.0 / len(pts)] * len(pts),
                       "domain": {"kind": "box", "lo": [0, 0], "hi": [1, 1]}}, fh)
    runs = [["example", "--id", "1.2"], ["example", "--id", "1.3"],
            ["example", "--id", "1.4"], ["rate-fit"], ["rate-fit", "--q", "2", "--r", "3"],
            ["stability-audit"], ["stability-audit", "--p", "3", "--q", "3"],
            ["singularity"], ["figure1", "--grid", "24"], ["demo"], ["demo", "--p", "3"],
            ["example", "--config", config], ["figure1", "--grid", "8"] + targets,
            ["rate-fit", "--p", "two"]]
    codes = []
    sys.settrace(record)
    for k, argv in enumerate(runs):
        try:
            codes.append(cli.main(argv + ["--out", os.path.join(tmp, f"out{k}")]))
        except SystemExit as e:
            codes.append(e.code)
    sys.settrace(None)
    with open(expected, "w") as fh:
        json.dump({"codes": codes, "started": sorted(started),
                   "reads": {c: sorted(r) for c, r in reads.items()},
                   "table": {c: sorted(r) for c, (_, r) in cli._READS.items()},
                   "family_reads": {f: sorted(r) for f, r in family_reads.items()},
                   "family_table": {f: sorted(r) for f, r in cli._EXAMPLE_READS.items()}},
                  fh)
""")


def _defs() -> set:
    """(module, qualified name) of every def in the package's source."""
    found = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((module, prefix + child.name))
                walk(child, module, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in PACKAGE.glob("*.py"):
        walk(ast.parse(path.read_text()), path.stem, "")
    return found


def test_every_unreached_def_has_a_reason(tmp_path):
    assert set(_KEPT.values()) == {_FAILURE, _PATCH_TARGET, _ORACLE, _BRANCH}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    result = tmp_path / "reached.json"
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, str(PACKAGE), str(tmp_path), str(result)],
        env=env, capture_output=True, text=True, timeout=600, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text())
    # every scenario passes; the usage error exits 1
    assert doc["codes"] == [0] * 13 + [1], (doc["codes"], proc.stderr)

    defs = _defs()
    unreached = defs - {tuple(k) for k in doc["started"]}
    assert sorted(unreached - set(_KEPT)) == [], "unreached and not kept"
    assert sorted(set(_KEPT) - unreached) == [], "kept but reached, or gone"
    # each subcommand's and each example family's table entry is what its
    # driver read on its runs
    assert doc["reads"] == doc["table"]
    assert doc["family_reads"] == doc["family_table"]
