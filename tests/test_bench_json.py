"""``tools/bench_json.py`` on a fabricated results directory."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_json", REPO / "tools" / "bench_json.py")
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)


def _sample(run_s, problems=()):
    return {"run_s": run_s, "cpu_s": 2.0 * run_s, "setup_s": 0.25, "peak_rss_mib": 40.0,
            "problems": list(problems)}


def _fabricate(root, commit):
    results = root / bench_json.RESULTS
    results.mkdir(parents=True)
    env = {"git_commit": commit, "seed": 1, "nproc": 2, "numpy": "2.4.6"}
    for name in bench_json.WORKLOADS:
        # the failed repeat's 9.0 s stays out of the statistics
        samples = [_sample(t) for t in (0.4, 0.1, 0.3, 0.2, 0.5)] + [_sample(9.0, ["digest"])]
        result = {"workload": name, "seed": 1, "trace": 0, "attempted": 6, "failed": 1,
                  "reference": f"digest-{name}", "samples": samples, "env": env,
                  "metrics": {}, "problems": ["run 5: digest"]}
        (results / f"{name}-seed1-trace0.json").write_text(json.dumps(result))


def test_condenses_a_run_and_diffs_against_the_previous_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _fabricate(tmp_path, "abc1234def")
    earlier = {"commit": "0123456", "env": {}, "workloads": {
        "scan": {"run_s": {"median": 0.4, "q1": 0.3, "q3": 0.5}}}}
    (tmp_path / "BENCH_3.json").write_text(json.dumps(earlier))
    (tmp_path / "BENCH_9.json").write_text("not read: its number is above the new file's")
    out = tmp_path / "BENCH_5.json"
    assert bench_json.main([str(out)]) == 0

    bench = json.loads(out.read_text())
    assert bench["commit"] == "abc1234def" and bench["env"]["nproc"] == 2
    assert sorted(bench["workloads"]) == sorted(bench_json.WORKLOADS)
    scan = bench["workloads"]["scan"]
    assert (scan["attempted"], scan["failed"], scan["reference"]) == (6, 1, "digest-scan")
    assert scan["run_s"] == {"median": 0.3, "q1": 0.2, "q3": 0.4}
    assert scan["cpu_s"]["median"] == 0.6 and scan["peak_rss_mib"]["q3"] == 40.0

    printed = capsys.readouterr().out
    assert "BENCH_3.json (0123456) -> BENCH_5.json (abc1234)" in printed
    assert "scan    run_s                0.4 -> 0.3 (-25.0%)" in printed
    assert "figure  run_s                  - -> 0.3 (new)" in printed


def test_first_file_has_nothing_to_compare(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _fabricate(tmp_path, "abc1234def")
    (tmp_path / "notes.json").write_text("not a BENCH file")
    assert bench_json.main(["BENCH_1.json"]) == 0
    assert "no earlier BENCH_*.json" in capsys.readouterr().out
    assert json.loads((tmp_path / "BENCH_1.json").read_text())["commit"] == "abc1234def"
