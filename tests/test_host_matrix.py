"""``tools/host_matrix.py``'s comparison on fabricated ``SHA256SUMS`` files."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("host_matrix", REPO / "tools" / "host_matrix.py")
host_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(host_matrix)

_DEFAULT = """\
aaaa  demo/out/demo.csv
bbbb  demo/stderr
cccc  demo/stdout
exit 0  demo
dddd  figure1/out/figure1.csv
eeee  figure1/out/manifest.json
exit 0  figure1
"""


def _sums(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return host_matrix.read_sums(path)


def test_same_bytes_differ_nowhere(tmp_path):
    default = _sums(tmp_path, "a", _DEFAULT)
    assert default["demo"] == "exit 0  demo"
    assert default["figure1/out/figure1.csv"] == "dddd  figure1/out/figure1.csv"
    assert host_matrix.differing(default, _sums(tmp_path, "b", _DEFAULT)) == []


def test_moved_files_exit_codes_and_missing_lines_are_listed(tmp_path):
    default = _sums(tmp_path, "a", _DEFAULT)
    other = (_DEFAULT.replace("dddd", "9999").replace("exit 0  demo", "exit 2  demo")
             .replace("eeee  figure1/out/manifest.json\n", "")
             + "ffff  figure1/out/extra.csv\n")
    assert host_matrix.differing(default, _sums(tmp_path, "b", other)) == [
        "exit 2  demo",
        "9999  figure1/out/figure1.csv",
        "ffff  figure1/out/extra.csv",
        "missing figure1/out/manifest.json",
    ]
