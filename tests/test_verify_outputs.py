"""tools/verify_outputs.py, which fingerprints the command outputs of a
source tree and compares two fingerprint files: two records of one tree
agree, and a record that differs in one field is named."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "verify_outputs.py"


def _tool(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True, timeout=300
    )


def test_compare_passes_two_records_and_names_a_changed_run(tmp_path):
    first, second, spoiled = tmp_path / "first.json", tmp_path / "second.json", tmp_path / "spoiled.json"
    for out in (first, second):
        done = _tool("record", "--src", ROOT / "src", "--seeds", "0", "--out", out)
        assert done.returncode == 0, done.stderr
    record = json.loads(first.read_text(encoding="utf-8"))
    runs = sum(len(seeds) for seeds in record["results"].values())
    assert set(record["results"]) >= {"check", "equiv", "grad", "encode", "bench"}

    same = _tool("compare", first, second)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.splitlines()[-1] == f"0 of {runs} run records differ"

    record["results"]["grad"]["0"]["stdout_sha256"] = "0" * 64
    spoiled.write_text(json.dumps(record), encoding="utf-8")
    changed = _tool("compare", first, spoiled)
    assert changed.returncode == 1, changed.stdout + changed.stderr
    lines = changed.stdout.splitlines()
    assert "grad --seed 0: stdout_sha256 differ" in lines
    assert "grad: 1 of 1 runs differ in stdout_sha256" in lines
    assert lines[-1] == f"1 of {runs} run records differ"
