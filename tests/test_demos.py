"""The scripts in demos/ and tools/bench.py run and print their output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and lines[0].strip(), proc.stdout


def test_bench_last_line_is_json():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench.py"), "encode", "--repeat", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert set(record) == {"manifest", "groups"}
    assert record["manifest"]["nproc"] >= 1
    rows = record["groups"]["encode"]["rows"]
    assert [row["case"] for row in rows] == ["500x1000-1024", "512x1024-256"]
    assert all(row["seconds"] > 0 for row in rows)
