"""The scripts in demos/ and tools/bench.py run and print their output."""

import importlib.util
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
    assert [row["case"] for row in rows] == ["500x1000-1024", "512x1024-256",
                                             "polar-512x1024-256"]
    assert all(row["seconds"] > 0 for row in rows)


def test_bench_rows_keep_measured_values():
    # seconds and rate are stored as measured: they multiply back to the
    # rows of the case, the last part of its name.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench.py"), "encode", "--repeat", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout.splitlines()[-1])["groups"]["encode"]["rows"]
    for row in rows:
        assert row["seconds"] * row["codewords/s"] == pytest.approx(
            int(row["case"].rsplit("-", 1)[1]), rel=1e-9)


def load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench", ROOT / "tools" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _run(sweep_s, payload_mbps, correct=True):
    metrics = {} if sweep_s is None else {"sweep_s": sweep_s,
                                          "payload_mbps": payload_mbps}
    return {"correct": correct, "metrics": metrics}


def test_pairs_summary_of_fixed_runs():
    bench = load_bench()
    base = [(2.0, 1.0), (2.2, 1.0), (1.8, 1.0), (2.4, 1.0)]
    change = [(1.5, 2.0), (2.3, 1.0), (1.6, 0.5), (1.7, 1.0)]
    runs = {"w": [{"base": _run(*b), "change": _run(*c)}
                  for b, c in zip(base, change)],
            "v": [{"base": _run(1.0, 1.0), "change": _run(0.5, 2.0)},
                  {"change": _run(None, None, correct=False),
                   "base": _run(1.0, 1.0)},
                  {"base": _run(3.0, 1.0, correct=False),
                   "change": _run(2.0, 2.0)}]}
    rows = bench.summarize(runs, {"sweep_s": "lower", "payload_mbps": "higher"})
    by = {(r["workload"], r["metric"]): r for r in rows}
    assert len(rows) == 4
    w = by["w", "sweep_s"]
    assert w["base_median"] == pytest.approx(2.1)
    assert w["change_median"] == pytest.approx(1.65)
    assert w["base_iqr"] == pytest.approx(0.3)
    assert w["change_iqr"] == pytest.approx(0.275)
    assert (w["won"], w["pairs"]) == (3, 4)
    assert w["base_correct"] == w["change_correct"] == [True] * 4
    # Equal values are no win; higher is better for payload_mbps.
    assert by["w", "payload_mbps"]["won"] == 1
    v = by["v", "sweep_s"]
    assert (v["won"], v["pairs"]) == (2, 3)
    assert v["change_median"] == pytest.approx(1.25)
    assert v["base_median"] == pytest.approx(1.0)
    assert v["change_iqr"] == pytest.approx(0.75)
    assert v["base_correct"] == [True, True, False]
    assert v["change_correct"] == [True, False, True]


@pytest.mark.parametrize("stdout", ["not json", ""])
def test_perfbench_run_survives_malformed_output(tmp_path, stdout):
    # run.py exits 0 but prints no JSON result: the run counts as failed.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        f"print({stdout!r}, end='')\n")
    assert load_bench().perfbench_run(tmp_path, "listing1") == {
        "correct": False, "metrics": {}}


def test_pairs_extracts_a_runnable_head(tmp_path):
    # pairs runs perfbench/run.py in the extracted tree.
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    load_bench().extract("HEAD", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--help"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "--workload" in proc.stdout


def test_pairs_copies_a_runnable_checkout(tmp_path):
    # pairs runs the change side from a copy of the checkout: the files git
    # tracks or does not ignore, and nothing it ignores.
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    load_bench().copy_checkout(tmp_path)
    assert (tmp_path / "src" / "linksim" / "core.py").read_bytes() == \
        (ROOT / "src" / "linksim" / "core.py").read_bytes()
    assert not list(tmp_path.rglob("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--help"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "--workload" in proc.stdout


@pytest.mark.parametrize("argv,change,status", [
    (["sweeps"], {"correct": True, "metrics": {"sweep_s": 1.0}}, 0),
    (["sweeps"], {"correct": False, "metrics": {"sweep_s": 1.0}}, 1),
    (["pairs", "--against", "HEAD", "--pairs", "2"],
     {"correct": True, "metrics": {"sweep_s": 1.0}}, 0),
    (["pairs", "--against", "HEAD", "--pairs", "2"],
     {"correct": False, "metrics": {"sweep_s": 1.0}}, 1),
    (["pairs", "--against", "HEAD", "--pairs", "2"],
     {"correct": False, "metrics": {}}, 1),
], ids=["sweeps-correct", "sweeps-not-correct", "pairs-correct",
        "pairs-not-correct", "pairs-failed"])
def test_bench_exit_status_follows_correct_runs(monkeypatch, capsys, argv,
                                                change, status):
    # A stub perfbench_run returns `change` for the traced sweep of mimo-ldpc
    # and for every run in the copy of this checkout; every other run is
    # correct.
    bench = load_bench()
    copies = []

    def perfbench_run(tree, workload, trace=0):
        if tree in copies or (workload, trace) == ("mimo-ldpc", 1):
            return change
        return {"correct": True, "metrics": {"sweep_s": 1.0}}

    monkeypatch.setattr(bench, "perfbench_run", perfbench_run)
    monkeypatch.setattr(bench, "extract", lambda rev, dest: None)
    monkeypatch.setattr(bench, "copy_checkout", copies.append)
    assert bench.main(argv) == status
    out = capsys.readouterr().out.splitlines()
    record = json.loads(out[-1])
    assert set(record) == {"manifest", "groups"}
    assert ("runs not correct in: " in out[-2]) == bool(status)
