"""Smoke test of the benchmark harness, with tiny batches in each workload.

    python3 -m pytest -q perfbench/test_smoke.py

Checks BENCHMARK.json against the metrics the harness produces, that the
traced spans nest, that per-layer self times plus ``sweep.self_s`` add up
to the traced wall time, that the 2-worker polar sweep equals the 1-worker
one, and that the CSV check catches a wrong count.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import END, NAME, PARENT, RUN, START, THREAD  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY_BATCH = 4


def tiny_sweep(name, *flags):
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", name,
         "--seed", str(workloads.DEFAULT_SEED), "--batch-size",
         str(TINY_BATCH), *flags],
        capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)
    for w in BENCH["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = set()
    for kind in ("end_to_end", "per_layer"):
        for m in BENCH[kind]:
            assert NAME_RE.fullmatch(m["name"]) and UNIT_RE.fullmatch(m["unit"])
            assert m["better"] in ("lower", "higher")
            assert m["name"] not in names
            names.add(m["name"])
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in BENCH["end_to_end"])}]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_tiny_sweep(name):
    out = tiny_sweep(name, "--trace")
    spans, root = out["spans"], out["root"]
    assert spans[root][NAME] == "sweep" and spans[root][PARENT] is None
    assert len({s[RUN] for s in spans}) == 1
    for s in spans:
        assert s[END] is not None and s[START] <= s[END]
        if s[PARENT] is None:
            assert s[NAME] == "sweep.build" or s is spans[root]
            continue
        parent = spans[s[PARENT]]
        assert parent[START] <= s[START] and s[END] <= parent[END]
        assert s[THREAD] == parent[THREAD] or s[PARENT] == root

    metrics = tracing.layer_metrics(spans, root, out["workers"],
                                    out["batches_kept"])
    metrics["trace.overhead_s"] = 0.0
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    assert metrics["sweep.pipeline_builds"] == 2
    layer_sum = sum(metrics[f"{layer}.self_s"]
                    for layer in tracing.LAYERS + ("sweep",))
    wall = metrics["trace.sweep_s"]
    if out["workers"] == 1:
        assert layer_sum == pytest.approx(wall, rel=1e-9, abs=1e-9)
    else:
        assert wall * (1 - 1e-9) <= layer_sum <= out["workers"] * wall
    assert reference.invariants(
        reference.parse_rows(reference.strip_elapsed(out["csv"])),
        workloads.config(name, 0, TINY_BATCH),
        reference.load()[name]["payload_bits"]) == []


def test_polar_worker_count_does_not_change_csv():
    two = tiny_sweep("polar-cascl")
    one = tiny_sweep("polar-cascl", "--workers", "1")
    assert two["workers"] == 2 and one["workers"] == 1
    assert reference.strip_elapsed(one["csv"]) == reference.strip_elapsed(two["csv"])


def test_csv_check_catches_wrong_counts():
    ref = reference.load()
    seed = workloads.DEFAULT_SEED
    stored = ref["listing1"]["csv"][str(seed)]
    good = "\n".join(line + ",0.0" for line in stored.splitlines())
    assert reference.check("listing1", seed, good, ref) == []
    # An unstored seed is checked by invariants and the stored BLER band.
    assert reference.check("listing1", 10**6, good, ref) == []
    lines = good.splitlines()
    cells = lines[1].split(",")
    cells[5] = str(int(cells[5]) - 1)  # one block error fewer
    bad = "\n".join([lines[0], ",".join(cells)] + lines[2:])
    assert reference.check("listing1", seed, bad, ref)
    assert reference.check("listing1", 10**6, bad, ref)
    cells = lines[-1].split(",")
    cells[2], cells[5] = "90", "90"  # 7 dB: 90 of 1024 blocks fail
    cells[3], cells[6] = repr(90 / int(cells[1])), repr(90 / int(cells[4]))
    implausible = "\n".join(lines[:-1] + [",".join(cells)])
    assert reference.check("listing1", 10**6, implausible, ref)
