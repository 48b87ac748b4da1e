"""Expected sweep results and the check every measured sweep goes through.

``reference.json`` holds, per workload, the sweep CSV with ``elapsed_s``
stripped for a fixed set of seeds, taken from the library as it was when
the benchmark was defined.  A sweep at one of those seeds must match its
CSV byte for byte.  At any other seed the exact statistics are unknown,
so the check is weaker: the CSV must obey the sweep engine's stopping
rules and counting identities, and each point's block error rate must
lie within a six-sigma band of the rate pooled over the stored seeds.

Regenerate after a deliberate change to the workloads or the CSV bytes
(a change that alters the bytes must say why)::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SEEDS = (workloads.DEFAULT_SEED,) + tuple(range(1, 11))
HEADER = ("ebno_db,bits,bit_errors,ber,blocks,block_errors,bler,batches,"
          "stop_reason")


def config_hash(raw: dict) -> str:
    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()


def strip_elapsed(csv_text: str) -> str:
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in csv_text.splitlines())


def load() -> dict:
    return json.loads(REFERENCE.read_text())


def parse_rows(stripped: str) -> list:
    return list(csv.DictReader(io.StringIO(stripped)))


def invariants(rows: list, raw: dict, payload_bits: int) -> list:
    sweep = raw["sweep"]
    target = sweep["target_block_errors"]
    problems = []
    if [float(r["ebno_db"]) for r in rows] != sweep["ebno_db"]:
        return ["ebno_db column differs from the config"]
    zero_run = 0
    for r in rows:
        where = f"{r['ebno_db']} dB"
        bits, bit_err = int(r["bits"]), int(r["bit_errors"])
        blocks, blk_err = int(r["blocks"]), int(r["block_errors"])
        batches, reason = int(r["batches"]), r["stop_reason"]
        if reason == "early-exit":
            ok = zero_run >= 2 and bits == bit_err == blocks == blk_err == 0
        elif reason == "target-errors":
            ok = (blk_err >= target
                  and 1 <= batches <= sweep["max_batches_per_point"])
        elif reason == "max-batches":
            ok = blk_err < target and batches == sweep["max_batches_per_point"]
        else:
            ok = False
        if not ok:
            problems.append(f"{where}: stop reason {reason!r} breaks the "
                            "stopping rule")
        if reason != "early-exit":
            zero_run = zero_run + 1 if blk_err == 0 else 0
        if (blocks != batches * sweep["batch_size"]
                or bits != blocks * payload_bits
                or not blk_err <= bit_err <= bits
                or (bit_err > 0) != (blk_err > 0)
                or float(r["ber"]) != (bit_err / bits if bits else 0.0)
                or float(r["bler"]) != (blk_err / blocks if blocks else 0.0)):
            problems.append(f"{where}: counts are inconsistent")
    return problems


def _plausible(rows: list, stored: dict) -> list:
    problems = []
    pooled = [parse_rows(text) for text in stored.values()]
    for i, r in enumerate(rows):
        n, k = int(r["blocks"]), int(r["block_errors"])
        ref_n = sum(int(ref[i]["blocks"]) for ref in pooled)
        ref_k = sum(int(ref[i]["block_errors"]) for ref in pooled)
        if n == 0 or ref_n == 0:
            continue
        p = (k + ref_k) / (n + ref_n)
        sigma = math.sqrt(p * (1 - p) * (1 / n + 1 / ref_n))
        if abs(k / n - ref_k / ref_n) > 6 * sigma + 3 / n:
            problems.append(f"{r['ebno_db']} dB: BLER {k / n:.4g} is "
                            f"implausible against the stored {ref_k / ref_n:.4g}")
    return problems


def check(name: str, seed: int, csv_text: str, ref: dict) -> list:
    """Return the problems found in one sweep's CSV (empty when correct)."""
    entry = ref[name]
    defined = workloads.config(name, workloads.DEFAULT_SEED)
    if config_hash(defined) != entry["config_sha256"]:
        return [f"reference.json is stale for {name}: regenerate it"]
    stripped = strip_elapsed(csv_text)
    if stripped.split("\n", 1)[0] != HEADER:
        return ["unexpected CSV columns"]
    problems = invariants(parse_rows(stripped), defined, entry["payload_bits"])
    stored = entry["csv"]
    if str(seed) in stored:
        if stripped != stored[str(seed)]:
            problems.append(f"CSV differs from the reference at seed {seed}")
    else:
        problems += _plausible(parse_rows(stripped), stored)
    return problems


def _child(name: str, seed: int, workers: int | None = None) -> str:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
           "--seed", str(seed)]
    if workers:
        cmd += ["--workers", str(workers)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["csv"]


def main() -> int:
    ref = {}
    for name in workloads.NAMES:
        texts = {}
        for seed in SEEDS:
            texts[str(seed)] = strip_elapsed(_child(name, seed))
            print(name, seed, flush=True)
        if workloads.workers(name) > 1:
            one = strip_elapsed(_child(name, workloads.DEFAULT_SEED, workers=1))
            if one != texts[str(workloads.DEFAULT_SEED)]:
                raise SystemExit(f"{name}: 1-worker CSV differs from the "
                                 f"{workloads.workers(name)}-worker CSV")
        rows = parse_rows(texts[str(workloads.DEFAULT_SEED)])
        ref[name] = {
            "config_sha256": config_hash(
                workloads.config(name, workloads.DEFAULT_SEED)),
            "payload_bits": int(rows[0]["bits"]) // int(rows[0]["blocks"]),
            "csv": texts,
        }
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
