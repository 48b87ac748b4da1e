"""linksim benchmark: Eb/N0 sweeps through the public API, one process each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sweep runs in a fresh process
(``perfbench/child.py``) that does what ``linksim run`` does: import
linksim from ``src/``, ``SimConfig.from_dict``, ``run_sweep``,
``format_csv``.  Workloads and why they were chosen are in
``perfbench/workloads.py``.

A run first starts one unmeasured process that compiles bytecode and warms
the page cache, then ``SETUP_PROBES`` processes that stop where
``run_sweep`` would be entered, then whole sweeps until ``--seconds`` have
passed (at least one).  Each sweep's CSV is checked against
``perfbench/reference.json`` (see ``reference.py``) and against the first
sweep of the run; a sweep that raises or fails a check counts as failed.

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the run's processes:

- ``sweep_s``: wall seconds of ``run_sweep``;
- ``payload_mbps``: payload bits in the kept batches / ``sweep_s`` / 1e6;
- ``setup_s``: seconds from the start of a process until ``run_sweep`` is
  entered (interpreter start, import, config validation, ``Pipeline``
  construction);
- ``peak_rss_mb``: peak resident memory of a sweep process.

``failure_ratio`` (failed / attempted sweeps) is printed in the report and
carried by the result's ``failed`` and ``attempted``.

With ``--trace 1`` the sweeps run with the wrappers of ``tracing.py`` and
the result holds the per-layer metrics, plus ``trace.overhead_s``: traced
minus untraced ``sweep_s``, from one extra untraced sweep.

Every run prints a manifest and the CSV digest, and writes the manifest,
every sample and the spans to ``perfbench/out/``.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
# A run ends within 180 s: a child still running after this is killed.
RUN_LIMIT_S = 170.0


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class ChildFailed(RuntimeError):
    pass


class Run:
    """One benchmark run: its child processes and the checks on them."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.ref = reference.load()
        self.attempted = self.failed = 0
        self.problems: list = []
        self.first_csv = None

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def child(self, *flags: str) -> dict:
        """Run one child process; return its JSON line plus ``setup_s``."""
        cmd = [sys.executable, str(HERE / "child.py"), "--workload",
               self.workload, "--seed", str(self.seed), *flags]
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, self.remaining()))
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            raise ChildFailed(lines[-1] if lines else
                              f"exit code {proc.returncode}")
        out = json.loads(proc.stdout.splitlines()[-1])
        out["setup_s"] = out["enter"] - spawned
        return out

    def sweep(self, *flags: str):
        """Run and check one sweep; return its sample, or None if it raised."""
        self.attempted += 1
        tag = f"sweep {self.attempted}"
        try:
            sample = self.child(*flags)
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            self.failed += 1
            self.problems.append(f"{tag} failed: {exc}")
            return None
        found = reference.check(self.workload, self.seed, sample["csv"],
                                self.ref)
        stripped = reference.strip_elapsed(sample["csv"])
        self.first_csv = self.first_csv or stripped
        if stripped != self.first_csv:
            found.append("CSV differs from the first sweep of this run")
        if found:
            self.failed += 1
            self.problems += [f"{tag}: {p}" for p in found]
        return sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(args.workload, args.seed)
    try:
        run.child("--setup-only")  # compiles bytecode, warms the page cache
        setups = [run.child("--setup-only")["setup_s"]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: cannot start a sweep process: {exc}", file=sys.stderr)
        return 1

    samples = []
    flags = ("--trace",) if args.trace else ()
    while run.attempted == 0 or (time.monotonic() - run.start < args.seconds
                                 and run.remaining() > 0):
        sample = run.sweep(*flags)
        if sample:
            samples.append(sample)
            setups.append(sample["setup_s"])
    untraced = run.sweep() if args.trace and run.remaining() > 0 else None
    if not samples:
        print("error: no sweep completed", *run.problems, sep="\n",
              file=sys.stderr)
        return 1

    median = statistics.median
    if args.trace:
        layers = [tracing.layer_metrics(s["spans"], s["root"], s["workers"],
                                        s["batches_kept"]) for s in samples]
        values = {k: median(m[k] for m in layers) for k in layers[0]}
        values["trace.overhead_s"] = (
            values["trace.sweep_s"] - untraced["sweep_s"] if untraced else 0.0)
    else:
        values = {
            "sweep_s": median(s["sweep_s"] for s in samples),
            "payload_mbps": median(s["payload_bits"] / s["sweep_s"] / 1e6
                                   for s in samples),
            "setup_s": median(setups),
            "peak_rss_mb": median(s["peak_rss_kb"] / 1024 for s in samples),
        }
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench[kind]}

    manifest = {
        "workload": args.workload, "seed": args.seed,
        "workers": samples[0]["workers"], "trace": args.trace,
        "nproc": os.cpu_count(), **samples[0]["versions"],
        "git_commit": _git_commit(),
        "config_sha256": reference.config_hash(
            workloads.config(args.workload, args.seed)),
        "csv_sha256": hashlib.sha256(run.first_csv.encode()).hexdigest(),
        "csv_checked_against": ("stored reference"
                                if str(args.seed) in run.ref[args.workload]["csv"]
                                else "invariants and stored BLER"),
    }
    OUT.mkdir(exist_ok=True)
    record = {"manifest": manifest, "metrics": metrics,
              "problems": run.problems, "setup_s": setups,
              "samples": [{k: v for k, v in s.items() if k != "versions"}
                          for s in samples]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))

    print("manifest " + json.dumps(manifest))
    for problem in run.problems:
        print("problem", problem)
    print(f"{args.workload} seed {args.seed}: {len(samples)} sweep(s), "
          f"{len(setups)} set-up(s)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failure_ratio':40s} {run.failed / run.attempted:14.6g} ratio "
          f"({run.failed}/{run.attempted})")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
