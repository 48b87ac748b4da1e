"""One measured sweep in a fresh process, as ``linksim run`` would do it.

    python3 perfbench/child.py --workload NAME --seed N [--setup-only]
                               [--trace] [--workers W] [--batch-size B]

Imports linksim from ``src/`` of the checkout, builds the config with
``SimConfig.from_dict``, runs ``run_sweep`` and renders ``format_csv``.
Prints one JSON line: the ``time.monotonic()`` stamp at which
``run_sweep`` was entered (the parent subtracts its spawn stamp to get
set-up time; CLOCK_MONOTONIC is system-wide), the sweep wall time, the
CSV, the payload bits kept, the peak RSS and, when traced, the spans.
With ``--setup-only`` it exits at the point where ``run_sweep`` would be
entered.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    raw = workloads.config(args.workload, args.seed, args.batch_size)
    workers = args.workers or workloads.workers(args.workload)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(f"{args.workload}-{args.seed}")

    import linksim
    if Path(linksim.__file__).resolve().parent != ROOT / "src" / "linksim":
        raise SystemExit(f"linksim imported from {linksim.__file__}, not src/")
    from linksim.sweep import SimConfig, format_csv, run_sweep

    cfg = SimConfig.from_dict(raw)
    out = {"enter": time.monotonic()}
    if not args.setup_only:
        if tracer:
            result = tracer.run_root(run_sweep, cfg, num_workers=workers)
        else:
            result = run_sweep(cfg, num_workers=workers)
        out["sweep_s"] = time.monotonic() - out["enter"]
        import numpy
        import scipy
        out.update(
            csv=format_csv(result),
            payload_bits=sum(p.bits for p in result.points),
            batches_kept=sum(p.batches for p in result.points),
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            workers=workers,
            versions={"python": sys.version.split()[0],
                      "numpy": numpy.__version__, "scipy": scipy.__version__,
                      "linksim": linksim.__version__},
        )
        if tracer:
            out.update(spans=tracer.spans, root=tracer.root)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
