"""Micro-benchmark of the 5G LDPC belief-propagation decoder at fixed shapes.

    python3 tools/bench_bp.py [--repeat N]

Each case decodes one fixed batch of float32 16-QAM AWGN LLRs with
``ldpc5g_decode``, the call the sweep makes, ``--repeat`` times and prints
the median seconds, codewords per second and the edge count of the graph
BP runs on.  The LLRs are drawn from a fixed seed, so every run decodes the
same input.  The cases:

- (500,1000) sum-product, 20 iterations, 1024 rows, max-log demap, at
  3 dB (all iterations run) and 7 dB (rows stop early): the Listing-1
  decoder;
- (512,1024) min-sum, 20 iterations, 256 rows, APP demap, at 3 dB: the
  min-sum branch at a 4x smaller batch.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from linksim import (Constellation, LdpcCode5G, RngStream, awgn,  # noqa: E402
                     binary_source, demap_app, demap_maxlog, ebnodb2no,
                     ldpc5g_decode, ldpc5g_encode, map_bits)

# (label, k, n, variant, rows, Eb/N0 dB, demapper)
CASES = (
    ("sp-500x1000-3dB", 500, 1000, "sum-product", 1024, 3.0, demap_maxlog),
    ("sp-500x1000-7dB", 500, 1000, "sum-product", 1024, 7.0, demap_maxlog),
    ("ms-512x1024-3dB", 512, 1024, "min-sum", 256, 3.0, demap_app),
)
NUM_ITER = 20
SEED = 7


def case_llr(code: LdpcCode5G, rows: int, ebno_db: float, demap):
    const = Constellation("qam", 4)
    rng = RngStream(SEED, 0)
    bits = binary_source([rows, code.k], rng.child(0))
    x = map_bits(ldpc5g_encode(bits, code), const).astype(np.complex64)
    no = ebnodb2no(ebno_db, 4, code.coderate)
    y = awgn(x, no, rng.child(1))
    return np.asarray(demap(y, no, const), dtype=np.float32)


def run_case(k, n, variant, rows, ebno_db, demap, repeat):
    code = LdpcCode5G(k, n)
    llr = case_llr(code, rows, ebno_db, demap)
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        ldpc5g_decode(llr, code, num_iter=NUM_ITER, variant=variant)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), code._graph.num_edges


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="decodes per case; the median is reported")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    print(f"nproc {os.cpu_count()}, numpy {np.__version__}, "
          f"repeat {args.repeat}")
    print(f"{'case':<18}{'seconds':>10}{'codewords/s':>14}{'edges':>8}")
    for label, k, n, variant, rows, ebno_db, demap in CASES:
        seconds, edges = run_case(k, n, variant, rows, ebno_db, demap,
                                  args.repeat)
        print(f"{label:<18}{seconds:>10.3f}{rows / seconds:>14.1f}{edges:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
