"""Micro-benchmark of the soft demappers at fixed shapes.

    python3 tools/bench_demap.py [--repeat N]

Each case demaps one fixed complex64 batch of noisy constellation symbols
(the dtype the sweep hands the demapper at ``precision: single``)
``--repeat`` times and prints the median seconds and the demapped symbols
per second.  The symbols and noise are drawn from a fixed seed, so every
run demaps the same input.  The cases:

- 16-QAM and 64-QAM, APP and max-log, 1024x250 symbols, scalar noise
  variance: the AWGN sweeps;
- 64-QAM APP, 128x766 symbols with one noise variance per symbol, as the
  OFDM/TDL sweep passes after zero-forcing: ``no / |h|**2`` with Rayleigh
  ``h``;
- 8-PSK APP, 1024x250 symbols: the single-factor (non-separable) path.
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

from linksim import (Constellation, RngStream, binary_source,  # noqa: E402
                     complex_gaussian, demap_app, demap_maxlog, map_bits)

# (label, kind, bits per symbol, demapper, rows, symbols per row,
#  per-symbol noise variance)
CASES = (
    ("qam16-app", "qam", 4, demap_app, 1024, 250, False),
    ("qam16-maxlog", "qam", 4, demap_maxlog, 1024, 250, False),
    ("qam64-app", "qam", 6, demap_app, 1024, 250, False),
    ("qam64-maxlog", "qam", 6, demap_maxlog, 1024, 250, False),
    ("qam64-app-no/sym", "qam", 6, demap_app, 128, 766, True),
    ("psk8-app", "psk", 3, demap_app, 1024, 250, False),
)
NO = 0.1
SEED = 11


def case_input(const: Constellation, rows: int, cols: int, per_symbol: bool):
    m = const.num_bits_per_symbol
    rng = RngStream(SEED, m)
    x = map_bits(binary_source([rows, cols * m], rng.child(0)), const)
    no = NO
    if per_symbol:
        h = complex_gaussian((rows, cols), rng.child(2))
        no = NO / np.abs(h) ** 2
    noise = complex_gaussian((rows, cols), rng.child(1))
    y = (x + np.sqrt(no) * noise).astype(np.complex64)
    return y, no


def run_case(kind, m, demap, rows, cols, per_symbol, repeat):
    const = Constellation(kind, m)
    y, no = case_input(const, rows, cols, per_symbol)
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        demap(y, no, const)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="calls per case; the median is reported")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    print(f"nproc {os.cpu_count()}, numpy {np.__version__}, "
          f"repeat {args.repeat}")
    print(f"{'case':<18}{'symbols':>9}{'seconds':>10}{'Msym/s':>9}")
    for label, kind, m, demap, rows, cols, per_symbol in CASES:
        seconds = run_case(kind, m, demap, rows, cols, per_symbol,
                           args.repeat)
        symbols = rows * cols
        print(f"{label:<18}{symbols:>9}{seconds:>10.3f}"
              f"{symbols / seconds / 1e6:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
