"""Micro-benchmark of the polar SC and CA-SCL decoders at fixed shapes.

    python3 tools/bench_scl.py [--repeat N]

Each case decodes one fixed batch of BPSK AWGN LLRs ``--repeat`` times and
prints the median seconds and codewords per second.  The code is the
polar5g (1024, 512) code with CRC-24A (488 payload bits), as in the
benchmark's polar-cascl sweep; the 256 rows are drawn at Eb/N0 = 1 dB
from a fixed seed, so every run decodes the same input.  The cases:

- CA-SCL with L=8 and with L=32 (``polar_scl_decode``, ``use_crc=True``),
  the call the sweep makes;
- SC (``polar_sc_decode``) on the same LLRs, the L=1 baseline.
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

from linksim import (CRC_POLYNOMIALS, RngStream, awgn,  # noqa: E402
                     binary_source, crc_attach, ebnodb2no, polar5g_construct,
                     polar_encode, polar_sc_decode, polar_scl_decode)

K, N, CRC = 512, 1024, "crc24a"
ROWS = 256
EBNO_DB = 1.0
SEED = 5

# (label, decode(llr, code))
CASES = (
    ("ca-scl-L8", lambda llr, code: polar_scl_decode(
        llr, code, list_size=8, use_crc=True)),
    ("ca-scl-L32", lambda llr, code: polar_scl_decode(
        llr, code, list_size=32, use_crc=True)),
    ("sc", polar_sc_decode),
)


def case_llr(code):
    crc = code.crc
    rng = RngStream(SEED, 0)
    payload = binary_source([ROWS, K - crc.degree], rng.child(0))
    x = polar_encode(crc_attach(payload, crc), code)
    no = ebnodb2no(EBNO_DB, 1, K / N)
    y = awgn((1.0 - 2.0 * x).astype(np.complex128), no, rng.child(1))
    return -4.0 * np.real(y) / no


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="decodes per case; the median is reported")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    code = polar5g_construct(K, N, crc=CRC_POLYNOMIALS[CRC])
    llr = case_llr(code)
    print(f"nproc {os.cpu_count()}, numpy {np.__version__}, "
          f"repeat {args.repeat}, ({N},{K}) {CRC}, {ROWS} rows "
          f"at {EBNO_DB} dB")
    print(f"{'case':<12}{'seconds':>10}{'codewords/s':>14}")
    for label, decode in CASES:
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            decode(llr, code)
            times.append(time.perf_counter() - t0)
        seconds = statistics.median(times)
        print(f"{label:<12}{seconds:>10.3f}{ROWS / seconds:>14.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
