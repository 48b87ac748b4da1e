"""Micro-benchmarks of the hot blocks at fixed shapes.

    python3 tools/bench.py [GROUP ...] [--repeat N]

GROUP is one of bp, scl, demap, viterbi, encode, sweeps; with none given,
every group runs.  Each micro-benchmark case runs one call on a fixed input
drawn from a fixed seed, so every run sees the same input, ``--repeat``
times (default: BP 3, encode 7, the others 5) and prints the median seconds
and a rate.  The last line of standard output is one JSON object: the rows
of every group run, and a manifest of the machine and the checkout (nproc,
affinity CPUs, CPU model, Python and numpy versions, ``git rev-parse
HEAD``, null outside a checkout).  Saved as ``BENCH_<pr>.json``, it is the
record a performance change quotes.  The groups:

- bp: ``ldpc5g_decode`` on float32 16-QAM AWGN LLRs, 20 iterations, also
  printing the edge count of the graph BP runs on.  (500,1000)
  sum-product, 1024 rows, max-log demap, at 3 dB (all iterations run) and
  7 dB (rows stop early): the Listing-1 decoder; (512,1024) min-sum, 256
  rows, APP demap, at 3 dB: the min-sum branch at a 4x smaller batch.
  The row tiles run on the calling thread and one helper thread per
  further CPU of the affinity mask, whose size is printed first;
  ``taskset -c 0 python3 tools/bench.py bp`` times one thread.
- scl: the polar5g (1024, 512) code with CRC-24A (488 payload bits), as
  in the benchmark's polar-cascl sweep, on 256 BPSK AWGN rows at
  Eb/N0 = 1 dB.  CA-SCL with L=8 and L=32 (``polar_scl_decode``,
  ``use_crc=True``), the call the sweep makes, and SC
  (``polar_sc_decode``), the L=1 baseline.
- demap: noisy complex64 symbols (the dtype the sweep hands the demapper
  at ``precision: single``).  16-QAM and 64-QAM, APP and max-log,
  1024x250 symbols, scalar noise variance: the AWGN sweeps; 64-QAM APP,
  128x766 symbols with one noise variance per symbol, ``no / |h|**2``
  with Rayleigh ``h``, as the OFDM/TDL sweep passes after zero-forcing;
  8-PSK APP, 1024x250 symbols: the single-factor (non-separable) path.
- viterbi: ``viterbi_decode`` of zero-tail codes on LLRs from a 0.5
  grid, so that path metrics tie.  The K=7 (133, 171) code (64 states):
  64 rows of k=500, and 128 rows of k=2298, the shape of the benchmark's
  ofdm-tdl sweep; the K=9 rate-1/3 (557, 663, 711) code (256 states):
  128 rows of k=500.
- encode: ``ldpc5g_encode`` of random bits: (500,1000) at 1024 rows, the
  listing1 sweep's encoder, and (512,1024) at 256 rows, mimo-ldpc's.
- sweeps: every workload of ``BENCHMARK.json`` through
  ``perfbench/run.py --seed 42 --seconds 15``, untraced (``--trace 0``,
  the end-to-end metrics) and traced (``--trace 1``, the per-layer
  metrics); each row keeps the run's ``correct`` flag and its metrics.
  ``--repeat`` does not apply: a run repeats its sweep for 15 s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from linksim import (CRC_POLYNOMIALS, Constellation, ConvCode,  # noqa: E402
                     LdpcCode5G, RngStream, awgn, binary_source,
                     complex_gaussian, crc_attach, demap_app, demap_maxlog,
                     ebnodb2no, ldpc5g_decode, ldpc5g_encode, map_bits,
                     polar5g_construct, polar_encode, polar_sc_decode,
                     polar_scl_decode, viterbi_decode)
from linksim.core import cpu_count  # noqa: E402


def median_seconds(call, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def bench_bp(repeat):
    yield "case", "seconds", "codewords/s", "edges"
    const = Constellation("qam", 4)
    # (label, k, n, variant, rows, Eb/N0 dB, demapper)
    for label, k, n, variant, rows, ebno_db, demap in (
            ("sp-500x1000-3dB", 500, 1000, "sum-product", 1024, 3.0,
             demap_maxlog),
            ("sp-500x1000-7dB", 500, 1000, "sum-product", 1024, 7.0,
             demap_maxlog),
            ("ms-512x1024-3dB", 512, 1024, "min-sum", 256, 3.0, demap_app)):
        code = LdpcCode5G(k, n)
        rng = RngStream(7, 0)
        bits = binary_source([rows, code.k], rng.child(0))
        x = map_bits(ldpc5g_encode(bits, code), const).astype(np.complex64)
        no = ebnodb2no(ebno_db, 4, code.coderate)
        y = awgn(x, no, rng.child(1))
        llr = np.asarray(demap(y, no, const), dtype=np.float32)
        seconds = median_seconds(lambda: ldpc5g_decode(
            llr, code, num_iter=20, variant=variant), repeat)
        yield (label, f"{seconds:.3f}", f"{rows / seconds:.1f}",
               code._graph.num_edges)


def bench_scl(repeat):
    yield "case", "seconds", "codewords/s"
    k, n, rows, ebno_db = 512, 1024, 256, 1.0
    code = polar5g_construct(k, n, crc=CRC_POLYNOMIALS["crc24a"])
    rng = RngStream(5, 0)
    payload = binary_source([rows, k - code.crc.degree], rng.child(0))
    x = polar_encode(crc_attach(payload, code.crc), code)
    no = ebnodb2no(ebno_db, 1, k / n)
    y = awgn((1.0 - 2.0 * x).astype(np.complex128), no, rng.child(1))
    llr = -4.0 * np.real(y) / no
    for label, decode in (
            ("ca-scl-L8", lambda: polar_scl_decode(
                llr, code, list_size=8, use_crc=True)),
            ("ca-scl-L32", lambda: polar_scl_decode(
                llr, code, list_size=32, use_crc=True)),
            ("sc", lambda: polar_sc_decode(llr, code))):
        seconds = median_seconds(decode, repeat)
        yield label, f"{seconds:.3f}", f"{rows / seconds:.1f}"


def bench_demap(repeat):
    yield "case", "symbols", "seconds", "Msym/s"
    # (label, kind, bits per symbol, demapper, rows, symbols per row,
    #  per-symbol noise variance)
    for label, kind, m, demap, rows, cols, per_symbol in (
            ("qam16-app", "qam", 4, demap_app, 1024, 250, False),
            ("qam16-maxlog", "qam", 4, demap_maxlog, 1024, 250, False),
            ("qam64-app", "qam", 6, demap_app, 1024, 250, False),
            ("qam64-maxlog", "qam", 6, demap_maxlog, 1024, 250, False),
            ("qam64-app-no/sym", "qam", 6, demap_app, 128, 766, True),
            ("psk8-app", "psk", 3, demap_app, 1024, 250, False)):
        const = Constellation(kind, m)
        rng = RngStream(11, m)
        x = map_bits(binary_source([rows, cols * m], rng.child(0)), const)
        no = 0.1
        if per_symbol:
            no = no / np.abs(complex_gaussian((rows, cols), rng.child(2))) ** 2
        noise = complex_gaussian((rows, cols), rng.child(1))
        y = (x + np.sqrt(no) * noise).astype(np.complex64)
        seconds = median_seconds(lambda: demap(y, no, const), repeat)
        symbols = rows * cols
        yield (label, symbols, f"{seconds:.3f}",
               f"{symbols / seconds / 1e6:.2f}")


def bench_viterbi(repeat):
    yield "case", "seconds", "codewords/s", "Msteps/s"
    k7 = ConvCode(7, (0o133, 0o171))
    k9 = ConvCode(9, (0o557, 0o663, 0o711))
    for name, code, rows, k in (("k7", k7, 64, 500), ("k7", k7, 128, 2298),
                                ("k9-r1/3", k9, 128, 500)):
        steps = k + code.tail_bits
        g = RngStream(3, k).generator()
        llr = 0.5 * g.integers(-4, 5, size=(rows, code.num_outputs * steps))
        seconds = median_seconds(lambda: viterbi_decode(llr, code), repeat)
        yield (f"{name}-{rows}x{k}", f"{seconds:.3f}", f"{rows / seconds:.1f}",
               f"{rows * steps / seconds / 1e6:.3f}")


def bench_encode(repeat):
    yield "case", "seconds", "codewords/s"
    for k, n, rows in ((500, 1000, 1024), (512, 1024, 256)):
        code = LdpcCode5G(k, n)
        bits = binary_source([rows, k], RngStream(9, k))
        seconds = median_seconds(lambda: ldpc5g_encode(bits, code), repeat)
        yield f"{k}x{n}-{rows}", f"{seconds:.4f}", f"{rows / seconds:.1f}"


def bench_sweeps(repeat):
    yield "case", "correct", "metrics"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in bench["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload["name"], "--seed", "42",
                 "--seconds", "15", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            result = (json.loads(proc.stdout.splitlines()[-1])
                      if proc.returncode == 0 else {"correct": False})
            yield (f"{workload['name']}-trace{trace}", result["correct"],
                   {name: m["value"]
                    for name, m in result.get("metrics", {}).items()})


# name -> (cases, default repeat)
GROUPS = {"bp": (bench_bp, 3), "scl": (bench_scl, 5),
          "demap": (bench_demap, 5), "viterbi": (bench_viterbi, 5),
          "encode": (bench_encode, 7), "sweeps": (bench_sweeps, 1)}


def manifest() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                          if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    return {"nproc": os.cpu_count(), "affinity_cpus": cpu_count(),
            "cpu_model": model or platform.processor() or None,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_head": commit}


def _json_value(cell):
    """A printed number back as a number; other cells as they are."""
    try:
        return float(cell) if isinstance(cell, str) else cell
    except ValueError:
        return cell


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("groups", nargs="*", metavar="GROUP",
                        help=f"one of {', '.join(GROUPS)}; default: all")
    parser.add_argument("--repeat", type=int, default=None,
                        help="calls per case; the median is reported")
    args = parser.parse_args(argv)
    for name in args.groups:
        if name not in GROUPS:
            parser.error(f"unknown group {name!r}")
    if args.repeat is not None and args.repeat < 1:
        parser.error("--repeat must be >= 1")
    # The BP decoder's row tiles run on every CPU of the affinity mask.
    print(f"nproc {os.cpu_count()}, affinity CPUs {cpu_count()}, "
          f"numpy {np.__version__}")
    record = {"manifest": manifest(), "groups": {}}
    for name in args.groups or GROUPS:
        cases, default_repeat = GROUPS[name]
        repeat = args.repeat or default_repeat
        print(f"\n{name}, repeat {repeat}")
        rows = []
        for cells in cases(repeat):
            # A sweeps row ends in its metrics, printed one per line below.
            metrics = cells[-1] if isinstance(cells[-1], dict) else None
            shown = cells[:-1] if metrics is not None else cells
            print(f"{shown[0]:<18}" + "".join(f"{c!s:>13}" for c in shown[1:]),
                  flush=True)
            for metric, value in (metrics or {}).items():
                print(f"  {metric:<40}{value:>14.6g}")
            rows.append(cells)
        header, *rows = rows
        record["groups"][name] = {
            "repeat": repeat,
            "rows": [dict(zip(header, map(_json_value, cells))) for cells in rows]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
