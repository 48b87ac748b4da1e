"""Micro-benchmarks of the hot blocks at fixed shapes.

    python3 tools/bench.py [GROUP ...] [--repeat N]
    python3 tools/bench.py pairs --against REV [--pairs N] [--workload W ...]

GROUP is one of bp, scl, demap, viterbi, encode, sweeps; with none given,
every group runs.  Each micro-benchmark case runs one call on a fixed input
drawn from a fixed seed, so every run sees the same input, ``--repeat``
times (default: BP 3, encode 7, the others 5) and prints the median seconds
and a rate.  The last line of standard output is one JSON object: the rows
of every group run, each number as measured (the printed table rounds
it), and a manifest of the machine and the checkout (nproc, affinity
CPUs, CPU model, Python and numpy versions, ``git rev-parse HEAD``, null
outside a checkout).  Saved as ``BENCH_<pr>.json``, it is the record a
performance change quotes.  The groups:

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
  listing1 sweep's encoder, and (512,1024) at 256 rows, mimo-ldpc's; and
  the polar5g (1024, 512) CRC-24A encoder (``crc_attach`` then
  ``polar_encode``) at 256 rows, polar-cascl's.
- sweeps: every workload of ``BENCHMARK.json`` through
  ``perfbench/run.py --seed 42 --seconds 15``, untraced (``--trace 0``,
  the end-to-end metrics) and traced (``--trace 1``, the per-layer
  metrics); each row keeps the run's ``correct`` flag and its metrics.
  ``--repeat`` does not apply: a run repeats its sweep for 15 s.

``pairs`` compares this checkout, uncommitted edits included, with the
commit REV.  Both sides run from copies in one temporary directory: REV
extracted by ``git archive REV | tar -x``, and the checkout's tracked and
untracked files that git does not ignore, as they are on disk, so that
neither side runs from the working tree.  For each workload (default:
every one of ``BENCHMARK.json``) it runs ``perfbench/run.py --seed 42
--seconds 15`` N times (default 8) in each tree, alternating the trees
and which one runs first in a pair.
Per workload and end-to-end metric it prints both medians and
interquartile ranges and the number of pairs the checkout won, by the
metric's ``better`` direction, and every run's ``correct`` flag; the last
line is one JSON object of these rows and the manifest.  ``--against
HEAD`` in a clean checkout is an A/A run: it shows the spread and bias
between two copies of the same code.

When a ``perfbench/run.py`` run of the sweeps group or of ``pairs`` was
not correct, the script names its workloads, prints its JSON line and
exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
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
        yield label, seconds, rows / seconds, code._graph.num_edges


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
        yield label, seconds, rows / seconds


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
        yield label, symbols, seconds, symbols / seconds / 1e6


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
        yield (f"{name}-{rows}x{k}", seconds, rows / seconds,
               rows * steps / seconds / 1e6)


def bench_encode(repeat):
    yield "case", "seconds", "codewords/s"
    for k, n, rows in ((500, 1000, 1024), (512, 1024, 256)):
        code = LdpcCode5G(k, n)
        bits = binary_source([rows, k], RngStream(9, k))
        seconds = median_seconds(lambda: ldpc5g_encode(bits, code), repeat)
        yield f"{k}x{n}-{rows}", seconds, rows / seconds
    k, n, rows = 512, 1024, 256
    code = polar5g_construct(k, n, crc=CRC_POLYNOMIALS["crc24a"])
    bits = binary_source([rows, k - code.crc.degree], RngStream(9, n))
    seconds = median_seconds(
        lambda: polar_encode(crc_attach(bits, code.crc), code), repeat)
    yield f"polar-{k}x{n}-{rows}", seconds, rows / seconds


def bench_sweeps(workloads):
    yield "case", "correct", "metrics"
    for workload in workloads:
        for trace in (0, 1):
            result = perfbench_run(ROOT, workload, trace)
            yield f"{workload}-trace{trace}", result["correct"], result["metrics"]


def extract(rev: str, dest: Path) -> None:
    """``git archive REV | tar -x`` into ``dest``."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"error: cannot extract {rev!r}")


def copy_checkout(dest: Path) -> None:
    """Copy the checkout's tracked and untracked, not ignored files, as they
    are on disk, into ``dest``."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True).stdout.split(b"\0")
    for name in map(os.fsdecode, filter(None, names)):
        if (ROOT / name).is_file():  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def perfbench_run(tree: Path, workload: str, trace: int = 0) -> dict:
    """One ``perfbench/run.py --seed 42 --seconds 15`` run in ``tree``: its
    correct flag and its metric values (none when it failed)."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "42", "--seconds", "15", "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"correct": False, "metrics": {}}
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"correct": result["correct"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def _iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs, better):
    """Rows of the pairs report.

    ``runs`` maps a workload to its list of pairs, each a dict with the
    ``"base"`` and ``"change"`` run (see :func:`perfbench_run`);
    ``better`` maps each metric to ``"lower"`` or ``"higher"``.  A pair
    counts as won when both runs have the metric and the change's value
    is strictly better.
    """
    rows = []
    for workload, pairs in runs.items():
        correct = {side: [pair[side]["correct"] for pair in pairs]
                   for side in ("base", "change")}
        for metric, direction in better.items():
            sign = 1.0 if direction == "lower" else -1.0
            both = [(pair["base"]["metrics"][metric],
                     pair["change"]["metrics"][metric]) for pair in pairs
                    if metric in pair["base"]["metrics"]
                    and metric in pair["change"]["metrics"]]
            values = {side: [pair[side]["metrics"][metric] for pair in pairs
                             if metric in pair[side]["metrics"]]
                      for side in ("base", "change")}
            if not values["base"] or not values["change"]:
                continue
            rows.append({
                "workload": workload, "metric": metric,
                "base_median": statistics.median(values["base"]),
                "base_iqr": _iqr(values["base"]),
                "change_median": statistics.median(values["change"]),
                "change_iqr": _iqr(values["change"]),
                "won": sum(sign * (c - b) < 0 for b, c in both),
                "pairs": len(pairs),
                "base_correct": correct["base"],
                "change_correct": correct["change"]})
    return rows


def run_pairs(rev: str, num_pairs: int, workloads, better) -> dict:
    runs = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"base": Path(tmp, "base"), "change": Path(tmp, "change")}
        trees["base"].mkdir()
        extract(rev, trees["base"])
        copy_checkout(trees["change"])
        for workload in workloads:
            runs[workload] = []
            for i in range(num_pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {side: perfbench_run(trees[side], workload)
                        for side in order}
                runs[workload].append(pair)
                print(f"{workload} pair {i + 1}: " + ", ".join(
                    f"{side} {pair[side]['metrics'].get('sweep_s', float('nan')):.3f} s"
                    f"{'' if pair[side]['correct'] else ' (not correct)'}"
                    for side in order), flush=True)
    return {"against": rev, "pairs": num_pairs, "rows": summarize(runs, better)}


def not_correct(report, workloads) -> list:
    """Workloads of a pairs report with a run that was not correct; one
    whose runs on a side all failed has no row."""
    flags = {workload: [] for workload in workloads}
    for row in report["rows"]:
        flags[row["workload"]] += row["base_correct"] + row["change_correct"]
    return [workload for workload, ok in flags.items() if not ok or not all(ok)]


def print_pairs(report, failed) -> None:
    print(f"\nchange vs {report['against']}, {report['pairs']} pairs: "
          "medians (IQR), pairs the change won")
    for row in report["rows"]:
        print(f"{row['workload']:<12}{row['metric']:<14}"
              f"{row['base_median']:>10.4g} ({row['base_iqr']:.3g}) -> "
              f"{row['change_median']:.4g} ({row['change_iqr']:.3g})"
              f"{row['won']:>4}/{row['pairs']}")
    print("every run correct" if not failed else
          f"runs not correct in: {', '.join(failed)}")


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


def _cell(value) -> str:
    """One printed cell; a dict (a sweep's metrics) is one line per entry."""
    if isinstance(value, dict):
        return "".join(f"\n  {k:<40}{_cell(v)}" for k, v in value.items())
    return f"{value:>13.6g}" if isinstance(value, float) else f"{value!s:>13}"


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    # name -> (cases of a repeat count, default repeat)
    groups = {"bp": (bench_bp, 3), "scl": (bench_scl, 5),
              "demap": (bench_demap, 5), "viterbi": (bench_viterbi, 5),
              "encode": (bench_encode, 7),
              "sweeps": (lambda repeat: bench_sweeps(workloads), 1)}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("groups", nargs="*", metavar="GROUP",
                        help=f"one of {', '.join(groups)}, or pairs alone; "
                        "default: every group")
    parser.add_argument("--repeat", type=int, default=None,
                        help="calls per case; the median is reported")
    parser.add_argument("--against", metavar="REV",
                        help="pairs: the commit to compare this checkout with")
    parser.add_argument("--pairs", type=int, default=8,
                        help="pairs: runs per tree and workload (default 8)")
    parser.add_argument("--workload", action="append",
                        help="pairs: a workload to run (default: all)")
    args = parser.parse_args(argv)
    if args.groups == ["pairs"]:
        if not args.against:
            parser.error("pairs needs --against REV")
        if args.pairs < 1:
            parser.error("--pairs must be >= 1")
        for workload in args.workload or ():
            if workload not in workloads:
                parser.error(f"unknown workload {workload!r}")
        workloads = args.workload or workloads
        report = run_pairs(args.against, args.pairs, workloads,
                           {m["name"]: m["better"] for m in bench["end_to_end"]})
        failed = not_correct(report, workloads)
        print_pairs(report, failed)
        print(json.dumps({"manifest": manifest(), "groups": {"pairs": report}}))
        return 1 if failed else 0
    for name in args.groups:
        if name not in groups:
            parser.error(f"unknown group {name!r}")
    if args.repeat is not None and args.repeat < 1:
        parser.error("--repeat must be >= 1")
    # The BP decoder's row tiles run on every CPU of the affinity mask.
    print(f"nproc {os.cpu_count()}, affinity CPUs {cpu_count()}, "
          f"numpy {np.__version__}")
    record = {"manifest": manifest(), "groups": {}}
    for name in args.groups or groups:
        cases, default_repeat = groups[name]
        repeat = args.repeat or default_repeat
        print(f"\n{name}, repeat {repeat}")
        rows = []
        for cells in cases(repeat):
            print(f"{cells[0]:<18}" + "".join(map(_cell, cells[1:])), flush=True)
            rows.append(cells)
        header, *rows = rows
        record["groups"][name] = {
            "repeat": repeat, "rows": [dict(zip(header, cells)) for cells in rows]}
    failed = [row["case"] for row in record["groups"].get("sweeps", {}).get("rows", ())
              if not row["correct"]]
    if failed:
        print(f"runs not correct in: {', '.join(failed)}")
    print(json.dumps(record))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
