"""Outside-in tracing of a sweep: spans around the library calls it makes.

:func:`install` replaces the public functions that ``linksim.sweep`` calls
with wrappers that record one span per call.  ``src/linksim`` is not
changed; the wrappers are installed on the modules' namespaces in the
traced process only, before any ``Pipeline`` is built (``Pipeline.demap``
is bound to ``demap_app`` or ``demap_maxlog`` at construction).

A span is ``[name, start, end, parent, thread, run, point, work]``:
``parent`` is the index of the enclosing span (or ``None``), ``point`` the
Eb/N0 of the batch the span belongs to, and ``work`` a count of items the
call processed (codewords, symbols, trellis steps).  Spans stay in memory
and are written out by the caller at the end.

:func:`layer_metrics` turns spans into the per-layer metrics.  A layer's
self time is the time its spans cover minus the part their child spans
cover.
"""

from __future__ import annotations

import functools
import threading
import time

NAME, START, END, PARENT, THREAD, RUN, POINT, WORK = range(8)

# Span names of the sweep engine itself; their self time is sweep.self_s.
SWEEP_SPANS = ("sweep", "sweep.batch", "sweep.build")

# Layers reported as <layer>.self_s, in report order.
LAYERS = (
    "ldpc.decode", "ldpc.encode", "mapping.demap", "mapping.map_bits",
    "polar.decode", "polar.encode", "convcode.viterbi", "convcode.encode",
    "channel.awgn", "channel.flat_fading", "channel.tdl", "ofdm",
    "mimo.equalize", "core.binary_source", "core.count_errors",
)


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.root = None  # parent of spans opened on pool threads
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, work: int = 0, point=None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        if point is None and parent is not None:
            point = self.spans[parent][POINT]
        span = [name, time.perf_counter(), None, parent,
                threading.get_ident(), self.run_id, point, work]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def call(self, name: str, fn, *args, work: int = 0, point=None, **kwargs):
        index = self.open(name, work, point)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def run_root(self, fn, *args, **kwargs):
        """Run ``fn`` as the root span ``sweep``; pool threads hang off it."""
        self.root = self.open("sweep")
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(self.root)


def _wrap(tracer: Tracer, owner, attr: str, name: str, work=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        count = work(*args, **kwargs) if work else 0
        return tracer.call(name, fn, *args, work=count, **kwargs)

    setattr(owner, attr, traced)


def _rows(llr, *_args, **_kwargs) -> int:
    return int(llr.shape[0])


def _symbols(y, *_args, **_kwargs) -> int:
    return int(y.size)


def _trellis_steps(llr, code, *_args, **_kwargs) -> int:
    return int(llr.shape[0] * (llr.shape[1] // code.num_outputs))


def install(run_id: str) -> Tracer:
    """Wrap the library calls of ``linksim.sweep``; return the tracer."""
    from linksim import channel, mimo, ofdm, sweep

    tracer = Tracer(run_id)
    wraps = [
        (sweep, "binary_source", "core.binary_source", None),
        (sweep, "count_errors", "core.count_errors", None),
        (sweep, "map_bits", "mapping.map_bits", None),
        (sweep, "demap_app", "mapping.demap", _symbols),
        (sweep, "demap_maxlog", "mapping.demap", _symbols),
        (sweep, "ldpc5g_encode", "ldpc.encode", None),
        (sweep, "ldpc5g_decode", "ldpc.decode", _rows),
        (sweep, "crc_attach", "polar.encode", None),
        (sweep, "polar_encode", "polar.encode", None),
        (sweep, "polar_sc_decode", "polar.decode", _rows),
        (sweep, "polar_scl_decode", "polar.decode", _rows),
        (sweep, "conv_encode", "convcode.encode", None),
        (sweep, "viterbi_decode", "convcode.viterbi", _trellis_steps),
        (sweep, "build_pipeline", "sweep.build", None),
        (channel, "awgn", "channel.awgn", None),
        (channel, "flat_fading", "channel.flat_fading", None),
        (channel, "generate_tdl_cir", "channel.tdl", None),
        (channel, "apply_time_domain", "channel.tdl", None),
        (mimo, "lmmse_equalize", "mimo.equalize", None),
    ]
    wraps += [(ofdm, attr, "ofdm", None)
              for attr in ("rg_map", "rg_demap", "ofdm_modulate",
                           "ofdm_demodulate", "ls_estimate", "nn_interpolate")]
    for owner, attr, name, work in wraps:
        _wrap(tracer, owner, attr, name, work)

    run_batch = sweep.Pipeline.run_batch

    @functools.wraps(run_batch)
    def traced_batch(self, ebno_db, *args, **kwargs):
        return tracer.call("sweep.batch", run_batch, self, ebno_db, *args,
                           point=ebno_db, **kwargs)

    sweep.Pipeline.run_batch = traced_batch
    return tracer


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list, root: int) -> dict:
    """Self time of every span under ``root`` (inclusive), by span index."""
    children: dict = {}
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(i)
    out = {}
    todo = [root]
    while todo:
        i = todo.pop()
        kids = children.get(i, [])
        todo.extend(kids)
        start, end = spans[i][START], spans[i][END]
        inner = [(max(spans[k][START], start), min(spans[k][END], end))
                 for k in kids]
        out[i] = (end - start) - _covered(iv for iv in inner if iv[1] > iv[0])
    return out


def layer_metrics(spans: list, root: int, workers: int,
                  batches_kept: int) -> dict:
    """Per-layer metrics of one traced sweep whose root span is ``root``."""
    own = self_times(spans, root)
    layer_s = dict.fromkeys(LAYERS + ("sweep",), 0.0)
    work = dict.fromkeys(LAYERS, 0)
    decode_by_point: dict = {}
    batches_run = 0
    busy = 0.0
    for i, s in own.items():
        span = spans[i]
        name = span[NAME]
        if name in SWEEP_SPANS:
            layer_s["sweep"] += s
        else:
            layer_s[name] += s
            work[name] += span[WORK]
        if name == "sweep.batch":
            batches_run += 1
            busy += span[END] - span[START]
        elif name == "ldpc.decode":
            decode_by_point[span[POINT]] = decode_by_point.get(span[POINT], 0.0) + s

    def rate(layer, scale=1.0):
        return work[layer] / layer_s[layer] / scale if layer_s[layer] else 0.0

    wall = spans[root][END] - spans[root][START]
    out = {f"{layer}.self_s": s for layer, s in layer_s.items()}
    points = sorted(decode_by_point)
    out.update({
        "ldpc.decode.codewords_per_s": rate("ldpc.decode"),
        "ldpc.decode.self_s.first_point":
            decode_by_point[points[0]] if points else 0.0,
        "ldpc.decode.self_s.last_point":
            decode_by_point[points[-1]] if points else 0.0,
        "mapping.demap.msym_per_s": rate("mapping.demap", 1e6),
        "polar.decode.codewords_per_s": rate("polar.decode"),
        "convcode.viterbi.trellis_steps_per_s": rate("convcode.viterbi"),
        "sweep.batches_run": batches_run,
        "sweep.batches_kept": batches_kept,
        "sweep.batch_useful_ratio":
            batches_kept / batches_run if batches_run else 0.0,
        "sweep.worker_busy_s": busy,
        "sweep.parallel_efficiency": busy / (workers * wall) if wall else 0.0,
        "sweep.pipeline_builds": sum(1 for span in spans
                                     if span[NAME] == "sweep.build"),
        "trace.sweep_s": wall,
    })
    return out
