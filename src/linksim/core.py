"""Batched array conventions, seeded random streams, unit conversions and
error-rate metrics shared by all blocks.

Every block in this library operates on plain numpy arrays whose leading
axis is the Monte Carlo batch dimension, i.e. independent trials that are
simulated in parallel.  Bits are stored as ``uint8`` arrays with values in
{0, 1}; soft values are real floats, signals are complex.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

# Saturation magnitude for log-likelihood ratios.  The global convention is
# L = ln(Pr(b=1) / Pr(b=0)), hard decision 1 iff L > 0 (ties decide 0).
LLR_MAX = 40.0

# Byte budget of one tile of a large batched temporary: the demapper's
# subset tensor, the Viterbi branch metrics, the LMMSE equalizer's channel
# matrices and (twice this) the LDPC decoder's edge messages.  The loops
# over such tiles keep a handful of them live, so a tile of this size
# stays in the per-core caches; chosen with `tools/bench.py`.
TILE_BYTES = 1 << 20

_MASK64 = (1 << 64) - 1
# Odd multiplier (golden-ratio based) used to derive child stream ids.
_STREAM_MIX = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by ``(seed, stream_id)``.

    Streams built from the same pair produce identical draw sequences on
    every platform and for any worker partitioning, which is what makes
    simulations reproducible independently of the degree of parallelism.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = ((self.seed & _MASK64) << 64) | (self.stream_id & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derive a decorrelated sub-stream, e.g. one per simulation block."""
        mixed = ((self.stream_id * _STREAM_MIX) + index + 1) & _MASK64
        return RngStream(self.seed, mixed)


def binary_source(shape, rng: RngStream) -> np.ndarray:
    """Draw i.i.d. uniform bits of the given shape, deterministically."""
    shape = tuple(int(s) for s in np.atleast_1d(np.asarray(shape, dtype=np.int64)))
    if len(shape) == 0:
        raise ValueError("binary_source: shape must not be empty")
    if any(s < 1 for s in shape):
        raise ValueError(f"binary_source: all dimensions must be >= 1, got {shape}")
    return rng.generator().integers(0, 2, size=shape, dtype=np.uint8)


def ebnodb2no(ebno_db: float, bits_per_symbol: int, coderate: float) -> float:
    """Convert Eb/N0 in dB to a complex noise variance N0.

    Assumes unit average symbol energy, so
    ``N0 = 1 / (10^(ebno_db/10) * coderate * bits_per_symbol)``.
    """
    if bits_per_symbol < 1:
        raise ValueError("ebnodb2no: bits_per_symbol must be >= 1")
    if not 0.0 < coderate <= 1.0:
        raise ValueError(f"ebnodb2no: coderate must be in (0, 1], got {coderate}")
    ebno = 10.0 ** (float(ebno_db) / 10.0)
    return 1.0 / (ebno * coderate * bits_per_symbol)


def compute_ber(b: np.ndarray, b_hat: np.ndarray) -> float:
    """Fraction of positions where the two batched bit arrays differ."""
    return count_errors(b, b_hat)[0] / np.size(b)


def compute_bler(b: np.ndarray, b_hat: np.ndarray) -> float:
    """Fraction of batch rows (axis 0) containing at least one bit error."""
    return count_errors(b, b_hat)[1] / np.shape(b)[0]


def count_errors(b: np.ndarray, b_hat: np.ndarray) -> tuple[int, int]:
    """Return (bit errors, block errors) between two batched bit arrays."""
    b = np.asarray(b)
    b_hat = np.asarray(b_hat)
    if b.shape != b_hat.shape:
        raise ValueError(f"shape mismatch {b.shape} vs {b_hat.shape}")
    diff = (b != b_hat).reshape(b.shape[0], math.prod(b.shape[1:]))
    return int(diff.sum()), int(np.any(diff, axis=1).sum())


def tile_rows(bytes_per_row: int, budget: int = TILE_BYTES) -> int:
    """Rows of ``bytes_per_row`` bytes each that fit ``budget`` bytes; at
    least one, also for rows of no bytes."""
    return max(1, budget // max(bytes_per_row, 1))


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Helper threads of map_tiles, the only threads linksim starts: at most one
# per further CPU alive at once, counted process-wide, so the calling threads
# and the helpers use each CPU once.  The sweep's batch waves and the BP row
# tiles share the count.  The affinity mask (``taskset``) is the only
# control, as with a threaded BLAS.
_HELPERS = cpu_count() - 1
_running = 0
_running_lock = threading.Lock()


def map_tiles(fn, starts) -> None:
    """Call ``fn(start)`` once for every start of the sequence ``starts``,
    on the calling thread and on helper threads at once.

    Each thread takes the next start from one shared iterator, so tiles
    that finish early leave more for the others.  ``fn`` must only write
    what its own tile owns; numpy releases the GIL inside each array
    operation, so the tiles' operations overlap.  A call starts only the
    helpers that the process-wide count of ``_HELPERS`` leaves free, and
    joins them before it returns, so a nested call while every CPU is busy
    runs inline, nothing waits for a helper, and no thread outlives the
    call.  The first exception raised by ``fn`` on any thread reaches the
    caller once every thread has stopped.  With one CPU no thread is
    started.
    """
    global _running
    pending = iter(starts)
    lock = threading.Lock()
    errors = []

    def take():
        with lock:
            return next(pending, None)

    def work():
        nonlocal pending
        try:
            for start in iter(take, None):
                fn(start)
        except BaseException as error:
            with lock:  # the other threads stop at their next take
                pending = iter(())
                errors.append(error)

    with _running_lock:
        helpers = max(0, min(_HELPERS - _running, len(starts) - 1))
        _running += helpers
    threads = []
    try:
        for i in range(helpers):
            thread = threading.Thread(target=work, name=f"linksim-tile-{i}")
            thread.start()
            threads.append(thread)
        work()
    finally:
        for thread in threads:
            thread.join()
        with _running_lock:
            _running -= helpers
    if errors:
        raise errors[0]


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in numpy's pairwise order, bit for bit that of
    ``.sum(axis=-1)`` over a contiguous last axis: in order below 8 terms,
    8 interleaved accumulators up to 128, halves (at a multiple of 8)
    above.  Each step adds whole slabs, so a sum over the leading axis of
    a C-contiguous array runs inner loops over all the other axes.
    """
    n = len(x)
    if n < 8:
        total = x[0].copy()
        for i in range(1, n):
            total += x[i]
        return total
    if n <= 128:
        blocked = n - n % 8
        acc = x[:8].copy()
        for i in range(8, blocked, 8):
            acc += x[i:i + 8]
        total = (acc[0] + acc[1]) + (acc[2] + acc[3])
        total += (acc[4] + acc[5]) + (acc[6] + acc[7])
        for i in range(blocked, n):
            total += x[i]
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])


def _reduceat_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in the order ``np.add.reduceat`` adds a segment:
    ``x[0] + pairwise(x[1:])``, bit for bit."""
    if len(x) == 1:
        return x[0].copy()
    return x[0] + _pairwise_sum(x[1:])


def hard_decide(llr: np.ndarray) -> np.ndarray:
    """Hard decision under the global LLR convention: 1 iff L > 0."""
    return (np.asarray(llr) > 0).astype(np.uint8)
