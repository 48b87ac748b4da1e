"""LDPC codes: belief-propagation decoding variants, 5G-style quasi-cyclic
codes with rate matching, and EXIT-chart mutual information.

The decoder works on any :class:`~linksim.alist.ParityCheckMatrix` under a
flooding schedule.  The 5G-style code expands a bundled base graph by
circulant lifting; rate matching punctures the first ``2Z`` systematic
bits and reads ``n`` consecutive bits from the circular buffer
(redundancy version 0), wrapping into repetition when ``n`` exceeds the
buffer.

Two things keep decoding cheap:

- Row tiles in an edge-major layout, on every CPU.  BP runs over tiles of
  the batch sized so one float64 message array takes about
  ``BP_TILE_BYTES``.  Rows are independent (early stopping included), so
  the output is bit for bit the same as decoding the whole batch at once,
  and :func:`~linksim.core.map_tiles` runs the tiles on the calling
  thread and one helper thread per further CPU of the affinity mask
  (``taskset`` sets the thread count; one CPU starts no thread).  numpy
  releases the GIL inside each whole-slab operation, and the tiles are
  twice the shared budget because the GIL is held between operations.  A
  tile keeps one ``[edges, rows]`` array across iterations.  Each tile
  runs transposed, with messages ``[edges, rows]`` and the edges grouped
  by check degree and then by position within the check, so all checks of
  degree d form one ``[d, checks, rows]`` block.  A check reduction is a
  few whole-block operations over its d slabs, and the spread back onto
  the edges is a broadcast; a gather table lays the messages out as
  ``[d_v, vars, rows]`` per variable degree for the variable sums.  The
  sums add in the order ``np.add.reduceat`` uses on the check-by-check
  edge list (:func:`_reduceat_sum`), so the output is byte for byte that
  of a row-major ``[rows, edges]`` decoder with per-check ``reduceat``.
- A pruned graph.  :class:`LdpcCode5G` builds its decoding graph once:
  the mother graph without the punctured degree-1 parity nodes that rate
  matching never sends, and without their checks (as in 3GPP TS 38.212
  rate matching and Sionna's ``prune_pcm``).  The kept edges keep their
  order, so every sum runs in the same order.  Pruning itself is not
  exact: a pruned check passes zero or near-zero (about 1e-8 for
  sum-product) messages and takes part in the early-stop syndrome, so
  output LLRs can differ in the last bits.  The decisions on the test
  corpus and the benchmark's reference sweeps are unchanged.

The 5G-style code is described once, by the base graph's ``(row, col,
shift)`` entries.  The encoder lifts them into circulant Z-blocks and forms
no matrix (Richardson & Urbanke, "Efficient encoding of LDPC codes",
2001): per base row it XORs the shifted Z-blocks, first into the core
syndromes, which the accumulate core turns into the first four parity
blocks, then into each extension row's own parity block.  All of it is
exact GF(2) arithmetic.
"""

from __future__ import annotations

import functools
import importlib.resources
from dataclasses import dataclass, field

import numpy as np

from .alist import ParityCheckMatrix
from .core import LLR_MAX, TILE_BYTES, map_tiles, tile_rows

BP_VARIANTS = ("sum-product", "min-sum", "scaled-min-sum")

# Bytes of float64 messages in one BP row tile.  Threads hold the GIL
# between numpy calls, so tiles twice the shared budget, which make half
# the calls, run faster on the helper threads of ``map_tiles``.
BP_TILE_BYTES = 2 * TILE_BYTES

# Valid lifting sizes: a * 2^j with a in {2,...,15 odd-ish set}, capped at 384.
_LIFT_BASES = (2, 3, 5, 7, 9, 11, 13, 15)
LIFTING_SIZES = sorted(
    {a * (1 << j) for a in _LIFT_BASES for j in range(8) if a * (1 << j) <= 384}
)


class _EdgeGraph:
    """Edge tables for vectorized flooding-schedule message passing.

    ``var_idx`` lists the edges check by check, checks ascending and
    variables ascending within a check, in segments of ``chk_deg`` edges
    starting at ``chk_starts``.  A check without edges constrains nothing
    and is dropped.  BP runs in an edge-major order of the same edges:

    - ``chk_classes`` holds one ``(d, lo, hi)`` per check degree d.  The
      edges ``lo:hi`` of that order are the class's checks' edges,
      position-major: edge j of the class's c-th check (checks ascending)
      sits at ``lo + j * (hi - lo) // d + c``.  ``edge_var`` is the
      variable of each edge.
    - ``var_classes`` holds one ``(vids, gather)`` per variable degree:
      the variables ``vids`` of that degree, ascending, and a ``[d_v,
      len(vids)]`` table of where their edges sit in the edge-major order,
      checks ascending.

    The arrays are read-only, so one graph can be shared by worker threads.
    """

    def __init__(self, n: int, chk_deg: np.ndarray, var_idx: np.ndarray):
        chk_deg = np.asarray(chk_deg, dtype=np.int64)
        self.n = n
        self.chk_deg = chk_deg[chk_deg > 0]
        self.m = len(self.chk_deg)
        self.var_idx = np.asarray(var_idx, dtype=np.int64)
        self.chk_starts = np.cumsum(self.chk_deg) - self.chk_deg
        self.num_edges = len(self.var_idx)
        self.tile_rows = tile_rows(8 * max(1, self.num_edges), BP_TILE_BYTES)

        edges = np.arange(self.num_edges)
        chk = np.repeat(np.arange(self.m), self.chk_deg)
        order = np.lexsort((chk, edges - self.chk_starts[chk],
                            self.chk_deg[chk]))
        self.edge_var = self.var_idx[order]
        # Degree classes by bincount: np.unique would import numpy.ma, which
        # costs about a megabyte and tens of milliseconds of set-up.
        counts = np.bincount(self.chk_deg)
        degrees = np.flatnonzero(counts)
        sizes = degrees * counts[degrees]
        ends = np.cumsum(sizes)
        self.chk_classes = tuple(zip(degrees.tolist(),
                                     (ends - sizes).tolist(), ends.tolist()))

        position = np.empty_like(order)
        position[order] = edges
        # Edges grouped by variable, checks ascending within a variable.
        by_var = position[np.argsort(self.var_idx, kind="stable")]
        var_deg = np.bincount(self.var_idx, minlength=n)
        var_starts = np.cumsum(var_deg) - var_deg
        self.var_classes = tuple(
            (vids, by_var[var_starts[vids] + np.arange(d)[:, None]])
            for d in np.flatnonzero(np.bincount(var_deg)[1:]) + 1
            for vids in [np.flatnonzero(var_deg == d)])
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        for table in self.var_classes:
            for value in table:
                value.flags.writeable = False

    @classmethod
    def from_pcm(cls, pcm: ParityCheckMatrix) -> "_EdgeGraph":
        return cls(pcm.n, [len(v) for v in pcm.row_adj],
                   np.concatenate(pcm.row_adj))


# Built per call and stored nowhere: a graph cached on the caller's matrix
# would be written by whichever thread decodes first.
_edge_graph = _EdgeGraph.from_pcm


def _reduceat_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in the order ``np.add.reduceat`` adds a segment:
    ``x[0] + pairwise(x[1:])``, bit for bit."""
    if len(x) == 1:
        return x[0].copy()
    return x[0] + _pairwise_sum(x[1:])


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """numpy's pairwise summation over axis 0: in order below 8 terms, 8
    interleaved accumulators up to 128, halves (at a multiple of 8) above.
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


_PHI_MIN = 1e-12


def _log_tanh(x: np.ndarray) -> np.ndarray:
    """log(tanh(x/2)) = -phi(x), in place, after clipping x to
    [_PHI_MIN, LLR_MAX]."""
    np.clip(x, _PHI_MIN, LLR_MAX, out=x)
    x /= 2.0
    np.tanh(x, out=x)
    return np.log(x, out=x)


def _class_blocks(edges: np.ndarray, g: _EdgeGraph):
    """The ``[d, checks, rows]`` block of each check class of ``edges``
    [edges, rows] in the edge-major order, as views."""
    rows = edges.shape[1]
    return [edges[lo:hi].reshape(d, -1, rows) for d, lo, hi in g.chk_classes]


def bp_decode(
    llr: np.ndarray,
    pcm: ParityCheckMatrix,
    num_iter: int = 20,
    variant: str = "sum-product",
    scale: float = 0.75,
    early_stop: bool = True,
):
    """Flooding-schedule belief propagation on a parity-check matrix.

    Args:
        llr: channel LLRs ln(p1/p0), shape [batch, n].
        pcm: parity-check matrix.
        num_iter: number of flooding iterations (>= 1).
        variant: "sum-product", "min-sum" or "scaled-min-sum".
        scale: message scaling factor for "scaled-min-sum".
        early_stop: freeze rows as soon as their syndrome is satisfied.

    Returns:
        (llr_out, hard): total output LLRs and hard decisions, both
        [batch, n].
    """
    llr = np.atleast_2d(np.asarray(llr))
    if llr.shape[-1] != pcm.n:
        raise ValueError(f"LLR length {llr.shape[-1]} does not match n={pcm.n}")
    return _bp_tiled(llr, _edge_graph(pcm), num_iter, variant, scale,
                     early_stop)


def _bp_tiled(llr, g: _EdgeGraph, num_iter, variant, scale, early_stop,
              soft=True):
    """Run :func:`_bp_tile` over row tiles of ``g.tile_rows`` rows, on the
    calling thread and the helper threads of :func:`~linksim.core.map_tiles`.

    Returns ``(llr_out, hard)``.  Without ``soft``, ``llr_out`` is None and
    each tile writes its output LLRs into a buffer of its own.  Rows are
    decoded independently, so the result depends neither on the tiling nor
    on the thread count, bit for bit.
    """
    if variant not in BP_VARIANTS:
        raise ValueError(f"unknown BP variant {variant!r}")
    if num_iter < 1:
        raise ValueError("num_iter must be >= 1")
    dtype = llr.dtype if llr.dtype in (np.float32, np.float64) else np.float64
    alpha = scale if variant == "scaled-min-sum" else 1.0
    hard = np.empty(llr.shape, np.uint8)
    llr_out = np.empty(llr.shape, dtype) if soft else None

    def decode(lo):
        tile = slice(lo, lo + g.tile_rows)
        # Transposed to [n, rows], in the internal sign convention
        # ln(p0/p1), which keeps the textbook check update.
        channel = np.negative(llr[tile].T, dtype=dtype, order="C")
        out = llr_out[tile] if soft else np.empty(channel.shape[::-1], dtype)
        _bp_tile(channel, out, g, num_iter, variant, alpha, early_stop)
        # Hard decisions (1 iff L > 0) while the tile is in cache.
        np.greater(out, 0, out=hard[tile].view(bool))

    map_tiles(decode, range(0, len(llr), g.tile_rows))
    return llr_out, hard


def _bp_tile(channel, llr_out, g: _EdgeGraph, num_iter, variant, alpha,
             early_stop):
    """Flooding loop over one tile of channel beliefs [n, rows]; writes the
    output LLRs ln(p1/p0) of each row into ``llr_out`` [rows, n].

    Messages are [edges, rows] in the edge-major order of ``g``, so each
    check reduction runs over the d slabs of its class block and each
    variable sum over the d_v slabs its gather table lays out.  Every sum
    adds in the order of ``np.add.reduceat`` over the check-by-check edge
    list.  The first iteration runs in the channel dtype; the check output
    is float64 from then on.
    """
    total = channel
    c2v = np.zeros((g.num_edges, channel.shape[1]), channel.dtype)
    # Rows whose syndrome is already satisfied get frozen and dropped from
    # the working set, so converged rows cost nothing.
    active = np.arange(channel.shape[1])

    for _ in range(num_iter):
        # The total beliefs on the edges minus the last check messages.  The
        # new c2v is built from v2c alone, so v2c takes c2v's buffer, and
        # c2v is the one [edges, rows] array that lives across iterations.
        v2c = np.subtract(np.take(total, g.edge_var, axis=0), c2v, out=c2v)
        signs = np.signbit(v2c)
        mag = np.abs(v2c, out=v2c)
        if variant == "sum-product":
            # The sum of log(tanh) over a check is minus the sum of phi, so
            # each block minus its sum is phi's sum minus the edge's phi.
            log_tanh = _log_tanh(mag)
            for block in _class_blocks(log_tanh, g):
                block -= _reduceat_sum(block)
            excl = np.negative(_log_tanh(log_tanh), out=log_tanh)
            np.clip(excl, 0.0, 30.0, out=excl)
        else:
            for block in _class_blocks(mag, g):
                min1 = np.minimum.reduce(block, axis=0)
                at_min = block == min1
                min2 = np.minimum.reduce(np.where(at_min, np.inf, block),
                                         axis=0)
                # A tied minimum is also the least of the other edges.
                min2 = np.where(np.count_nonzero(at_min, axis=0) > 1, min1,
                                min2)
                block[...] = np.where(at_min, min2, min1)
            excl = mag
        # The check output is float64 whatever the channel dtype, so every
        # later message is float64 too.
        c2v = excl.astype(np.float64, copy=False)
        if alpha != 1.0:
            c2v *= alpha
        # The sign of the other edges' product: negate (flip the sign bit)
        # where the parity of the check's other signs is odd.  A factor of
        # -1 or 1 in int8 keeps the temporary at one byte per edge.
        for block in _class_blocks(signs, g):
            block ^= np.bitwise_xor.reduce(block, axis=0)
        factor = np.multiply(signs, -2, dtype=np.int8)
        factor += 1
        c2v *= factor

        total = channel.copy()
        for vids, gather in g.var_classes:
            # float64 sums, rounded once into the channel dtype.
            total[vids] = channel[vids] + _reduceat_sum(
                np.take(c2v, gather, axis=0))
        np.clip(total, -LLR_MAX, LLR_MAX, out=total)

        if early_stop:
            ok = np.ones(len(active), dtype=bool)
            signs = np.take(np.signbit(total), g.edge_var, axis=0)
            for block in _class_blocks(signs, g):
                ok &= ~np.bitwise_xor.reduce(block, axis=0).any(axis=0)
            if np.any(ok):
                llr_out[active[ok]] = -total[:, ok].T
                keep = ~ok
                active = active[keep]
                if active.size == 0:
                    return
                channel = channel[:, keep]
                total = total[:, keep]
                c2v = c2v[:, keep]

    llr_out[active] = -total.T


def exit_mutual_information(llr: np.ndarray, bits: np.ndarray) -> float:
    """Sample-mean mutual information between LLRs and the true bits.

    Uses I = 1 - E[log2(1 + exp(-(2b-1) L))], clipped to [0, 1].
    """
    llr = np.asarray(llr, dtype=np.float64)
    bits = np.asarray(bits)
    if llr.size == 0:
        raise ValueError("exit_mutual_information: empty input")
    if llr.shape != bits.shape:
        raise ValueError("exit_mutual_information: shape mismatch")
    x = np.clip(-(2.0 * bits - 1.0) * llr, -LLR_MAX, LLR_MAX)
    info = 1.0 - np.mean(np.log2(1.0 + np.exp(x)))
    return float(np.clip(info, 0.0, 1.0))


def _load_base_graph(name: str) -> np.ndarray:
    text = (
        importlib.resources.files("linksim.data").joinpath(name).read_text()
    )
    base = np.loadtxt(text.splitlines(), dtype=np.int64, ndmin=2)
    base = base[np.lexsort((base[:, 1], base[:, 0]))]
    base.flags.writeable = False
    return base


@functools.lru_cache(maxsize=None)
def _base_graph(bg: int):
    """Base graph ``bg`` as (entries, m_b, n_b, k_b).

    ``entries`` is a read-only int64 [E, 3] array of (row, col, shift),
    sorted by row, then column.
    """
    if bg == 1:
        return _load_base_graph("ldpc_bg1.txt"), 46, 68, 22
    if bg == 2:
        return _load_base_graph("ldpc_bg2.txt"), 42, 52, 10
    raise ValueError(f"unknown base graph {bg}")


def _lift(entries: np.ndarray, z: int) -> np.ndarray:
    """Lifted column indices [E, z]: the circulant of entry (row, col,
    shift) joins lifted row ``row*z + j`` to column ``col*z + (j+shift) % z``."""
    return entries[:, 1:2] * z + (np.arange(z) + entries[:, 2:]) % z


def _xor_circulant(target: np.ndarray, block: np.ndarray, shift: int) -> None:
    """``target[:, j] ^= block[:, (j + shift) % z]`` in place, for [batch, z]
    views and ``0 <= shift < z``: one circulant of an entry applied to the
    Z-block it selects."""
    z = block.shape[-1]
    np.bitwise_xor(target[:, :z - shift], block[:, shift:], out=target[:, :z - shift])
    np.bitwise_xor(target[:, z - shift:], block[:, :shift], out=target[:, z - shift:])


@dataclass
class LdpcCode5G:
    """5G-style lifted LDPC code with rate matching.

    Selects base graph 2 for short blocks (k <= 292) and base graph 1
    otherwise, then the smallest valid lifting size Z with k_b * Z >= k.
    """

    k: int
    n: int
    base_graph: int = field(init=False)
    z: int = field(init=False)

    def __post_init__(self):
        if self.k < 1 or self.n <= self.k:
            raise ValueError(
                f"unsupported (k={self.k}, n={self.n}): need 0 < k < n"
            )
        self.base_graph = 2 if self.k <= 292 else 1
        kb = _base_graph(self.base_graph)[3]
        if self.k > kb * 384:
            raise ValueError(f"k={self.k} too large for both base graphs")
        # 384 is a lifting size, so the check above leaves one to find.
        self.z = next(z for z in LIFTING_SIZES if kb * z >= self.k)
        self._build()

    def _build(self):
        self._base, self._mb, self._nb, self._kb = _base_graph(self.base_graph)
        z, kb = self.z, self._kb
        self.k_full = kb * z
        self.n_full = self._nb * z
        self.m_full = self._mb * z
        self.num_fillers = self.k_full - self.k
        # Filler bits occupy the tail of the systematic part.
        self.filler_idx = np.arange(self.k, self.k_full)
        keep = np.ones(self.n_full, dtype=bool)
        keep[self.filler_idx] = False
        keep[: 2 * z] = False  # punctured systematic bits, never sent
        buffer = np.nonzero(keep)[0]
        self.buffer_len = len(buffer)
        self.transmit_idx = buffer[np.arange(self.n) % len(buffer)]
        self._pcm = None

        # Decoding graph: the mother graph without the punctured degree-1
        # parity nodes and their checks.  Such a node never receives a
        # channel value, so its check only passes zero or near-zero
        # messages.  The 2Z punctured systematic and the filler nodes stay.
        rows, cols = self._lifted_edges()
        sent = np.zeros(self.n_full, dtype=bool)
        sent[self.transmit_idx] = True
        col_deg = np.bincount(cols, minlength=self.n_full)
        pruned_var = ~sent & (col_deg == 1)
        pruned_var[: self.k_full] = False
        pruned_chk = np.zeros(self.m_full, dtype=bool)
        pruned_chk[rows[pruned_var[cols]]] = True
        kept = ~pruned_chk[rows]
        # Renumbered variables keep their order, so the k info bits stay
        # first and the kept edges stay in the mother graph's order.
        self._decode_cols = np.flatnonzero(~pruned_var)
        new_col = np.cumsum(~pruned_var) - 1
        # Sent bits are never pruned; fillers keep their columns.
        self._transmit_cols = new_col[self.transmit_idx]
        chk_deg = np.bincount(rows[kept], minlength=self.m_full)[~pruned_chk]
        self._graph = _EdgeGraph(len(self._decode_cols), chk_deg,
                                 new_col[cols[kept]])

    def _lifted_edges(self):
        """Mother-code edges (rows, cols), sorted by row, then column."""
        z = self.z
        rows = (self._base[:, :1] * z + np.arange(z)).ravel()
        cols = _lift(self._base, z).ravel()
        order = np.lexsort((cols, rows))
        return rows[order], cols[order]

    @property
    def coderate(self) -> float:
        return self.k / self.n

    @property
    def pcm(self) -> ParityCheckMatrix:
        """Expanded parity-check matrix of the mother code."""
        if self._pcm is None:
            rows, cols = self._lifted_edges()
            by_col = np.lexsort((rows, cols))
            row_ends = np.cumsum(np.bincount(rows, minlength=self.m_full))
            col_ends = np.cumsum(np.bincount(cols, minlength=self.n_full))
            self._pcm = ParityCheckMatrix(
                n=self.n_full, m=self.m_full,
                col_adj=np.split(rows[by_col], col_ends[:-1]),
                row_adj=np.split(cols, row_ends[:-1]),
            )
        return self._pcm

    def encode_full(self, bits: np.ndarray) -> np.ndarray:
        """Mother-code codeword [batch, n_full] before rate matching."""
        bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
        if bits.shape[-1] != self.k:
            raise ValueError(f"expected {self.k} info bits, got {bits.shape[-1]}")
        batch, z, kb, base = bits.shape[0], self.z, self._kb, self._base
        blocks = np.zeros((batch, self._nb, z), dtype=np.uint8)
        word = blocks.reshape(batch, -1)  # a view: writes land in blocks
        word[:, : self.k] = bits
        core = base[:, 0] < 4

        # Structured solve of the accumulate core: the sum of the four core
        # rows leaves only the shift-1 circulant acting on p1.
        s = np.zeros((batch, 4, z), dtype=np.uint8)
        for row, col, shift in base[core & (base[:, 1] < kb)].tolist():
            _xor_circulant(s[:, row], blocks[:, col], shift % z)
        ssum = s[:, 0] ^ s[:, 1] ^ s[:, 2] ^ s[:, 3]
        p = blocks[:, kb:]
        p[:, 0] = np.roll(ssum, 1, axis=-1)
        p[:, 1] = s[:, 0] ^ ssum  # row 0: shift-1 on p1 contributes ssum
        p[:, 2] = s[:, 1] ^ p[:, 0] ^ p[:, 1]
        p[:, 3] = s[:, 2] ^ p[:, 2]
        # Extension row r >= 4 checks the systematic and core parity blocks,
        # final by now, plus its own parity block through the identity, so
        # that block is the XOR of the others.
        for row, col, shift in base[~core & (base[:, 1] < kb + 4)].tolist():
            _xor_circulant(p[:, row], blocks[:, col], shift % z)
        return word

    def derate_match(self, llr: np.ndarray) -> np.ndarray:
        """Map rate-matched LLRs back onto the mother codeword positions."""
        return np.ascontiguousarray(
            self._derate(llr, self.transmit_idx, self.n_full))

    def _derate(self, llr, cols, width):
        """Rate-matched LLRs summed onto columns ``cols`` (one per sent
        bit) of a [batch, width] array of zeros; filler columns -LLR_MAX.

        Each pass over the circular buffer adds to distinct columns, so the
        passes add in order, as ``np.add.at`` would: ``0 + first + ...``.
        The result is the transpose of a C-ordered [width, batch] array,
        whose column tiles the BP decoder reads as contiguous runs.
        """
        llr = np.atleast_2d(np.asarray(llr))
        if llr.dtype not in (np.float32, np.float64):
            llr = llr.astype(np.float64)
        if llr.shape[-1] != self.n:
            raise ValueError(f"expected {self.n} LLRs, got {llr.shape[-1]}")
        out = np.zeros((width, llr.shape[0]), dtype=llr.dtype)
        step = self.buffer_len
        out[cols[:step]] = llr[:, :step].T
        out += 0.0  # 0 + first: a negative zero turns positive
        for lo in range(step, self.n, step):
            out[cols[lo:lo + step]] += llr[:, lo:lo + step].T
        out[self.filler_idx] = -LLR_MAX  # filler bits are known zeros
        return out.T


def ldpc5g_encode(bits: np.ndarray, code: LdpcCode5G) -> np.ndarray:
    """Encode [batch, k] info bits into the rate-matched [batch, n] output."""
    full = code.encode_full(bits)
    return full[:, code.transmit_idx]


def ldpc5g_decode(
    llr: np.ndarray,
    code: LdpcCode5G,
    num_iter: int = 20,
    variant: str = "sum-product",
    scale: float = 0.75,
) -> np.ndarray:
    """BP-decode rate-matched LLRs and return the [batch, k] info bits."""
    llr = code._derate(llr, code._transmit_cols, len(code._decode_cols))
    _, hard = _bp_tiled(llr, code._graph, num_iter, variant, scale,
                        early_stop=True, soft=False)
    return hard[:, : code.k]
