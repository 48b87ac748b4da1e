"""LDPC codes: belief-propagation decoding variants, 5G-style quasi-cyclic
codes with rate matching, and EXIT-chart mutual information.

The decoder works on any :class:`~linksim.alist.ParityCheckMatrix` under a
flooding schedule.  The 5G-style code expands a bundled base graph by
circulant lifting; rate matching punctures the first ``2Z`` systematic
bits and reads ``n`` consecutive bits from the circular buffer
(redundancy version 0), wrapping into repetition when ``n`` exceeds the
buffer.

Two things keep decoding cheap:

- Row tiles.  BP runs over tiles of the batch sized so one ``[rows,
  edges]`` float64 message array takes about 1 MB and stays in cache,
  and updates its messages in place.  Rows are independent (early
  stopping included), so the output is bit for bit the same as decoding
  the whole batch at once.
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
from .core import LLR_MAX, hard_decide

BP_VARIANTS = ("sum-product", "min-sum", "scaled-min-sum")

# Valid lifting sizes: a * 2^j with a in {2,...,15 odd-ish set}, capped at 384.
_LIFT_BASES = (2, 3, 5, 7, 9, 11, 13, 15)
LIFTING_SIZES = sorted(
    {a * (1 << j) for a in _LIFT_BASES for j in range(8) if a * (1 << j) <= 384}
)


# Byte budget of one [rows, edges] float64 message array.  The flooding
# loop keeps a handful of such arrays live, so a tile of this size stays in
# the per-core caches instead of streaming the whole batch through memory
# every iteration; chosen with `tools/bench.py bp`.
_TILE_BYTES = 1 << 20


class _EdgeGraph:
    """Flat edge arrays for vectorized flooding-schedule message passing.

    Edges are listed check by check, checks ascending and variables
    ascending within a check.  Every check needs at least one edge.  The
    arrays are read-only, so one graph can be shared by worker threads.
    """

    def __init__(self, n: int, chk_deg: np.ndarray, var_idx: np.ndarray):
        self.n = n
        self.m = len(chk_deg)
        self.var_idx = np.asarray(var_idx, dtype=np.int64)
        # Per-check values are spread onto their edges with np.repeat over
        # chk_deg, which is faster than a gather.
        self.chk_deg = np.asarray(chk_deg, dtype=np.int64)
        self.chk_starts = np.cumsum(self.chk_deg) - self.chk_deg
        self.num_edges = len(self.var_idx)
        # Edge order grouped by variable, for segment sums over each
        # variable's incident edges (np.add.at is far slower).
        self.var_order = np.argsort(self.var_idx, kind="stable")
        sorted_vars = self.var_idx[self.var_order]
        boundaries = np.flatnonzero(np.diff(sorted_vars)) + 1
        self.var_starts = np.concatenate([[0], boundaries])
        self.var_ids = sorted_vars[self.var_starts]
        self.tile_rows = max(1, _TILE_BYTES // (8 * max(1, self.num_edges)))
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @classmethod
    def from_pcm(cls, pcm: ParityCheckMatrix) -> "_EdgeGraph":
        return cls(pcm.n, [len(v) for v in pcm.row_adj],
                   np.concatenate(pcm.row_adj))


# Built per call and stored nowhere: a graph cached on the caller's matrix
# would be written by whichever thread decodes first.
_edge_graph = _EdgeGraph.from_pcm


def _segment_min2(mag: np.ndarray, starts: np.ndarray, deg: np.ndarray):
    """Per-segment (min, runner-up min, is-the-min mask) along the last axis."""
    min1 = np.minimum.reduceat(mag, starts, axis=-1)
    at_min = mag == np.repeat(min1, deg, axis=-1)
    # Count of elements attaining the minimum, per segment.
    counts = np.add.reduceat(at_min.astype(np.int64), starts, axis=-1)
    masked = np.where(at_min, np.inf, mag)
    min2 = np.minimum.reduceat(masked, starts, axis=-1)
    return min1, min2, at_min, counts


_PHI_MIN = 1e-12


def _phi_(x: np.ndarray) -> np.ndarray:
    """phi(x) = -log(tanh(x/2)), in place; self-inverse on (0, inf).

    The input is clipped to [_PHI_MIN, LLR_MAX] first.
    """
    np.clip(x, _PHI_MIN, LLR_MAX, out=x)
    x /= 2.0
    np.tanh(x, out=x)
    np.log(x, out=x)
    return np.negative(x, out=x)


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


def _bp_tiled(llr, g: _EdgeGraph, num_iter, variant, scale, early_stop):
    """Run :func:`_bp_tile` over row tiles of ``g.tile_rows`` rows.

    Rows are decoded independently, so the result does not depend on the
    tiling, bit for bit.
    """
    if variant not in BP_VARIANTS:
        raise ValueError(f"unknown BP variant {variant!r}")
    if num_iter < 1:
        raise ValueError("num_iter must be >= 1")
    # Internal sign convention ln(p0/p1) keeps the textbook check update.
    # The dtype follows the input, but the float64 sign factor of the check
    # update promotes the messages to float64 from then on.
    dtype = llr.dtype if llr.dtype in (np.float32, np.float64) else np.float64
    channel = -llr.astype(dtype)
    alpha = scale if variant == "scaled-min-sum" else 1.0
    final = np.empty_like(channel)
    for lo in range(0, len(channel), g.tile_rows):
        tile = slice(lo, lo + g.tile_rows)
        _bp_tile(channel[tile], final[tile], g, num_iter, variant, alpha,
                 early_stop)
    llr_out = -final
    return llr_out, hard_decide(llr_out)


def _bp_tile(channel, final, g: _EdgeGraph, num_iter, variant, alpha,
             early_stop):
    """Flooding loop over one tile; writes the total beliefs ln(p0/p1) of
    each row into ``final``."""
    total = channel.copy()
    # The total beliefs gathered onto the edges, once per iteration: the
    # syndrome reads their signs and the next iteration's v2c starts there.
    te = np.take(total, g.var_idx, axis=1)
    c2v = np.zeros((len(channel), g.num_edges), dtype=channel.dtype)
    # Rows whose syndrome is already satisfied get frozen and dropped from
    # the working set, so converged rows cost nothing.
    active = np.arange(len(channel))

    for _ in range(num_iter):
        v2c = te - c2v

        signs = np.signbit(v2c)
        par = np.bitwise_xor.reduceat(signs, g.chk_starts, axis=-1)
        flip = np.repeat(par, g.chk_deg, axis=-1)
        flip ^= signs
        # +-1.0 sign of the other edges' product; float64 whatever the input.
        sign_excl = flip.astype(np.float64)
        sign_excl *= -2.0
        sign_excl += 1.0

        mag = np.abs(v2c, out=v2c)
        if variant == "sum-product":
            pmag = _phi_(mag)
            excl = np.repeat(np.add.reduceat(pmag, g.chk_starts, axis=-1),
                             g.chk_deg, axis=-1)
            excl -= pmag
            sign_excl *= np.clip(_phi_(excl), 0.0, 30.0, out=excl)
        else:
            min1, min2, at_min, counts = _segment_min2(mag, g.chk_starts,
                                                       g.chk_deg)
            at_min &= np.repeat(counts == 1, g.chk_deg, axis=-1)
            excl = np.where(at_min, np.repeat(min2, g.chk_deg, axis=-1),
                            np.repeat(min1, g.chk_deg, axis=-1))
            sign_excl *= alpha
            sign_excl *= excl
        c2v = sign_excl

        total = channel.copy()
        sums = np.add.reduceat(c2v[:, g.var_order], g.var_starts, axis=-1)
        total[:, g.var_ids] += sums
        np.clip(total, -LLR_MAX, LLR_MAX, out=total)
        te = np.take(total, g.var_idx, axis=1)

        if early_stop:
            syn = np.bitwise_xor.reduceat(np.signbit(te), g.chk_starts,
                                          axis=-1)
            ok = ~np.any(syn, axis=1)
            if np.any(ok):
                final[active[ok]] = total[ok]
                keep = ~ok
                active = active[keep]
                if active.size == 0:
                    return
                channel = channel[keep]
                total = total[keep]
                te = te[keep]
                c2v = c2v[keep]

    final[active] = total


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


def _block_xor(bits: np.ndarray, entries: np.ndarray, z: int) -> np.ndarray:
    """Per base row of ``entries``, the XOR of the circulant-shifted
    Z-blocks of ``bits`` [batch, n] that its entries select: [batch, rows, z].

    ``entries`` is sorted by row; a row without entries is left out.
    """
    starts = np.flatnonzero(np.diff(entries[:, 0], prepend=-1))
    return np.bitwise_xor.reduceat(bits[:, _lift(entries, z)], starts, axis=1)


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
        s = _block_xor(word, base[core & (base[:, 1] < kb)], z)
        ssum = s[:, 0] ^ s[:, 1] ^ s[:, 2] ^ s[:, 3]
        p = blocks[:, kb:]
        p[:, 0] = np.roll(ssum, 1, axis=-1)
        p[:, 1] = s[:, 0] ^ ssum  # row 0: shift-1 on p1 contributes ssum
        p[:, 2] = s[:, 1] ^ p[:, 0] ^ p[:, 1]
        p[:, 3] = s[:, 2] ^ p[:, 2]
        # Extension row r >= 4 checks the systematic and core parity blocks
        # plus its own parity block through the identity, so that block is
        # the XOR of the others.
        p[:, 4:] = _block_xor(word, base[~core & (base[:, 1] < kb + 4)], z)
        return word

    def derate_match(self, llr: np.ndarray) -> np.ndarray:
        """Map rate-matched LLRs back onto the mother codeword positions."""
        llr = np.atleast_2d(np.asarray(llr))
        if llr.dtype not in (np.float32, np.float64):
            llr = llr.astype(np.float64)
        if llr.shape[-1] != self.n:
            raise ValueError(f"expected {self.n} LLRs, got {llr.shape[-1]}")
        mother = np.zeros((llr.shape[0], self.n_full), dtype=llr.dtype)
        np.add.at(mother, (slice(None), self.transmit_idx), llr)
        mother[:, self.filler_idx] = -LLR_MAX  # filler bits are known zeros
        return mother


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
    mother = code.derate_match(llr)[:, code._decode_cols]
    _, hard = _bp_tiled(mother, code._graph, num_iter, variant, scale,
                        early_stop=True)
    return hard[:, : code.k]
