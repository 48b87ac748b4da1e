"""Convolutional encoding and soft-input Viterbi decoding.

Generators are octal tap masks with the MSB on the current input bit.
Zero-tail termination appends K-1 zero bits so the trellis ends in state
0; the decoder assumes the same termination.

The Viterbi decoder runs the add-compare-select butterfly of the
shift-register trellis (Forney, Proc. IEEE 1973): state d (the last K-1
inputs, newest at the MSB) is entered only from states 2(d mod S/2) and
2(d mod S/2) + 1, with input bit d >= S/2.  Branch metrics are
sum((2c - 1) * L) under the global convention L = ln(p1/p0).  A metric
tie goes to the lower (even) predecessor, and under termination "none" to
the lowest end state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TILE_BYTES as _TILE_BYTES, tile_rows


@dataclass(frozen=True)
class ConvCode:
    """Rate 1/len(generators) convolutional code description."""

    constraint_length: int = 3
    generators: tuple = (0o5, 0o7)
    termination: str = "zero-tail"

    def __post_init__(self):
        k = self.constraint_length
        gens = tuple(int(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if len(gens) < 2:
            raise ValueError("need at least two generators")
        if any(not 0 < g < (1 << k) for g in gens):
            raise ValueError(f"generators must be in (0, 2^{k})")
        if self.termination not in ("zero-tail", "none"):
            raise ValueError(f"unknown termination {self.termination!r}")

    @property
    def num_outputs(self) -> int:
        return len(self.generators)

    @property
    def num_states(self) -> int:
        return 1 << (self.constraint_length - 1)

    @property
    def tail_bits(self) -> int:
        return self.constraint_length - 1 if self.termination == "zero-tail" else 0


def conv_encode(bits: np.ndarray, code: ConvCode) -> np.ndarray:
    """Encode [batch, k] bits to [batch, num_outputs * (k + tail)] bits."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    if bits.shape[1] < 1:
        raise ValueError("conv_encode: need at least one input bit")
    batch, k = bits.shape
    kk = code.constraint_length
    total = k + code.tail_bits
    # Output j at step t is the XOR of the inputs u[t - d] over the taps d
    # of generator j (tap d is bit K-1-d, so d = 0 is the current input).
    # Leading zeros stand for the all-zero start state, trailing ones for
    # the termination tail.
    padded = np.zeros((batch, kk - 1 + total), dtype=np.uint8)
    padded[:, kk - 1: kk - 1 + k] = bits
    out = np.zeros((batch, total, code.num_outputs), dtype=np.uint8)
    for j, g in enumerate(code.generators):
        for d in range(kk):
            if g >> (kk - 1 - d) & 1:
                out[:, :, j] ^= padded[:, kk - 1 - d: kk - 1 - d + total]
    return out.reshape(batch, total * code.num_outputs)


def viterbi_decode(llr: np.ndarray, code: ConvCode) -> np.ndarray:
    """Maximum-likelihood sequence decoding from soft bit LLRs.

    Path metrics are state-major, ``[S, batch]``: each trellis step is one
    gather of the branch metrics, one broadcast add of the predecessor
    metrics, one compare and one max over ``[2, S, batch]``.  Branch
    metrics are computed per chunk of steps whose ``[steps, labels,
    batch]`` block stays near ``_TILE_BYTES``, so the memory beyond the
    ``total * S * batch`` bytes of boolean back-pointers is bounded.  The
    LLRs are cast to float64 on entry.

    NaN LLRs are outside the contract: the metric max propagates a NaN
    that the strict comparison would have dropped.

    Args:
        llr: [batch, num_outputs * (k + tail)] channel LLRs.
        code: code description; its termination is assumed known.

    Returns:
        [batch, k] decoded information bits.
    """
    llr = np.atleast_2d(np.asarray(llr, dtype=np.float64))
    ng = code.num_outputs
    if llr.shape[1] % ng != 0:
        raise ValueError(f"LLR length {llr.shape[1]} not a multiple of {ng}")
    total = llr.shape[1] // ng
    k = total - code.tail_bits
    if k < 1:
        raise ValueError("LLR sequence shorter than the termination tail")

    batch = llr.shape[0]
    num_states = code.num_states
    half = num_states // 2

    # The branch into state d = h*S/2 + j from predecessor 2j + c holds the
    # register 2d + c; label[c, h, j] indexes its distinct +/-1 output
    # symbols.
    bits = [[bin(reg & g).count("1") & 1 for g in code.generators]
            for reg in range(2 * num_states)]
    symbols, label = np.unique(bits, axis=0, return_inverse=True)
    symbols = 2.0 * symbols - 1.0
    label = label.reshape(2, half, 2).transpose(2, 0, 1)
    chunk = tile_rows(8 * len(symbols) * batch)

    metrics = np.full((num_states, batch), -np.inf)
    metrics[0] = 0.0
    # pred[c, 0, j] is the metric row of predecessor 2j + c.
    pred = metrics.reshape(half, 2, batch).transpose(1, 0, 2)[:, None]
    cand = np.empty((2, 2, half, batch))
    backptr = np.empty((total, 2, half, batch), dtype=bool)

    llr_steps = llr.reshape(batch, total, ng)
    for t0 in range(0, total, chunk):
        bm = np.einsum("lg,btg->tlb", symbols, llr_steps[:, t0:t0 + chunk])
        for t, bm_t in enumerate(bm, t0):
            # The labels are in range; "wrap" spares np.take the buffered
            # copy that its bounds check makes for ``out``.
            np.take(bm_t, label, axis=0, out=cand, mode="wrap")
            cand += pred
            # Strict >: a tie goes to the lower (even) predecessor.  The max
            # keeps the same value up to the sign of a zero, which no later
            # comparison sees.
            np.greater(cand[1], cand[0], out=backptr[t])
            np.maximum(cand[0], cand[1], out=metrics.reshape(2, half, batch))
            if t >= k:  # tail: only input 0, which enters the states below S/2
                metrics[half:] = -np.inf

    if code.termination == "zero-tail":
        state = np.zeros(batch, dtype=np.int64)
    else:
        state = np.argmax(metrics, axis=0)
    # Row t of the flat back-pointers is indexed by state * batch + row.
    flat = backptr.reshape(total, num_states * batch)
    cols = np.arange(batch)
    decisions = np.empty((total, batch), dtype=np.uint8)
    for t in range(total - 1, -1, -1):
        decisions[t] = state >= half
        choice = flat[t].take(state * batch + cols)
        state = ((state & (half - 1)) << 1) | choice
    return np.ascontiguousarray(decisions[:k].T)
