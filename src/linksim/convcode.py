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

The survivor memory holds one bit per state and step, the choice of
predecessor, packed per chunk of steps and unpacked a chunk at a time by
the traceback (Feygin and Gulak, IEEE T-COM 1993).  The choice of step t
is the oldest input bit of the state that the step leaves, so it is the
input of step t - (K - 1): the traceback reads the decisions off the
choices and the end state, and no step stores its own input bit.
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
    batch]`` block stays near ``_TILE_BYTES``, in float64 whether the LLRs
    are float32 or float64 (other dtypes are cast once).  The survivor
    memory holds one bit per state and step: each chunk's decisions are
    packed into ``total * S * batch / 8`` bytes, and the traceback unpacks
    them one chunk at a time.

    NaN LLRs are outside the contract: the metric max propagates a NaN
    that the strict comparison would have dropped.

    Args:
        llr: [batch, num_outputs * (k + tail)] channel LLRs.
        code: code description; its termination is assumed known.

    Returns:
        [batch, k] decoded information bits.
    """
    llr = np.atleast_2d(np.asarray(llr))
    if llr.dtype not in (np.float32, np.float64):
        llr = llr.astype(np.float64)
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
    memory = code.constraint_length - 1

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
    # chosen[t - t0] holds the decisions of step t of the chunk, indexed by
    # state * batch + row, and survivors[t] the same packed eight to a byte,
    # for every chunk but the last, which the traceback reads from chosen.
    width = num_states * batch
    chosen = np.empty((min(chunk, total), width), dtype=bool)
    chosen_acs = chosen.reshape(len(chosen), 2, half, batch)
    survivors = np.empty(((total - 1) // chunk * chunk, -(-width // 8)),
                         dtype=np.uint8)

    llr_steps = llr.reshape(batch, total, ng)
    for t0 in range(0, total, chunk):
        bm = np.einsum("lg,btg->tlb", symbols, llr_steps[:, t0:t0 + chunk],
                       dtype=np.float64)
        for t, bm_t in enumerate(bm, t0):
            # The labels are in range; "wrap" spares np.take the buffered
            # copy that its bounds check makes for ``out``.
            np.take(bm_t, label, axis=0, out=cand, mode="wrap")
            cand += pred
            # Strict >: a tie goes to the lower (even) predecessor.  The max
            # keeps the same value up to the sign of a zero, which no later
            # comparison sees.
            np.greater(cand[1], cand[0], out=chosen_acs[t - t0])
            np.maximum(cand[0], cand[1], out=metrics.reshape(2, half, batch))
            if t >= k:  # tail: only input 0, which enters the states below S/2
                metrics[half:] = -np.inf
        if t0 + chunk < total:
            survivors[t0:t0 + chunk] = np.packbits(chosen, axis=-1)
    # The branch metrics are freed here, and each unpacked chunk before the
    # next one is unpacked, so that the traceback's peak stays below the
    # forward pass's.
    del bm, bm_t, chosen_acs

    if code.termination == "zero-tail":
        state = np.zeros(batch, dtype=np.int64)
    else:
        state = np.argmax(metrics, axis=0)
    # The choice of step t is the oldest input held by the state it leaves,
    # so it is the input of step t - (K - 1); the inputs of the last K - 1
    # steps are the bits of the end state, oldest at the LSB.
    decisions = np.empty((total, batch), dtype=np.uint8)
    last = total - memory
    for t in range(max(last, 0), total):
        decisions[t] = state >> (t - last) & 1
    cols = np.arange(batch)
    for t0 in reversed(range(memory - memory % chunk, total, chunk)):
        t1 = min(t0 + chunk, total)
        if t1 < total:
            chosen = np.unpackbits(survivors[t0:t1], axis=-1, count=width)
        for t in range(t1 - 1, max(t0, memory) - 1, -1):
            choice = chosen[t - t0].take(state * batch + cols)
            decisions[t - memory] = choice
            state = ((state & (half - 1)) << 1) | choice
        del chosen
    return np.ascontiguousarray(decisions[:k].T)
