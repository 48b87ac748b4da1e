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

    # The branch into state d from predecessor 2(d mod S/2) + c holds the
    # register 2d + c; label[d, c] indexes its distinct +/-1 output symbols.
    bits = [[bin(reg & g).count("1") & 1 for g in code.generators]
            for reg in range(2 * num_states)]
    symbols, label = np.unique(bits, axis=0, return_inverse=True)
    symbols = 2.0 * symbols - 1.0
    label = label.reshape(num_states, 2)

    metrics = np.full((batch, num_states), -np.inf)
    metrics[:, 0] = 0.0
    backptr = np.empty((total, batch, num_states), dtype=bool)

    llr_steps = llr.reshape(batch, total, ng)
    for t in range(total):
        bm = np.einsum("lg,bg->bl", symbols, llr_steps[:, t, :])
        pred = metrics.reshape(batch, half, 2)
        cand = np.concatenate([pred, pred], axis=1) + bm[:, label]
        even, odd = cand[..., 0], cand[..., 1]
        choice = odd > even
        metrics = np.where(choice, odd, even)
        if t >= k:  # tail: only input 0, which enters the states below S/2
            metrics[:, half:] = -np.inf
        backptr[t] = choice

    if code.termination == "zero-tail":
        state = np.zeros(batch, dtype=np.int64)
    else:
        state = np.argmax(metrics, axis=1)
    decisions = np.empty((batch, total), dtype=np.uint8)
    rows = np.arange(batch)
    for t in range(total - 1, -1, -1):
        decisions[:, t] = state >= half
        state = 2 * (state % half) + backptr[t, rows, state]
    return decisions[:, :k]
