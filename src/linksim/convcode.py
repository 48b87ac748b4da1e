"""Convolutional encoding and soft-input Viterbi decoding.

Generators are octal tap masks with the MSB on the current input bit.
Zero-tail termination appends K-1 zero bits so the trellis ends in state
0; the decoder assumes the same termination.
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


def _output_bits(code: ConvCode, reg: int) -> list:
    """Encoder outputs for a full register value (input bit at the MSB)."""
    return [bin(reg & g).count("1") & 1 for g in code.generators]


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

    Branch metrics are sum((2c - 1) * L) under the global convention
    L = ln(p1/p0); metric ties resolve to the lower predecessor state.

    Args:
        llr: [batch, num_outputs * (k + tail)] channel LLRs.
        code: code description; zero-tail termination is assumed known.

    Returns:
        [batch, k] decoded information bits.
    """
    llr = np.atleast_2d(np.asarray(llr, dtype=np.float64))
    ng = code.num_outputs
    if llr.shape[1] % ng != 0:
        raise ValueError(f"LLR length {llr.shape[1]} not a multiple of {ng}")
    total = llr.shape[1] // ng
    tail = code.tail_bits
    k = total - tail
    if k < 1:
        raise ValueError("LLR sequence shorter than the termination tail")

    batch = llr.shape[0]
    num_states = code.num_states
    kk = code.constraint_length

    # Transitions: from state s with input u, full register and successor.
    reg = (np.arange(2)[:, None] << (kk - 1)) | np.arange(num_states)[None, :]
    next_state = reg >> 1  # [2, S]
    table = np.array([_output_bits(code, v) for v in range(1 << kk)], dtype=np.int8)
    out_pm = 2.0 * table[reg] - 1.0  # [2, S, ng], +/-1 symbols

    # Predecessors of each state, ordered by ascending predecessor state so
    # that argmax ties pick the lower one.
    preds = [[] for _ in range(num_states)]
    for u in range(2):
        for s in range(num_states):
            preds[next_state[u, s]].append((s, u))
    for p in preds:
        p.sort()
    pred_state = np.array([[p[i][0] for i in range(len(preds[0]))] for p in preds])
    pred_input = np.array([[p[i][1] for i in range(len(preds[0]))] for p in preds])

    metrics = np.full((batch, num_states), -np.inf)
    metrics[:, 0] = 0.0
    backptr = np.zeros((batch, total, num_states), dtype=np.int8)

    llr_steps = llr.reshape(batch, total, ng)
    for t in range(total):
        # Branch metric for (u, s): correlation of outputs with the LLRs.
        bm = np.einsum("usg,bg->bus", out_pm, llr_steps[:, t, :])
        cand = metrics[:, None, :] + bm  # [batch, 2, S] indexed (u, from)
        if t >= k:  # tail: only u = 0 allowed
            cand[:, 1, :] = -np.inf
        # Gather candidates per destination state in predecessor order.
        gathered = cand[:, pred_input.T, pred_state.T]  # [batch, P, S_dest]
        choice = np.argmax(gathered, axis=1)  # first max -> lower pred state
        metrics = np.take_along_axis(gathered, choice[:, None, :], axis=1)[:, 0, :]
        backptr[:, t, :] = choice

    if code.termination == "zero-tail":
        end_state = np.zeros(batch, dtype=np.int64)
    else:
        end_state = np.argmax(metrics, axis=1)
    decisions = np.empty((batch, total), dtype=np.uint8)
    rows = np.arange(batch)
    state = end_state
    for t in range(total - 1, -1, -1):
        choice = backptr[rows, t, state]
        decisions[:, t] = pred_input[state, choice]
        state = pred_state[state, choice]
    return decisions[:, :k]
