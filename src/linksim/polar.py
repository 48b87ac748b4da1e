"""Polar and Reed-Muller codes: CRC attachment, code construction,
transform encoding, and successive-cancellation (list) decoding.

Block lengths are powers of two up to 1024, natural (non-bit-reversed)
order.  Construction freezes the least reliable synthetic channels
according to the bundled length-1024 reliability sequence; Reed-Muller
codes reuse the same machinery with a row-weight information set.

The CRC remainder is one GF(2) matrix product with the table of
x^j mod g (the CRC has zero initial state, so it is linear).

The list decoder copies no path state when paths split (the lazy copy
of Tal & Vardy, "List Decoding of Polar Codes", IEEE T-IT 2015).  Each
depth keeps a small [batch, L] index of the stored row that holds each
path.  An information leaf composes these indices with the surviving
parents instead of permuting the LLR and partial-sum arrays, and a level
is gathered through its index only when a descent or a partial-sum step
reads it; levels are written fresh in path order.  Decisions are not
copied either: each information leaf records its bits and parents, and
the final paths are traced back once.  The arithmetic on each path is
the same float64 expressions in the same order as with physical copies,
and the candidates are ranked by the same stable sort, so the decisions
are bit-identical to those of the copying decoder.
"""

from __future__ import annotations

import functools
import importlib.resources
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import hard_decide

_MAX_N = 1024


@dataclass(frozen=True)
class CrcPolynomial:
    """Monic binary CRC generator polynomial, MSB-first coefficients."""

    name: str
    coefficients: tuple  # degree + 1 bits, leading and trailing conventions below

    def __post_init__(self):
        coeffs = tuple(int(c) & 1 for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) < 2 or coeffs[0] != 1:
            raise ValueError("polynomial must be monic of degree >= 1")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _poly_from_int(name: str, value: int, degree: int) -> CrcPolynomial:
    bits = [(value >> i) & 1 for i in range(degree, -1, -1)]
    return CrcPolynomial(name, tuple(bits))


# Generator polynomials used by 5G control/data channels.
CRC_POLYNOMIALS = {
    "crc6": _poly_from_int("crc6", 0x61, 6),        # x^6+x^5+1
    "crc11": _poly_from_int("crc11", 0xE21, 11),    # x^11+x^10+x^9+x^5+1
    "crc16": _poly_from_int("crc16", 0x11021, 16),  # CCITT x^16+x^12+x^5+1
    "crc24a": _poly_from_int("crc24a", 0x1864CFB, 24),
    "parity": CrcPolynomial("parity", (1, 1)),      # x+1, single parity bit
}


def _crc_remainder(bits: np.ndarray, poly: CrcPolynomial) -> np.ndarray:
    """Polynomial-division remainder of bits * x^degree, per batch row.

    With zero initial state the remainder is linear over GF(2): bit t of
    a length-l row adds x^(l - 1 - t + degree) mod g.  So it is one matrix
    product with the [l, degree] table of those powers, summed exactly in
    float64 (sums of 0/1 terms are integers far below 2^53), then taken
    mod 2.
    """
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    deg = poly.degree
    length = bits.shape[1]
    g = int("".join(map(str, poly.coefficients)), 2)
    width = (deg + 7) // 8
    powers = []  # x^(j + degree) mod g for j = 0 .. length - 1
    p = g ^ (1 << deg)
    for _ in range(length):
        powers.append(p.to_bytes(width, "big"))
        p <<= 1
        if p >> deg:
            p ^= g
    table = np.unpackbits(np.frombuffer(b"".join(powers), dtype=np.uint8))
    table = table.reshape(length, 8 * width)[::-1, 8 * width - deg:]
    product = bits.astype(np.float64) @ table.astype(np.float64)
    return (product.astype(np.int64) & 1).astype(np.uint8)


def crc_attach(bits: np.ndarray, poly: CrcPolynomial) -> np.ndarray:
    """Append the CRC remainder: output rows all satisfy :func:`crc_check`."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    if bits.shape[1] < 1:
        raise ValueError("crc_attach: need at least one payload bit")
    return np.concatenate([bits, _crc_remainder(bits, poly)], axis=1)


def crc_check(frame: np.ndarray, poly: CrcPolynomial) -> np.ndarray:
    """Boolean per batch row: does the frame divide the generator?"""
    frame = np.atleast_2d(np.asarray(frame, dtype=np.uint8))
    payload = frame[:, : frame.shape[1] - poly.degree]
    expected = _crc_remainder(payload, poly)
    return np.all(expected == frame[:, frame.shape[1] - poly.degree:], axis=1)


@functools.lru_cache(maxsize=1)
def reliability_sequence() -> np.ndarray:
    """Bundled length-1024 index list, least reliable first."""
    text = (
        importlib.resources.files("linksim.data")
        .joinpath("polar_reliability_1024.txt")
        .read_text()
    )
    seq = np.asarray([int(t) for t in text.split()], dtype=np.int64)
    if len(seq) != _MAX_N or set(seq.tolist()) != set(range(_MAX_N)):
        raise ValueError("corrupt reliability sequence asset")
    return seq


@dataclass
class PolarCode:
    """Static polar code description: block length, frozen and info sets."""

    block_length: int
    frozen_set: np.ndarray
    crc: Optional[CrcPolynomial] = None
    info_set: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.block_length
        if n < 2 or n & (n - 1) or n > _MAX_N:
            raise ValueError(f"block length {n} must be a power of two <= {_MAX_N}")
        frozen = np.unique(np.asarray(self.frozen_set, dtype=np.int64))
        if len(frozen) and (frozen.min() < 0 or frozen.max() >= n):
            raise ValueError("frozen index out of range")
        self.frozen_set = frozen
        mask = np.ones(n, dtype=bool)
        mask[frozen] = False
        self.info_set = np.nonzero(mask)[0]

    @property
    def k(self) -> int:
        return len(self.info_set)

    @property
    def num_stages(self) -> int:
        return int(np.log2(self.block_length))


def polar5g_construct(k: int, n: int, crc: Optional[CrcPolynomial] = None) -> PolarCode:
    """Construct an (n, k) polar code from the bundled reliability order.

    This build restricts n to powers of two (no sub-block interleaving,
    puncturing, or repetition).  When a CRC is given, k counts the
    non-frozen positions, i.e. payload plus CRC bits.
    """
    if n & (n - 1) or n < 2:
        raise ValueError(f"unsupported block length n={n}: must be a power of two")
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if n > _MAX_N:
        raise ValueError(f"block length {n} exceeds {_MAX_N}")
    order = reliability_sequence()
    restricted = order[order < n]
    frozen = restricted[: n - k]
    return PolarCode(block_length=n, frozen_set=frozen, crc=crc)


def rm_construct(r: int, m: int) -> PolarCode:
    """Reed-Muller RM(r, m) as a polar code: freeze rows of weight < 2^(m-r)."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    if m > 10 or m < 1:
        raise ValueError("m must be in 1..10")
    n = 1 << m
    idx = np.arange(n)
    popcount = np.array([bin(i).count("1") for i in idx])
    frozen = idx[popcount < m - r]
    return PolarCode(block_length=n, frozen_set=frozen)


def polar_transform(u: np.ndarray) -> np.ndarray:
    """Apply the butterfly transform u -> u F^{(x) n} over GF(2)."""
    u = np.atleast_2d(np.asarray(u, dtype=np.uint8))
    n = u.shape[-1]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    x = u.copy()
    h = 1
    while h < n:
        x = x.reshape(-1, n // (2 * h), 2, h)
        x[:, :, 0, :] ^= x[:, :, 1, :]
        x = x.reshape(-1, n)
        h *= 2
    return x.reshape(u.shape)


def polar_encode(info_bits: np.ndarray, code: PolarCode) -> np.ndarray:
    """Place info bits on the info set, zeros on frozen, and transform."""
    info_bits = np.atleast_2d(np.asarray(info_bits, dtype=np.uint8))
    if info_bits.shape[-1] != code.k:
        raise ValueError(f"expected {code.k} info bits, got {info_bits.shape[-1]}")
    u = np.zeros((info_bits.shape[0], code.block_length), dtype=np.uint8)
    u[:, code.info_set] = info_bits
    return polar_transform(u)


def _f_minsum(a, b):
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def _f_exact(a, b):
    # Numerically-safe boxplus of ln(p0/p1) LLRs.
    return (
        np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
        + np.log1p(np.exp(-np.abs(a + b)))
        - np.log1p(np.exp(-np.abs(a - b)))
    )


def _sc_recurse(alpha, frozen_mask, f_func):
    """SC recursion on internal ln(p0/p1) LLRs; returns (u, beta)."""
    n = alpha.shape[-1]
    if n == 1:
        if frozen_mask[0]:
            u = np.zeros(alpha.shape[:-1] + (1,), dtype=np.uint8)
        else:
            u = (alpha < 0).astype(np.uint8)
        return u, u.copy()
    h = n // 2
    a, b = alpha[..., :h], alpha[..., h:]
    u_left, beta_left = _sc_recurse(f_func(a, b), frozen_mask[:h], f_func)
    g = b + (1.0 - 2.0 * beta_left) * a
    u_right, beta_right = _sc_recurse(g, frozen_mask[h:], f_func)
    u = np.concatenate([u_left, u_right], axis=-1)
    beta = np.concatenate([beta_left ^ beta_right, beta_right], axis=-1)
    return u, beta


def polar_sc_decode(llr: np.ndarray, code: PolarCode, exact: bool = False) -> np.ndarray:
    """Successive-cancellation decoding, [batch, N] LLRs -> [batch, k] bits.

    Uses the min-sum f update by default; ``exact=True`` switches to the
    exact boxplus.
    """
    llr = np.atleast_2d(np.asarray(llr, dtype=np.float64))
    n = code.block_length
    if llr.shape[-1] != n:
        raise ValueError(f"expected {n} LLRs, got {llr.shape[-1]}")
    frozen_mask = np.zeros(n, dtype=bool)
    frozen_mask[code.frozen_set] = True
    # Internal sign convention is ln(p0/p1).
    u, _ = _sc_recurse(-llr, frozen_mask, _f_exact if exact else _f_minsum)
    return u[:, code.info_set]


def _gather(level: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``level`` [batch, L, width] read at the flat rows ``index`` [batch, L]."""
    return np.take(level.reshape(index.size, -1), index, axis=0)


def polar_scl_decode(
    llr: np.ndarray,
    code: PolarCode,
    list_size: int = 8,
    use_crc: bool = False,
    exact: bool = False,
) -> np.ndarray:
    """Successive-cancellation list decoding with path-metric pruning.

    Returns the k bits on the information set of the selected path, CRC
    bits included when the code carries one.  With ``use_crc`` the most
    likely CRC-passing path is returned (best metric as fallback when no
    path passes).  ``list_size=1`` reduces exactly to SC decoding.
    """
    if list_size < 1:
        raise ValueError("list_size must be >= 1")
    if use_crc and code.crc is None:
        raise ValueError("use_crc requires a code constructed with a CRC")
    llr = np.atleast_2d(np.asarray(llr, dtype=np.float64))
    n = code.block_length
    if llr.shape[-1] != n:
        raise ValueError(f"expected {n} LLRs, got {llr.shape[-1]}")

    batch = llr.shape[0]
    stages = code.num_stages
    size = list_size
    f_func = _f_exact if exact else _f_minsum
    frozen_mask = np.zeros(n, dtype=bool)
    frozen_mask[code.frozen_set] = True

    # alpha[d]: LLRs of the active node at depth d, [batch, L, n >> d];
    # alpha[0] is the channel LLR in internal ln(p0/p1), shared by all paths.
    alpha = [np.broadcast_to(-llr[:, None, :], (batch, size, n))] + [None] * stages
    # beta_store[d]: completed left-child partial sums at depth d.
    beta_store = [None] * (stages + 1)
    # path[d, b, l]: the row of alpha[d] and beta_store[d], flattened to
    # [batch * L, width], that holds path l of batch row b.
    rows = np.arange(batch)[:, None]
    identity = rows * size + np.arange(size)
    path = np.broadcast_to(identity, (stages + 1, batch, size)).copy()
    metrics = np.full((batch, size), np.inf)
    metrics[:, 0] = 0.0
    bits, srcs = [], []  # per info leaf: the bit and the surviving parent

    for leaf in range(n):
        # Descend from the deepest ancestor shared with the previous leaf,
        # writing every level below it fresh, in path order.
        top = stages - (leaf ^ (leaf - 1)).bit_length() if leaf else 0
        a = _gather(alpha[top], path[top]) if top else alpha[0]
        for d in range(top, stages):
            h = a.shape[-1] // 2
            left, right = a[..., :h], a[..., h:]
            if (leaf >> (stages - d - 1)) & 1:
                # The previous leaf wrote beta_store[d + 1], in path order.
                a = right + (1.0 - 2.0 * beta_store[d + 1]) * left
            else:
                a = f_func(left, right)
            alpha[d + 1] = a
        path[top + 1:] = identity

        a = a[..., 0]  # [batch, L]
        if frozen_mask[leaf]:
            metrics = metrics + np.maximum(-a, 0.0)
            beta_leaf = np.zeros((batch, size, 1), dtype=np.uint8)
        else:
            pen0 = np.maximum(-a, 0.0)  # decide 0 against a negative LLR
            pen1 = np.maximum(a, 0.0)
            # Candidate order (path, bit): stable sort keeps lower path
            # index on metric ties.
            cand = np.stack([metrics + pen0, metrics + pen1], axis=-1)
            cand = cand.reshape(batch, 2 * size)
            order = np.argsort(cand, axis=1, kind="stable")[:, :size]
            src = order >> 1
            bit = (order & 1).astype(np.uint8)
            metrics = np.take_along_axis(cand, order, axis=1)
            # Path l now continues path src[l]: compose, copy nothing.
            path = path[:, rows, src]
            bits.append(bit)
            srcs.append(src)
            beta_leaf = bit[..., None]

        # Propagate partial sums up while leaving right children.
        b_cur = beta_leaf
        depth = stages
        while depth > 0 and (leaf >> (stages - depth)) & 1:
            left = _gather(beta_store[depth], path[depth])
            b_cur = np.concatenate([left ^ b_cur, b_cur], axis=-1)
            depth -= 1
        if depth > 0:
            beta_store[depth] = b_cur
            path[depth] = identity

    # Trace each final path back through its parents to read its bits.
    decisions = np.empty((batch, size, len(bits)), dtype=np.uint8)  # [batch, L, k]
    cur = np.broadcast_to(np.arange(size), (batch, size))
    for j in range(len(bits) - 1, -1, -1):
        decisions[:, :, j] = np.take_along_axis(bits[j], cur, axis=1)
        cur = np.take_along_axis(srcs[j], cur, axis=1)
    if use_crc:
        flat = decisions.reshape(batch * size, -1)
        valid = crc_check(flat, code.crc).reshape(batch, size)
        gated = np.where(valid, metrics, np.inf)
        has_valid = np.any(valid, axis=1)
        best = np.where(has_valid, np.argmin(gated, axis=1), np.argmin(metrics, axis=1))
    else:
        best = np.argmin(metrics, axis=1)
    return decisions[np.arange(batch), best]
