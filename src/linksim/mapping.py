"""Constellations, bit-to-symbol mapping and exact soft demapping.

Bit grouping is big-endian: the first bit of each group is the most
significant bit of the point label.  For QAM, even label-bit indices drive
the in-phase axis and odd indices the quadrature axis, with per-axis Gray
labeling and the all-zero label on the most positive level of each axis.

Demapping works on factors of the likelihood that a :class:`Constellation`
builds once.  A factor is the part of ``y`` it reads, its levels, the
label-bit positions it carries and, per bit, the indices of the levels
where that bit is 1 and where it is 0.  When every point is
``I_level[I_label] + 1j * Q_level[Q_label]`` exactly, as for square Gray
QAM, there are two factors: the real part of ``y`` with the sqrt(M) I levels
on the even bits, and the imaginary part with the Q levels on the odd bits.
The squared distance and the bit prior both split into an I and a Q term,
so the other axis cancels from every LLR, exactly for APP and max-log, with
or without priors.  Any other point set (PSK, custom points) is one factor:
the complex ``y``, all 2**m points and all bits.

Per factor, the demapper computes ``-|y_f - level|**2 / no`` plus the
factor's share of the prior, gathers the per-bit subsets into a
``[2, bits, levels/2, symbols]`` tensor and reduces it with a max-shifted
log-sum-exp (APP) or a max (max-log); a subset of one level (BPSK, each
QPSK axis) needs no exp or log.  It walks the symbols in tiles sized
so that tensor takes about ``core.TILE_BYTES``, which bounds the peak
temporary for any batch size and constellation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import tile_rows


def _gray_decode(g: np.ndarray) -> np.ndarray:
    """Inverse of the binary-reflected Gray code g = i ^ (i >> 1)."""
    i = g.copy()
    s = 1
    while s < 64:
        i ^= i >> s
        s *= 2
    return i


def _labels_to_bits(num_bits: int) -> np.ndarray:
    """Bit table of shape [2**num_bits, num_bits], MSB first."""
    labels = np.arange(2**num_bits)
    shifts = np.arange(num_bits - 1, -1, -1)
    return ((labels[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def _axis_labels(num_bits: int):
    """I and Q labels of every point label: even and odd bits, MSB first."""
    bits = _labels_to_bits(num_bits)
    weights = 1 << np.arange(num_bits // 2 - 1, -1, -1)
    return bits[:, 0::2] @ weights, bits[:, 1::2] @ weights


def _qam_points(num_bits: int) -> np.ndarray:
    if num_bits % 2 != 0:
        raise ValueError("qam requires an even number of bits per symbol")
    na = num_bits // 2
    lab_i, lab_q = _axis_labels(num_bits)
    # Per-axis Gray labels; level index 0 is the most positive amplitude.
    idx_i = _gray_decode(lab_i.astype(np.int64))
    idx_q = _gray_decode(lab_q.astype(np.int64))
    m_axis = 1 << na
    amp_i = (m_axis - 1) - 2 * idx_i
    amp_q = (m_axis - 1) - 2 * idx_q
    return amp_i.astype(np.complex128) + 1j * amp_q.astype(np.complex128)


def _psk_points(num_bits: int) -> np.ndarray:
    order = 1 << num_bits
    labels = np.arange(order)
    idx = _gray_decode(labels.astype(np.int64))
    return np.exp(2j * np.pi * idx / order)


@dataclass(frozen=True)
class _Factor:
    """One independent term of the demapping likelihood."""

    part: object           # the part of y it reads: np.real, np.imag or np.asarray
    levels: np.ndarray     # [L] level values
    positions: slice       # the b label-bit positions it carries, L == 2**b
    bits: np.ndarray       # [L, b] float64 bit table of the levels
    subsets: np.ndarray    # [2, b, L/2] level indices where a bit is 1 / 0

    @classmethod
    def build(cls, part, levels, positions, bits):
        one = np.stack([np.flatnonzero(col) for col in bits.T])
        zero = np.stack([np.flatnonzero(col == 0) for col in bits.T])
        levels = np.array(levels)
        bits = bits.astype(np.float64)
        subsets = np.stack([one, zero])
        for a in (levels, bits, subsets):
            a.setflags(write=False)
        return cls(part, levels, positions, bits, subsets)


def _factors(points: np.ndarray, num_bits: int) -> tuple:
    """Split the points into independent I and Q axes when they separate."""
    if num_bits % 2 == 0:
        na = num_bits // 2
        lab_i, lab_q = _axis_labels(num_bits)
        lev_i = np.zeros(1 << na)
        lev_q = np.zeros(1 << na)
        lev_i[lab_i] = points.real
        lev_q[lab_q] = points.imag
        if (np.array_equal(lev_i[lab_i], points.real)
                and np.array_equal(lev_q[lab_q], points.imag)):
            axis_bits = _labels_to_bits(na)
            return (
                _Factor.build(np.real, lev_i, slice(0, None, 2), axis_bits),
                _Factor.build(np.imag, lev_q, slice(1, None, 2), axis_bits),
            )
    return (_Factor.build(np.asarray, points, slice(None),
                          _labels_to_bits(num_bits)),)


@dataclass
class Constellation:
    """Ordered complex points indexed by bit label, at unit mean energy."""

    kind: str
    num_bits_per_symbol: int
    points: np.ndarray = field(default=None)

    def __post_init__(self):
        m = self.num_bits_per_symbol
        if m < 1:
            raise ValueError("num_bits_per_symbol must be >= 1")
        if self.points is None:
            if self.kind == "qam":
                self.points = _qam_points(m)
            elif self.kind == "psk":
                self.points = _psk_points(m)
            else:
                raise ValueError(f"unknown constellation kind {self.kind!r}")
        else:
            self.kind = "custom" if self.kind not in ("qam", "psk") else self.kind
            self.points = np.asarray(self.points, dtype=np.complex128)
        if self.points.shape != (1 << m,):
            raise ValueError(
                f"expected {1 << m} points, got shape {self.points.shape}"
            )
        energy = np.mean(np.abs(self.points) ** 2)
        self.points = self.points / np.sqrt(energy)
        self._bits = _labels_to_bits(m)
        self._factors = _factors(self.points, m)

    @property
    def bit_table(self) -> np.ndarray:
        return self._bits


def map_bits(bits: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Map consecutive m-bit groups (big-endian) to constellation points."""
    bits = np.asarray(bits)
    m = constellation.num_bits_per_symbol
    if bits.shape[-1] % m != 0:
        raise ValueError(
            f"bit count {bits.shape[-1]} not divisible by {m} bits/symbol"
        )
    groups = bits.reshape(*bits.shape[:-1], bits.shape[-1] // m, m)
    # Horner's rule, most significant bit first: one label-sized array in
    # place of an int64 copy of every bit.
    labels = groups[..., 0].astype(np.intp)
    for j in range(1, m):
        labels <<= 1
        np.add(labels, groups[..., j], out=labels, casting="unsafe")
    return constellation.points[labels]


def _tile_symbols(constellation: Constellation) -> int:
    """Symbols per demapper tile: the float64 subset tensor stays near
    ``core.TILE_BYTES``."""
    widest = max(f.bits.size for f in constellation._factors)
    return tile_rows(8 * widest)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """ln(sum(exp(a))) over axis 2, shifted by the maximum; overwrites a."""
    if a.shape[2] == 1:
        # One level per subset (BPSK, each QPSK axis): log(1.0) + peak is
        # peak + 0.0, which also turns -0.0 into +0.0.
        return a[:, :, 0] + 0.0
    peak = np.max(a, axis=2)
    peak[~np.isfinite(peak)] = 0.0
    np.subtract(a, peak[:, :, None], out=a)
    np.exp(a, out=a)
    return np.log(np.sum(a, axis=2)) + peak


def _demap(y, no, constellation, prior, mode, dtype):
    y = np.atleast_1d(y)
    no = np.asarray(no, dtype=np.float64)
    if not np.all(no > 0):  # also rejects NaN
        raise ValueError("demap: noise variance must be > 0")
    m = constellation.num_bits_per_symbol
    out_shape = (*y.shape[:-1], y.shape[-1] * m)
    if no.ndim:
        no = np.broadcast_to(no, y.shape).reshape(-1)
    y = y.reshape(-1)
    if prior is not None:
        prior = np.asarray(prior, dtype=np.float64)
        # A flat prior of shape [m], or one prior per bit position with
        # as many entries as the output.
        if prior.shape != (m,):
            prior = prior.reshape(y.size, m)
    tile = _tile_symbols(constellation)
    reduce = _logsumexp if mode == "app" else (lambda a: np.max(a, axis=2))

    # float64 metrics, each rounded once into the output dtype.
    llr = np.empty((y.size, m), dtype)
    for f in constellation._factors:
        yf = f.part(y)
        levels = f.levels[:, None]
        flat_prior = (f.bits @ prior[f.positions]
                      if prior is not None and prior.ndim == 1 else None)
        for start in range(0, y.size, tile):
            t = slice(start, start + tile)
            # [levels, tile] squared-distance log metrics.
            logits = np.abs(yf[t] - levels) ** 2
            np.negative(logits, out=logits)
            logits /= no[t] if no.ndim else no
            if flat_prior is not None:
                logits += flat_prior[:, None]
            elif prior is not None:
                logits += np.einsum("tb,lb->lt", prior[t, f.positions], f.bits)
            # [2, bits, levels/2, tile]: the 1- and 0-subsets of each bit.
            r = reduce(logits[f.subsets])
            llr[t, f.positions] = (r[0] - r[1]).T
    # Flatten the per-symbol bit axis back into a bit stream.
    return llr.reshape(out_shape)


def demap_app(y, no, constellation: Constellation, prior=None,
              dtype=np.float64) -> np.ndarray:
    """Exact a-posteriori LLRs ln(Pr(b=1)/Pr(b=0)) with optional priors.

    Computed with max-normalized log-sum-exp for numerical stability.  The
    output has the same layout as the mapper input: m consecutive LLRs per
    received symbol, in ``dtype``.
    """
    return _demap(y, no, constellation, prior, "app", dtype)


def demap_maxlog(y, no, constellation: Constellation, prior=None,
                 dtype=np.float64) -> np.ndarray:
    """Max-log approximation of :func:`demap_app`."""
    return _demap(y, no, constellation, prior, "maxlog", dtype)
