"""Polar and Reed-Muller codes: CRC attachment, code construction,
transform encoding, and successive-cancellation (list) decoding.

Block lengths are powers of two up to 1024, natural (non-bit-reversed)
order.  Construction freezes the least reliable synthetic channels of
the length-1024 beta-expansion reliability order, computed on first use
(not the table of 3GPP TS 38.212); Reed-Muller codes reuse the same
machinery with a row-weight information set.

The CRC remainder is one GF(2) matrix product with the table of
x^j mod g (the CRC has zero initial state, so it is linear).

SC and SCL decoding run one recursive walk of the code tree and differ
only in the leaf that decides a bit.  From the root's LLRs, copied once,
to its partial sums, the walk holds every array node-major, as
[n, batch, paths] with the frames innermost (the inter-frame layout of
Le Gal, Leroux and Jego, "Multi-Gb/s Software Decoding of Polar Codes",
IEEE T-SP 2015): the two halves of every node are contiguous slabs, so
each f, g, gather and XOR runs inner loops over all batch * paths rows,
however small the node.
The list decoder copies no path state when paths split (the lazy copy
of Tal & Vardy, "List Decoding of Polar Codes", IEEE T-IT 2015): a
leaf returns the parent of each surviving path, and a node gathers its
LLRs and left partial sums through those parents only when a child
returns them; a level shared by all paths is never gathered.  The
decisions are the polar transform of the root's partial sums, so there
is no traceback.

Subtrees that need no descent are answered whole (Sarkis et al., "Fast
Polar Decoders", IEEE JSAC 2014; Hashemi, Condo and Gross, "Fast and
Flexible Successive-Cancellation List Decoders for Polar Codes", IEEE
T-SP 2017).  Each code holds a read-only table of node kinds: Rate-0
(all frozen), Rate-1 (none frozen) and REP (only the last bit free).  SC
answers Rate-0 and REP nodes, and with the min-sum f also Rate-1 nodes
that hold no zero LLR, with the bits the descent would decide.  SCL with
the min-sum f answers Rate-0 nodes by adding the node's penalty sum to
the path metrics and REP nodes by one fork: in exact arithmetic these
sums equal the leaf-by-leaf penalties, and each node forks at most once
with the same stable (path, bit) ranking, so the decisions are those of
a decoder that copies every path and visits every leaf, up to the float
order of the sums.  Those sums run over the node axis in numpy's
pairwise order (:func:`~linksim.core._pairwise_sum`), the order of
``.sum(axis=-1)`` over a [batch, paths, n] array.  SPC nodes (only the
first bit frozen) are descended: flipping the least reliable hard
decision differs from the min-sum descent where magnitudes tie.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import _pairwise_sum

_MAX_N = 1024

# Node kinds of the code tree, as stored in PolarCode.node_kinds.
OTHER, RATE0, RATE1, REP = range(4)


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
    powers = []  # x^(j + degree) mod g for j = 0 .. length - 1
    p = g ^ (1 << deg)
    for _ in range(length):
        powers.append(p)
        p <<= 1
        if p >> deg:
            p ^= g
    # Row t: the bits of x^(l - 1 - t + degree) mod g, MSB first.
    table = (np.array(powers[::-1], dtype=np.int64)[:, None]
             >> np.arange(deg - 1, -1, -1)) & 1
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
    """Length-1024 synthetic-channel order, least reliable first: the
    beta-expansion order of He et al. (IEEE GLOBECOM 2017), which weighs
    index i by sum_j b_j beta^j over its bits b_j, beta = 2^(1/4).
    Read-only, since every caller shares the cached array."""
    beta = 2 ** 0.25
    bits = (np.arange(_MAX_N)[:, None] >> np.arange(10)) & 1
    weights = (bits * beta ** np.arange(10)).sum(axis=1)
    order = np.argsort(weights, kind="stable")
    order.setflags(write=False)
    return order


@dataclass
class PolarCode:
    """Static polar code description: block length, frozen and info sets."""

    block_length: int
    frozen_set: np.ndarray
    crc: Optional[CrcPolynomial] = None
    info_set: np.ndarray = field(init=False)
    node_kinds: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.block_length
        if n < 2 or n & (n - 1) or n > _MAX_N:
            raise ValueError(f"block length {n} must be a power of two <= {_MAX_N}")
        frozen = np.asarray(self.frozen_set, dtype=np.int64).ravel()
        if len(frozen) and (frozen.min() < 0 or frozen.max() >= n):
            raise ValueError("frozen index out of range")
        frozen_mask = np.zeros(n, dtype=bool)
        frozen_mask[frozen] = True
        # Sorted and without repeats, read off the mask: np.unique would
        # import numpy.ma, tens of milliseconds of set-up.
        self.frozen_set = np.flatnonzero(frozen_mask)
        self.info_set = np.flatnonzero(~frozen_mask)
        self.node_kinds = _node_kinds(frozen_mask)

    @property
    def k(self) -> int:
        return len(self.info_set)

    @property
    def num_stages(self) -> int:
        return int(np.log2(self.block_length))


def _node_kinds(frozen_mask: np.ndarray) -> np.ndarray:
    """Read-only [n, stages + 1] table of the code tree's node kinds.

    Entry [i, s] is the kind of the size-2^s node that holds bit i, so a
    node's rows are a slice of the table and its kind is the first row's
    entry at its level.  Leaves are RATE0 (frozen) or RATE1; a size-2 node
    with only its last bit free is REP.
    """
    n = len(frozen_mask)
    kinds = np.empty((n, n.bit_length()), dtype=np.uint8)
    for s in range(n.bit_length()):
        frozen = frozen_mask.reshape(-1, 1 << s)
        num_free = (1 << s) - np.count_nonzero(frozen, axis=1)
        kind = np.full(len(frozen), OTHER, dtype=np.uint8)
        kind[num_free == 0] = RATE0
        kind[num_free == 1 << s] = RATE1
        if s >= 1:
            kind[(num_free == 1) & ~frozen[:, -1]] = REP
        kinds[:, s] = np.repeat(kind, 1 << s)
    kinds.setflags(write=False)  # shared by every thread that decodes
    return kinds


def polar5g_construct(k: int, n: int, crc: Optional[CrcPolynomial] = None) -> PolarCode:
    """Construct an (n, k) polar code from :func:`reliability_sequence`.

    This build restricts n to powers of two up to 1024, as checked by
    :class:`PolarCode` (no sub-block interleaving, puncturing, or
    repetition).  When a CRC is given, k counts the non-frozen
    positions, i.e. payload plus CRC bits.
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
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


def _butterflies(x: np.ndarray) -> None:
    """In place, every stage of the transform on the node axis of the
    C-contiguous node-major [n, rows] array x: x[:h] ^= x[h:2h] in each
    block of 2h, for h = 1, 2, 4, ..., so each stage XORs whole
    [h, rows] slabs."""
    n, rows = x.shape
    h = 1
    while h < n:
        blocks = x.reshape(n // (2 * h), 2, h * rows)
        blocks[:, 0] ^= blocks[:, 1]
        h *= 2


def polar_transform(u: np.ndarray) -> np.ndarray:
    """Apply the butterfly transform u -> u F^{(x) n} over GF(2).

    ``u`` holds 0/1 bits on its last axis; other values are outside the
    contract.  The bits are copied node-major, with the last axis
    outermost in memory as the decoders' partial sums already are, so
    each stage XORs whole slabs of every row at once.  The result is a
    view of that copy in the axis order of ``u``.
    """
    u = np.atleast_2d(np.asarray(u, dtype=np.uint8))
    n = u.shape[-1]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    x = np.moveaxis(u, -1, 0).copy()
    _butterflies(x.reshape(n, -1))
    return np.moveaxis(x, 0, -1)


def polar_encode(info_bits: np.ndarray, code: PolarCode) -> np.ndarray:
    """Place info bits on the info set, zeros on frozen, and transform.

    The bits are scattered into a fresh node-major [n, batch] array, the
    layout :func:`_butterflies` works in, transformed there in place and
    returned as its [batch, n] view.
    """
    info_bits = np.atleast_2d(np.asarray(info_bits, dtype=np.uint8))
    if info_bits.shape[-1] != code.k:
        raise ValueError(f"expected {code.k} info bits, got {info_bits.shape[-1]}")
    u = np.zeros((code.block_length, info_bits.shape[0]), dtype=np.uint8)
    u[code.info_set] = info_bits.T
    _butterflies(u)
    return u.T


def _f_minsum(a, b):
    # copysign(min(|a|, |b|), a * b), with one temporary at a time.  The
    # sign of a * b is exact even where the product under- or overflows;
    # it can differ from sign(a) * sign(b) only on a zero.
    f = np.abs(a, out=np.empty(np.broadcast(a, b).shape, np.result_type(a, b)))
    np.minimum(f, np.abs(b), out=f)
    return np.copysign(f, a * b, out=f)


def _f_exact(a, b):
    # Numerically-safe boxplus of ln(p0/p1) LLRs.
    return (_f_minsum(a, b) + np.log1p(np.exp(-np.abs(a + b)))
            - np.log1p(np.exp(-np.abs(a - b))))


def _walk(alpha, kinds, f_func, leaf):
    """Successive cancellation below one node of the code tree.

    ``alpha`` holds the node's node-major [n, batch, paths] ln(p0/p1)
    LLRs; a path axis of 1 is shared by all paths.  ``kinds`` is the
    node's slice of :attr:`PolarCode.node_kinds`.  ``leaf(a, frozen)``
    decides the bits of one leaf from its [batch, paths] LLRs and returns
    them with a parent map.  ``leaf.nodes`` maps node kinds to handlers
    that answer a whole node the same way from its LLRs, or return
    ``None`` to descend.  Returns ``(beta, parent)``: the node's
    [n, batch, paths] partial sums in the path order at exit, and for
    each path at exit its column at entry in the [n, batch * paths]
    view, or ``None`` when no path moved.
    """
    n = len(alpha)
    if n == 1:
        bits, parent = leaf(alpha[0], kinds[0, 0] == RATE0)
        return bits[None], parent
    node = leaf.nodes.get(kinds[0, n.bit_length() - 1])
    if node is not None:
        answer = node(alpha)
        if answer is not None:
            return answer
    h = n // 2
    beta_left, parent = _walk(f_func(alpha[:h], alpha[h:]),
                              kinds[:h], f_func, leaf)
    if parent is not None and alpha.shape[-1] > 1:
        alpha = np.take(alpha.reshape(n, -1), parent, axis=1)
    beta_right, moved = _walk(_g(alpha[:h], alpha[h:], beta_left),
                              kinds[h:], f_func, leaf)
    if moved is not None:
        if beta_left.shape[-1] > 1:
            beta_left = np.take(beta_left.reshape(h, -1), moved, axis=1)
        parent = moved if parent is None else np.take(parent, moved)
    return np.concatenate([beta_left ^ beta_right, beta_right]), parent


def _g(a, b, beta_left):
    """b + (1 - 2 beta_left) a, in one node-sized array and the same bytes."""
    g = np.multiply(beta_left, -2.0, out=np.empty(np.broadcast(beta_left, a).shape))
    g += 1.0
    g *= a
    g += b
    return g


def _root_alpha(llr: np.ndarray, code: PolarCode) -> np.ndarray:
    """Node-major [N, batch, 1] root ln(p0/p1) LLRs for :func:`_walk`:
    -llr, transposed and cast in one C-contiguous float64 copy."""
    llr = np.atleast_2d(np.asarray(llr))
    if llr.shape[-1] != code.block_length:
        raise ValueError(f"expected {code.block_length} LLRs, got {llr.shape[-1]}")
    return np.negative(llr.T, dtype=np.float64, order="C")[:, :, None]


def polar_sc_decode(llr: np.ndarray, code: PolarCode, exact: bool = False) -> np.ndarray:
    """Successive-cancellation decoding, [batch, N] LLRs -> [batch, k] bits.

    Uses the min-sum f update by default; ``exact=True`` switches to the
    exact boxplus.
    """
    alpha = _root_alpha(llr, code)

    def leaf(a, frozen):
        return np.zeros(a.shape, np.uint8) if frozen else (a < 0).view(np.uint8), None

    def rate0(alpha):
        return np.zeros(alpha.shape, np.uint8), None

    def rate1(alpha):
        # Under min-sum every f and g below keeps the sign of the node
        # LLRs it comes from, so the descent decides alpha < 0, unless
        # an LLR is zero (or NaN).
        if not np.all(np.abs(alpha) > 0):
            return None
        return (alpha < 0).view(np.uint8), None

    def rep(alpha):
        # The frozen left halves decide 0, so f is never read: the free
        # leaf sees the node's LLRs summed in the walk's halving order.
        n, x = len(alpha), alpha
        while len(x) > 1:
            h = len(x) // 2
            x = x[h:] + x[:h]
        return np.repeat((x < 0).view(np.uint8), n, axis=0), None

    leaf.nodes = {RATE0: rate0, REP: rep} if exact else {
        RATE0: rate0, RATE1: rate1, REP: rep}
    beta, _ = _walk(alpha, code.node_kinds,
                    _f_exact if exact else _f_minsum, leaf)
    return polar_transform(beta.transpose(1, 2, 0))[:, 0, code.info_set]


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
    alpha = _root_alpha(llr, code)
    batch = alpha.shape[1]
    metrics = np.full((batch, list_size), np.inf)
    metrics[:, 0] = 0.0
    # (path, bit) candidates of every row, and the flat index of each row.
    cand = np.empty((batch, list_size, 2))
    first_cand = np.arange(0, cand.size, 2 * list_size)[:, None]

    def fork(pen0, pen1):
        # The stable sort keeps the lower (path, bit) index on metric ties.
        nonlocal metrics
        np.add(metrics, pen0, out=cand[..., 0])
        np.add(metrics, pen1, out=cand[..., 1])
        order = np.argsort(cand.reshape(batch, 2 * list_size), axis=1,
                           kind="stable")[:, :list_size]
        order += first_cand
        metrics = np.take(cand, order)
        return (order & 1).astype(np.uint8), order >> 1

    def leaf(a, frozen):
        nonlocal metrics
        pen0 = np.maximum(-a, 0.0)  # decide 0 against a negative LLR
        if frozen:
            metrics = metrics + pen0
            return np.zeros(a.shape, np.uint8), None
        return fork(pen0, np.maximum(a, 0.0))

    # Under min-sum a node's leaf-by-leaf penalties for deciding all 0
    # (all 1) sum to those of its own LLRs, added in the pairwise order
    # of a sum over a contiguous [batch, paths, n] axis.
    def rate0(alpha):
        nonlocal metrics
        metrics = metrics + _pairwise_sum(np.maximum(-alpha, 0.0))
        return np.zeros(alpha.shape, np.uint8), None

    def rep(alpha):
        bits, parent = fork(_pairwise_sum(np.maximum(-alpha, 0.0)),
                            _pairwise_sum(np.maximum(alpha, 0.0)))
        return np.repeat(bits[None], len(alpha), axis=0), parent

    leaf.nodes = {} if exact else {RATE0: rate0, REP: rep}
    beta, _ = _walk(alpha, code.node_kinds,
                    _f_exact if exact else _f_minsum, leaf)
    # The transform is its own inverse: it maps partial sums back to bits.
    decisions = polar_transform(beta.transpose(1, 2, 0))[..., code.info_set]
    if use_crc:
        flat = decisions.reshape(batch * list_size, code.k)
        valid = crc_check(flat, code.crc).reshape(batch, list_size)
        # Rule out the failing paths, unless every path of the row fails.
        valid |= ~valid.any(axis=1, keepdims=True)
        metrics = np.where(valid, metrics, np.inf)
    return decisions[np.arange(batch), np.argmin(metrics, axis=1)]
