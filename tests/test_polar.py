import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from linksim import polar
from linksim.channel import awgn
from linksim.core import (RngStream, binary_source, compute_bler, cpu_count,
                          ebnodb2no)
from linksim.polar import (CRC_POLYNOMIALS, CrcPolynomial, PolarCode,
                           _crc_remainder, _crc_table,
                           _f_exact, _f_minsum, crc_attach, crc_check,
                           polar5g_construct, polar_encode, polar_sc_decode,
                           polar_scl_decode, polar_transform, rm_construct,
                           reliability_sequence)
from linksim.sweep import SimConfig, format_csv, run_sweep


def bpsk_llr(codewords, no, rng):
    x = (1.0 - 2.0 * codewords).astype(np.complex128)
    y = awgn(x, no, rng)
    return -4.0 * np.real(y) / no


def codebook(code):
    """All 2^k codewords, indexed by the info-bit tuple (big-endian)."""
    k = code.k
    msgs = np.array(list(itertools.product([0, 1], repeat=k)), dtype=np.uint8)
    return msgs, polar_encode(msgs, code)


class TestCrc:
    @pytest.mark.parametrize("name", sorted(CRC_POLYNOMIALS))
    def test_attach_then_check(self, name):
        poly = CRC_POLYNOMIALS[name]
        bits = binary_source([50, 40], RngStream(1))
        frame = crc_attach(bits, poly)
        assert frame.shape == (50, 40 + poly.degree)
        assert crc_check(frame, poly).all()

    @pytest.mark.parametrize("name", sorted(CRC_POLYNOMIALS))
    def test_single_bit_errors_detected(self, name):
        poly = CRC_POLYNOMIALS[name]
        bits = binary_source([1, 30], RngStream(2))
        frame = crc_attach(bits, poly)
        for pos in range(frame.shape[1]):
            bad = frame.copy()
            bad[0, pos] ^= 1
            assert not crc_check(bad, poly)[0]

    def test_parity_polynomial_is_even_parity(self):
        poly = CRC_POLYNOMIALS["parity"]
        frame = crc_attach(np.array([[1, 0, 1, 1]]), poly)
        assert frame.sum() % 2 == 0

    def test_crc16_known_vector(self):
        # CRC-16/CCITT of one zero byte with zero initial state is 0x0000;
        # of the single bit 1 it equals the generator's lower 16 bits.
        poly = CRC_POLYNOMIALS["crc16"]
        frame = crc_attach(np.zeros((1, 8), dtype=np.uint8), poly)
        assert not frame[0, 8:].any()
        frame = crc_attach(np.array([[1]], dtype=np.uint8), poly)
        expected = [(0x1021 >> i) & 1 for i in range(15, -1, -1)]
        assert list(frame[0, 1:]) == expected


class TestConstruction:
    def test_reliability_sequence_is_permutation(self):
        seq = reliability_sequence()
        assert sorted(seq.tolist()) == list(range(1024))

    def test_reliability_sequence_is_pinned_and_read_only(self):
        # The order every polar frozen set and reference CSV was built from.
        seq = reliability_sequence()
        digest = hashlib.sha256(seq.astype("<i8").tobytes()).hexdigest()
        assert digest == ("9bdd1efde6e957bde9d838bc0be6b134"
                          "645f1c1613aedbf062b142ccc1d1d2d8")
        assert seq.dtype == np.int64 and not seq.flags.writeable
        with pytest.raises(ValueError):
            seq[0] = 1

    def test_most_reliable_positions_last(self):
        # Index n-1 (all stages combine) is always the most reliable.
        seq = reliability_sequence()
        assert seq[-1] == 1023
        assert seq[0] == 0

    def test_info_set_4_of_8(self):
        code = polar5g_construct(4, 8)
        assert code.info_set.tolist() == [3, 5, 6, 7]

    def test_rm_1_3_equals_polar_4_8_choice(self):
        rm = rm_construct(1, 3)
        assert rm.info_set.tolist() == [3, 5, 6, 7]

    def test_rm_minimum_distance(self):
        # RM(1, 3) has minimum distance 4.
        rm = rm_construct(1, 3)
        _, words = codebook(rm)
        weights = words.sum(axis=1)
        assert weights[1:].min() == 4

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            polar5g_construct(10, 24)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            polar5g_construct(0, 8)
        with pytest.raises(ValueError):
            polar5g_construct(8, 8)

    def test_code_attrs(self):
        code = polar5g_construct(5, 16)
        assert code.k == 5
        assert code.num_stages == 4
        assert len(code.frozen_set) + len(code.info_set) == 16

    def test_frozen_set_sorted_without_repeats(self):
        code = PolarCode(8, [5, 1, 1, 3, 5])
        assert code.frozen_set.tolist() == [1, 3, 5]
        assert code.info_set.tolist() == [0, 2, 4, 6, 7]
        assert code.frozen_set.dtype == np.int64
        with pytest.raises(ValueError):
            PolarCode(8, [1, 8])
        with pytest.raises(ValueError):
            PolarCode(8, [-1])


class TestEncode:
    def test_transform_self_inverse(self):
        u = binary_source([20, 64], RngStream(3))
        assert np.array_equal(polar_transform(polar_transform(u)), u)

    def test_hand_computed_n4(self):
        # u = [u0 u1 u2 u3], x = u F^{(x)2}: x0=u0^u1^u2^u3, x1=u1^u3,
        # x2=u2^u3, x3=u3.
        u = np.array([[1, 0, 1, 1]], dtype=np.uint8)
        x = polar_transform(u)
        assert x.tolist() == [[1, 1, 0, 1]]

    def test_encode_places_info_bits(self):
        code = polar5g_construct(4, 8)
        bits = np.array([[1, 0, 1, 1]], dtype=np.uint8)
        x = polar_encode(bits, code)
        u = np.zeros((1, 8), dtype=np.uint8)
        u[0, code.info_set] = bits
        assert np.array_equal(x, polar_transform(u))

    def test_linearity(self):
        code = polar5g_construct(8, 16)
        rng = RngStream(4, 0)
        a = binary_source([10, 8], rng.child(0))
        b = binary_source([10, 8], rng.child(1))
        assert np.array_equal(
            polar_encode(a ^ b, code),
            polar_encode(a, code) ^ polar_encode(b, code),
        )


class TestScDecode:
    def test_noiseless_round_trip(self):
        for k, n in [(4, 8), (12, 32), (100, 256)]:
            code = polar5g_construct(k, n)
            bits = binary_source([16, k], RngStream(20 + n))
            x = polar_encode(bits, code)
            llr = (2.0 * x - 1.0) * 6.0
            assert np.array_equal(polar_sc_decode(llr, code), bits)

    def test_exact_variant_matches_minsum_decisions_mostly(self):
        code = polar5g_construct(16, 32)
        rng = RngStream(21, 0)
        bits = binary_source([300, 16], rng.child(0))
        x = polar_encode(bits, code)
        no = ebnodb2no(3.0, 1, 0.5)
        llr = bpsk_llr(x, no, rng.child(1))
        d_min = polar_sc_decode(llr, code, exact=False)
        d_exact = polar_sc_decode(llr, code, exact=True)
        # Both must be near-identical; the approximation changes few frames.
        assert np.mean(np.all(d_min == d_exact, axis=1)) > 0.97

    def test_sc_posterior_recursion_oracle(self):
        # Exact-SC bit posteriors on a tiny code, verified against direct
        # enumeration of Pr(u_i | y, u_{<i}) over the codebook.
        code = polar5g_construct(3, 4)
        msgs, words = codebook(code)
        g = RngStream(22, 0).generator()
        no = 0.8
        for _ in range(200):
            tx = words[g.integers(len(words))]
            y = (1.0 - 2.0 * tx) + np.sqrt(no / 2) * g.standard_normal(4)
            llr = -4.0 * y / no
            dec = polar_sc_decode(llr[None, :], code, exact=True)[0]
            # Follow the same successive path with exact enumeration.
            lik = np.exp(llr @ words.T)  # metric prop. to Pr(y | word)
            prefix = np.ones(len(words), dtype=bool)
            expected = []
            for i in range(code.k):
                p1 = lik[prefix & (msgs[:, i] == 1)].sum()
                p0 = lik[prefix & (msgs[:, i] == 0)].sum()
                bit = 1 if p1 > p0 else 0
                expected.append(bit)
                prefix &= msgs[:, i] == bit
            assert dec.tolist() == expected


class TestSclDecode:
    def test_list_one_equals_sc(self):
        code = polar5g_construct(16, 32)
        rng = RngStream(30, 0)
        bits = binary_source([500, 16], rng.child(0))
        x = polar_encode(bits, code)
        no = ebnodb2no(1.0, 1, 0.5)
        llr = bpsk_llr(x, no, rng.child(1))
        sc = polar_sc_decode(llr, code)
        scl = polar_scl_decode(llr, code, list_size=1)
        assert np.array_equal(sc, scl)

    def test_full_list_is_ml_n8(self):
        # With L = 2^k the list contains every message, so the selection
        # must be exact ML (up to metric ties).
        code = polar5g_construct(4, 8)
        msgs, words = codebook(code)
        g = RngStream(31, 0).generator()
        llrs = g.normal(size=(2000, 8)) * 2.0
        dec = polar_scl_decode(llrs, code, list_size=16)
        metrics = llrs @ words.T.astype(float)
        best = metrics.max(axis=1)
        chosen = metrics[np.arange(len(llrs)),
                         (msgs[None, :, :] == dec[:, None, :]).all(-1).argmax(1)]
        untied = (np.sort(metrics, axis=1)[:, -1]
                  - np.sort(metrics, axis=1)[:, -2]) > 1e-9
        assert untied.sum() > 1900
        assert np.allclose(chosen[untied], best[untied])

    def test_larger_list_never_much_worse(self):
        code = polar5g_construct(32, 64)
        rng = RngStream(32, 0)
        bits = binary_source([500, 32], rng.child(0))
        x = polar_encode(bits, code)
        no = ebnodb2no(2.0, 1, 0.5)
        llr = bpsk_llr(x, no, rng.child(1))
        bler = [compute_bler(bits, polar_scl_decode(llr, code, list_size=L))
                for L in (1, 8)]
        assert bler[1] <= bler[0]

    def test_ca_scl_beats_plain_scl(self):
        crc = CRC_POLYNOMIALS["crc6"]
        rng = RngStream(33, 0)
        no = ebnodb2no(3.0, 1, 0.5)
        payload = binary_source([2000, 32], rng.child(0))

        plain = polar5g_construct(32, 64)
        x = polar_encode(payload, plain)
        llr = bpsk_llr(x, no, rng.child(1))
        bler_plain = compute_bler(
            payload, polar_scl_decode(llr, plain, list_size=8))

        ca = polar5g_construct(32 + crc.degree, 64, crc=crc)
        frame = crc_attach(payload, crc)
        x = polar_encode(frame, ca)
        llr = bpsk_llr(x, no, rng.child(2))
        dec = polar_scl_decode(llr, ca, list_size=8, use_crc=True)
        bler_ca = compute_bler(payload, dec[:, :32])
        assert bler_ca < bler_plain

    def test_ca_scl_noiseless(self):
        crc = CRC_POLYNOMIALS["crc11"]
        code = polar5g_construct(43, 128, crc=crc)
        payload = binary_source([20, 32], RngStream(34))
        frame = crc_attach(payload, crc)
        x = polar_encode(frame, code)
        llr = (2.0 * x - 1.0) * 6.0
        dec = polar_scl_decode(llr, code, list_size=4, use_crc=True)
        assert np.array_equal(dec[:, :32], payload)
        assert crc_check(dec, crc).all()

    def test_use_crc_without_crc_raises(self):
        code = polar5g_construct(4, 8)
        with pytest.raises(ValueError):
            polar_scl_decode(np.zeros((1, 8)), code, use_crc=True)


ROOT_DECODERS = [
    ("sc", lambda llr, code: polar_sc_decode(llr, code)),
    ("sc-exact", lambda llr, code: polar_sc_decode(llr, code, exact=True)),
    ("ca-scl-L1", lambda llr, code: polar_scl_decode(llr, code, list_size=1,
                                                     use_crc=True)),
    ("ca-scl-L4", lambda llr, code: polar_scl_decode(llr, code, list_size=4,
                                                     use_crc=True)),
]


class TestRootInput:
    """The root of both decoders: an empty batch decodes to no rows, and
    LLRs of any layout and dtype decode as their C-contiguous float64
    copy, without being written."""

    @pytest.mark.parametrize("use_crc", [False, True])
    @pytest.mark.parametrize("list_size", [1, 8])
    def test_scl_empty_batch(self, list_size, use_crc):
        code = polar5g_construct(40, 64, crc=CRC_POLYNOMIALS["crc6"])
        got = polar_scl_decode(np.zeros((0, 64)), code, list_size=list_size,
                               use_crc=use_crc)
        assert got.shape == (0, code.k)

    @pytest.mark.parametrize("exact", [False, True])
    def test_sc_empty_batch(self, exact):
        code = polar5g_construct(40, 64, crc=CRC_POLYNOMIALS["crc6"])
        got = polar_sc_decode(np.zeros((0, 64)), code, exact=exact)
        assert got.shape == (0, code.k)

    @pytest.mark.parametrize("layout", ["fortran", "strided", "float32"])
    @pytest.mark.parametrize("label,decode", ROOT_DECODERS,
                             ids=[d[0] for d in ROOT_DECODERS])
    def test_layout_and_dtype(self, label, decode, layout):
        code = polar5g_construct(40, 64, crc=CRC_POLYNOMIALS["crc6"])
        rng = RngStream(35, 0)
        x = polar_encode(crc_attach(binary_source([60, 34], rng.child(0)),
                                    code.crc), code)
        llr = bpsk_llr(x, ebnodb2no(1.0, 1, 40 / 64), rng.child(1))
        if layout == "fortran":
            llr = np.asfortranarray(llr)
        elif layout == "strided":
            llr = np.repeat(llr, 2, axis=1)[:, ::2]
        else:
            llr = llr.astype(np.float32)
        before = llr.copy()
        got = decode(llr, code)
        assert np.array_equal(llr, before)
        want = decode(np.ascontiguousarray(llr, dtype=np.float64), code)
        assert np.array_equal(got, want)


# -- oracles: the shift-register CRC and the copying SCL decoder ------------

def crc_register_states(bits, poly):
    """Shift-register CRC over each row; the register after every bit.

    The state after t bits is the remainder of the t-bit prefix, so entry
    t - 1 is the oracle for ``_crc_remainder(bits[:, :t], poly)``.
    """
    deg = poly.degree
    taps = np.asarray(poly.coefficients[1:], dtype=np.uint8)
    rem = np.zeros((bits.shape[0], deg), dtype=np.uint8)
    states = []
    for t in range(bits.shape[1]):
        feedback = rem[:, 0] ^ bits[:, t]
        rem[:, :-1] = rem[:, 1:]
        rem[:, -1] = 0
        rem ^= feedback[:, None] * taps
        states.append(rem.copy())
    return states


def scl_decode_oracle(llr, code, list_size=8, use_crc=False, exact=False):
    """SCL that permutes every path-indexed array at each info leaf."""
    llr = np.atleast_2d(np.asarray(llr, dtype=np.float64))
    n = code.block_length
    batch = llr.shape[0]
    stages = code.num_stages
    size = list_size
    f_func = _f_exact if exact else _f_minsum
    frozen_mask = np.zeros(n, dtype=bool)
    frozen_mask[code.frozen_set] = True

    alpha = [np.zeros((batch, size, n >> d)) for d in range(stages + 1)]
    alpha[0][:] = -llr[:, None, :]
    beta_store = [None] + [
        np.zeros((batch, size, n >> d), dtype=np.uint8) for d in range(1, stages + 1)
    ]
    us = np.zeros((batch, size, n), dtype=np.uint8)
    metrics = np.full((batch, size), np.inf)
    metrics[:, 0] = 0.0
    rows = np.arange(batch)[:, None]

    def push_alpha(from_depth, leaf):
        for d in range(from_depth, stages):
            a = alpha[d]
            h = a.shape[-1] // 2
            left, right = a[..., :h], a[..., h:]
            if (leaf >> (stages - d - 1)) & 1:
                alpha[d + 1] = right + (1.0 - 2.0 * beta_store[d + 1]) * left
            else:
                alpha[d + 1] = f_func(left, right)

    prev = 0
    for leaf in range(n):
        if leaf == 0:
            push_alpha(0, 0)
        else:
            push_alpha(stages - (prev ^ leaf).bit_length(), leaf)
        prev = leaf

        a = alpha[stages][..., 0]
        if frozen_mask[leaf]:
            metrics = metrics + np.maximum(-a, 0.0)
            us[:, :, leaf] = 0
            beta_leaf = np.zeros((batch, size, 1), dtype=np.uint8)
        else:
            pen0 = np.maximum(-a, 0.0)
            pen1 = np.maximum(a, 0.0)
            cand = np.stack([metrics + pen0, metrics + pen1], axis=-1)
            cand = cand.reshape(batch, 2 * size)
            order = np.argsort(cand, axis=1, kind="stable")[:, :size]
            src = order >> 1
            bit = (order & 1).astype(np.uint8)
            metrics = np.take_along_axis(cand, order, axis=1)
            us = us[rows, src]
            us[:, :, leaf] = bit
            for d in range(1, stages + 1):
                beta_store[d] = beta_store[d][rows, src]
                alpha[d] = alpha[d][rows, src]
            beta_leaf = bit[..., None]

        b_cur = beta_leaf
        depth = stages
        while depth > 0 and (leaf >> (stages - depth)) & 1:
            left = beta_store[depth]
            b_cur = np.concatenate([left ^ b_cur, b_cur], axis=-1)
            depth -= 1
        if depth > 0:
            beta_store[depth] = b_cur

    decisions = us[:, :, code.info_set]
    if use_crc:
        flat = decisions.reshape(batch * size, -1)
        deg = code.crc.degree
        expected = crc_register_states(flat[:, :-deg], code.crc)[-1]
        valid = np.all(expected == flat[:, -deg:], axis=1).reshape(batch, size)
        gated = np.where(valid, metrics, np.inf)
        has_valid = np.any(valid, axis=1)
        best = np.where(has_valid, np.argmin(gated, axis=1), np.argmin(metrics, axis=1))
    else:
        best = np.argmin(metrics, axis=1)
    return decisions[np.arange(batch), best]


class TestCrcMatchesRegister:
    @pytest.mark.parametrize("name", sorted(CRC_POLYNOMIALS))
    @pytest.mark.parametrize("batch", [1, 2048])
    def test_every_length_to_600(self, name, batch):
        poly = CRC_POLYNOMIALS[name]
        bits = np.random.default_rng(len(name) + batch).integers(
            0, 2, size=(batch, 600), dtype=np.uint8)
        states = crc_register_states(bits, poly)
        for length in range(1, 601):
            rem = _crc_remainder(bits[:, :length], poly)
            assert rem.dtype == np.uint8
            assert np.array_equal(rem, states[length - 1]), length

    @pytest.mark.parametrize("name", sorted(CRC_POLYNOMIALS))
    def test_every_length_to_1100(self, name):
        # Lengths that are no multiple of 8 and lengths above 1024 too.
        poly = CRC_POLYNOMIALS[name]
        bits = np.random.default_rng(len(name)).integers(
            0, 2, size=(16, 1100), dtype=np.uint8)
        states = crc_register_states(bits, poly)
        for length in range(1, 1101):
            rem = _crc_remainder(bits[:, :length], poly)
            assert np.array_equal(rem, states[length - 1]), length

    @pytest.mark.parametrize("degree", [64, 65, 130])
    def test_wide_custom_polynomial(self, degree):
        g = np.random.default_rng(degree)
        poly = CrcPolynomial(f"deg{degree}", (1, *g.integers(0, 2, degree)))
        bits = g.integers(0, 2, size=(8, 300), dtype=np.uint8)
        states = crc_register_states(bits, poly)
        for length in range(1, 301):
            rem = _crc_remainder(bits[:, :length], poly)
            assert rem.shape == (8, degree)
            assert np.array_equal(rem, states[length - 1]), length
        frame = crc_attach(bits, poly)
        assert crc_check(frame, poly).all()

    @pytest.mark.parametrize("name", sorted(CRC_POLYNOMIALS))
    def test_empty_payload(self, name):
        # A frame of exactly degree bits holds no payload, whose remainder
        # is the register's zero initial state.
        poly = CRC_POLYNOMIALS[name]
        frames = np.random.default_rng(2).integers(
            0, 2, size=(64, poly.degree), dtype=np.uint8)
        frames[0] = 0
        assert np.array_equal(crc_check(frames, poly), ~frames.any(axis=1))
        assert np.array_equal(_crc_remainder(frames[:, :0], poly),
                              np.zeros((64, poly.degree), dtype=np.uint8))

    @pytest.mark.parametrize("name", sorted(CRC_POLYNOMIALS))
    def test_empty_batch(self, name):
        poly = CRC_POLYNOMIALS[name]
        frame = crc_attach(np.zeros((0, 40), dtype=np.uint8), poly)
        assert frame.shape == (0, 40 + poly.degree)
        ok = crc_check(np.zeros((0, 64), dtype=np.uint8), poly)
        assert ok.shape == (0,) and ok.dtype == bool

    @pytest.mark.parametrize("name", sorted(CRC_POLYNOMIALS))
    def test_byte_values_count_by_parity(self, name):
        poly = CRC_POLYNOMIALS[name]
        values = np.random.default_rng(3).integers(
            0, 4, size=(32, 203), dtype=np.uint8)
        want = crc_register_states(values & 1, poly)[-1]
        assert np.array_equal(_crc_remainder(values, poly), want)
        frame = np.concatenate([values, want], axis=1)
        assert crc_check(frame, poly).all()

    def test_cached_table_is_read_only(self):
        poly = CRC_POLYNOMIALS["crc24a"]
        table = _crc_table(poly, 488)
        assert table is _crc_table(poly, 488)
        assert table.shape == (61, 256, 1)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 1] = 0


# Run in a fresh interpreter: the CRC calls of the polar path, then an idle
# window.  A threaded BLAS call would leave its worker spinning there.
_IDLE_CPU_PROBE = """
import time
import numpy as np
from linksim.polar import CRC_POLYNOMIALS, crc_attach, crc_check
poly = CRC_POLYNOMIALS["crc24a"]
g = np.random.default_rng(0)
frames = g.integers(0, 2, size=(2048, 512), dtype=np.uint8)
payload = g.integers(0, 2, size=(256, 488), dtype=np.uint8)
cpu, wall = time.process_time(), time.perf_counter()
crc_check(frames, poly)
crc_attach(payload, poly)
calls = time.perf_counter() - wall
time.sleep(0.3)
print(time.process_time() - cpu, calls)
"""


@pytest.mark.skipif(cpu_count() < 2, reason="no second CPU to spin on")
def test_crc_leaves_no_thread_working():
    # The process's CPU time over the calls and the idle window stays
    # within the calls' wall time: no other thread worked meanwhile.
    env = {name: value for name, value in os.environ.items()
           if not name.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _IDLE_CPU_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    cpu, calls = map(float, proc.stdout.split())
    assert cpu <= calls + 0.05, (cpu, calls)


def _scl_cases():
    """(label, code) pairs: random polar5g codes n = 2..1024, with and
    without a CRC, and Reed-Muller codes including full rate."""
    g = np.random.default_rng(40)
    cases = []
    for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        k = int(g.integers(1, n))
        cases.append((f"polar-{k}-{n}", polar5g_construct(k, n)))
    for name, n in (("parity", 8), ("crc6", 32), ("crc11", 64),
                    ("crc16", 128), ("crc24a", 256), ("crc24a", 1024)):
        crc = CRC_POLYNOMIALS[name]
        k = int(g.integers(crc.degree + 1, n))
        cases.append((f"polar-{k}-{n}-{name}", polar5g_construct(k, n, crc=crc)))
    for r, m in ((0, 4), (1, 3), (2, 5), (3, 6), (3, 3)):
        cases.append((f"rm-{r}-{m}", rm_construct(r, m)))
    return cases


SCL_CASES = _scl_cases()


class TestSclMatchesOracle:
    """The lazy-copy decoder returns the copying decoder's bits exactly."""

    @pytest.mark.parametrize("list_size", [1, 2, 3, 8, 32])
    @pytest.mark.parametrize("label,code", SCL_CASES,
                             ids=[label for label, _ in SCL_CASES])
    def test_bit_identical(self, label, code, list_size):
        n = code.block_length
        g = np.random.default_rng(n + list_size)
        for batch in (1, list_size + 5):
            words = polar_encode(
                g.integers(0, 2, size=(batch, code.k), dtype=np.uint8), code)
            llr = 2.0 * (2.0 * words - 1.0) + 2.5 * g.standard_normal((batch, n))
            llr = np.round(2.0 * llr) / 2.0  # a 0.5 grid: metric ties occur
            for exact in (False, True):
                for use_crc in (False, True) if code.crc else (False,):
                    got = polar_scl_decode(llr, code, list_size=list_size,
                                           use_crc=use_crc, exact=exact)
                    want = scl_decode_oracle(llr, code, list_size=list_size,
                                             use_crc=use_crc, exact=exact)
                    assert got.dtype == want.dtype == np.uint8
                    assert np.array_equal(got, want), (batch, exact, use_crc)

    def test_sweep_csv_same_at_one_and_two_workers(self):
        cfg = SimConfig.from_dict({
            "code": {"family": "polar5g", "k": 70, "n": 128,
                     "decoder": {"type": "scl", "list_size": 4,
                                 "crc": "crc6"}},
            "modulation": {"kind": "qam", "bits_per_symbol": 2},
            "channel": {"kind": "awgn"},
            "sweep": {"ebno_db": [0.0, 2.0, 4.0], "batch_size": 32,
                      "target_block_errors": 20, "max_batches_per_point": 4},
            "seed": 5,
        })
        strip = lambda text: [",".join(ln.split(",")[:-1])
                              for ln in text.splitlines()]
        one, two = (strip(format_csv(run_sweep(cfg, num_workers=w)))
                    for w in (1, 2))
        assert one == two


# -- oracle: the recursive SC decoder that returned its decisions ----------

def seed_sc_decode(llr, code, exact=False):
    """SC that concatenates the leaf decisions of its recursion."""
    llr = np.atleast_2d(np.asarray(llr, dtype=np.float64))
    frozen_mask = np.zeros(code.block_length, dtype=bool)
    frozen_mask[code.frozen_set] = True
    f_func = _f_exact if exact else _f_minsum

    def recurse(alpha, frozen):
        n = alpha.shape[-1]
        if n == 1:
            if frozen[0]:
                u = np.zeros(alpha.shape[:-1] + (1,), dtype=np.uint8)
            else:
                u = (alpha < 0).astype(np.uint8)
            return u, u.copy()
        h = n // 2
        a, b = alpha[..., :h], alpha[..., h:]
        u_left, beta_left = recurse(f_func(a, b), frozen[:h])
        g = b + (1.0 - 2.0 * beta_left) * a
        u_right, beta_right = recurse(g, frozen[h:])
        return (np.concatenate([u_left, u_right], axis=-1),
                np.concatenate([beta_left ^ beta_right, beta_right], axis=-1))

    u, _ = recurse(-llr, frozen_mask)
    return u[:, code.info_set]


def _sc_cases():
    """(label, code) pairs: random polar5g codes n = 2..1024 and
    Reed-Muller codes, RM(3, 3) (nothing frozen) included."""
    g = np.random.default_rng(50)
    cases = []
    for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        k = int(g.integers(1, n))
        cases.append((f"polar-{k}-{n}", polar5g_construct(k, n)))
    for r, m in ((0, 4), (1, 3), (2, 5), (3, 6), (3, 3)):
        cases.append((f"rm-{r}-{m}", rm_construct(r, m)))
    return cases


SC_CASES = _sc_cases()


class TestScMatchesOracle:
    """SC returns the bits of the recursion that concatenated decisions."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("label,code", SC_CASES,
                             ids=[label for label, _ in SC_CASES])
    def test_bit_identical(self, label, code, exact):
        n = code.block_length
        g = np.random.default_rng(n + exact)
        for batch in (1, 37):
            words = polar_encode(
                g.integers(0, 2, size=(batch, code.k), dtype=np.uint8), code)
            llr = 2.0 * (2.0 * words - 1.0) + 2.5 * g.standard_normal((batch, n))
            llr = np.round(2.0 * llr) / 2.0  # a 0.5 grid
            llr[g.random((batch, n)) < 0.1] = 0.0  # and zero LLRs
            got = polar_sc_decode(llr, code, exact=exact)
            want = seed_sc_decode(llr, code, exact=exact)
            assert got.dtype == want.dtype == np.uint8
            assert np.array_equal(got, want), batch


# -- oracles: the f-kernels and the CA-SCL path choice before copysign -----

def seed_f_minsum(a, b):
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def seed_f_exact(a, b):
    return (
        np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
        + np.log1p(np.exp(-np.abs(a + b)))
        - np.log1p(np.exp(-np.abs(a - b)))
    )


def seed_ca_path_choice(metrics, valid):
    gated = np.where(valid, metrics, np.inf)
    has_valid = np.any(valid, axis=1)
    return np.where(has_valid, np.argmin(gated, axis=1), np.argmin(metrics, axis=1))


def _f_corpus():
    """(label, a, b): Gaussian values, a 0.5 grid with signed zeros,
    magnitudes whose product under- or overflows, and [B, 1, h] inputs
    against [B, L, h] ones."""
    g = np.random.default_rng(60)
    shape = (16, 8, 64)
    gauss = 3.0 * g.standard_normal((2,) + shape)
    grid = np.round(4.0 * g.standard_normal((2,) + shape)) / 2.0
    grid[grid == 0.0] = g.choice([0.0, -0.0], size=np.count_nonzero(grid == 0.0))
    extremes = g.choice([1e-300, -1e-300, 1e300, -1e300, 0.0, -0.0, 0.5, -0.5],
                        size=(2,) + shape)
    shared = gauss[0][:, :1]
    return [("gauss", *gauss), ("grid", *grid), ("extremes", *extremes),
            ("shared-left", shared, grid[1]), ("shared-right", grid[0], shared),
            ("extremes-shared", extremes[0][:, :1], extremes[1])]


F_CORPUS = _f_corpus()


class TestKernelsMatchSeed:
    """The copysign f-kernels and the one-argmin CA-SCL path choice give
    the results of the forms they replaced."""

    @pytest.mark.parametrize("label,a,b", F_CORPUS,
                             ids=[label for label, _, _ in F_CORPUS])
    def test_f_exact_byte_identical(self, label, a, b):
        with np.errstate(over="ignore"):  # a * b overflows in "extremes"
            got = _f_exact(a, b)
        assert got.tobytes() == seed_f_exact(a, b).tobytes()

    @pytest.mark.parametrize("label,a,b", F_CORPUS,
                             ids=[label for label, _, _ in F_CORPUS])
    def test_f_minsum_same_values_and_signs(self, label, a, b):
        with np.errstate(over="ignore"):
            got = _f_minsum(a, b)
        want = seed_f_minsum(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        nonzero = want != 0.0
        assert np.array_equal(np.signbit(got[nonzero]), np.signbit(want[nonzero]))

    @pytest.mark.parametrize("list_size", [2, 3, 8, 32])
    def test_ca_path_choice_matches_seed(self, monkeypatch, list_size):
        # Drive the decoder's leaf to set crafted path metrics and hand it
        # decisions that name their path, so the returned bits tell which
        # path was chosen.
        from linksim import polar
        code = polar5g_construct(40, 64, crc=CRC_POLYNOMIALS["crc6"])
        batch, n = 600, code.block_length
        g = np.random.default_rng(61 + list_size)
        metrics = g.integers(0, 4, (batch, list_size)).astype(np.float64)
        metrics[g.random((batch, list_size)) < 0.1] = np.inf
        valid = g.random((batch, list_size)) < g.random((batch, 1))
        valid[::7] = False  # rows where every path fails the CRC
        u = np.zeros((batch, list_size, n), dtype=np.uint8)
        width = list_size.bit_length()
        path_bits = (np.arange(list_size)[:, None] >> np.arange(width)) & 1
        u[:, :, code.info_set[:width]] = path_bits

        def fake_walk(alpha, frozen, f_func, leaf):
            for _ in range(list_size):  # fill the list: every metric 0
                leaf(np.zeros((batch, 1)), False)
            leaf(-metrics, True)  # a frozen leaf adds max(metrics, 0)
            return polar_transform(u).transpose(2, 0, 1), None

        def fake_crc_check(frame, poly):
            assert frame.shape == (batch * list_size, code.k)
            return valid.reshape(-1)

        monkeypatch.setattr(polar, "_walk", fake_walk)
        monkeypatch.setattr(polar, "crc_check", fake_crc_check)
        got = polar_scl_decode(np.zeros((batch, n)), code, list_size=list_size,
                               use_crc=True)
        chosen = got[:, :width].astype(np.int64) @ (1 << np.arange(width))
        assert np.array_equal(chosen, seed_ca_path_choice(metrics, valid))

    def test_ca_scl_peak_memory(self):
        # The (1024, 512) CRC-24A code on 256 rows at 1 dB, as in the
        # benchmark's polar-cascl sweep.  The sign-product min-sum f
        # peaked at about 28.4 MB here, the copysign f at about 24.2 MB.
        k, n, rows = 512, 1024, 256
        code = polar5g_construct(k, n, crc=CRC_POLYNOMIALS["crc24a"])
        rng = RngStream(5, 0)
        payload = binary_source([rows, k - code.crc.degree], rng.child(0))
        words = polar_encode(crc_attach(payload, code.crc), code)
        llr = bpsk_llr(words, ebnodb2no(1.0, 1, k / n), rng.child(1))
        tracemalloc.start()
        try:
            polar_scl_decode(llr, code, list_size=8, use_crc=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26e6

    @pytest.mark.parametrize("n", [24, 2048])
    def test_block_length_checked_once_by_polar_code(self, n):
        with pytest.raises(ValueError, match="power of two <= 1024"):
            polar5g_construct(10, n)


# -- oracles: the bit-level transform and the node kinds of the code tree --

def seed_polar_transform(u):
    """The transform as one in-place XOR stage per half-width h."""
    u = np.atleast_2d(np.asarray(u, dtype=np.uint8))
    n = u.shape[-1]
    x = u.copy()
    h = 1
    while h < n:
        x = x.reshape(-1, n // (2 * h), 2, h)
        x[:, :, 0, :] ^= x[:, :, 1, :]
        x = x.reshape(-1, n)
        h *= 2
    return x.reshape(u.shape)


def brute_node_kind(frozen):
    """A node's kind read straight off its frozen bits."""
    if frozen.all():
        return polar.RATE0
    if not frozen.any():
        return polar.RATE1
    if len(frozen) > 1 and frozen[:-1].all():
        return polar.REP
    return polar.OTHER


NODE_SIZES = [2 ** s for s in range(1, 10)]
BLOCKS = ("rate0", "rep", "spc", "rate1")


def node_code(size, rotation, crc=None):
    """A code of length 4 * size (at least 16, at most 1024) tiled with
    blocks of ``size`` that are all frozen, REP, SPC or unfrozen, in the
    cyclic order of BLOCKS from ``rotation``: every node kind at
    ``size`` (two per rotation at 512), reached before and after the list
    fills."""
    n = min(1024, max(16, 4 * size))
    frozen = []
    for i in range(n // size):
        block = BLOCKS[(i + rotation) % 4]
        if block == "rate0":
            frozen.append(np.ones(size, dtype=bool))
        elif block == "rep":
            frozen.append(np.arange(size) < size - 1)
        elif block == "spc":
            frozen.append(np.arange(size) == 0)
        else:
            frozen.append(np.zeros(size, dtype=bool))
    return PolarCode(n, np.flatnonzero(np.concatenate(frozen)), crc=crc)


NODE_CASES = [(f"size{size}-rot{rot}", size, rot)
              for size in NODE_SIZES for rot in (1, 3)]


def grid_llr(code, batch, g, zeros):
    words = polar_encode(
        g.integers(0, 2, size=(batch, code.k), dtype=np.uint8), code)
    llr = 2.0 * (2.0 * words - 1.0) + 2.5 * g.standard_normal(words.shape)
    llr = np.round(2.0 * llr) / 2.0  # a 0.5 grid: metric ties occur
    if zeros:
        llr[g.random(llr.shape) < 0.1] = 0.0
    return llr


class TestTransformMatchesStageLoop:
    """The node-major slab transform returns the stage loop's bits."""

    @pytest.mark.parametrize("n", [2 ** m for m in range(1, 11)])
    def test_every_length(self, n):
        g = np.random.default_rng(70 + n)
        for shape in ((37, n), (5, 3, n), (1, 1, n), (0, n)):
            u = g.integers(0, 2, size=shape, dtype=np.uint8)
            got = polar_transform(u)
            assert got.dtype == np.uint8 and got.shape == u.shape
            assert np.array_equal(got, seed_polar_transform(u)), shape
        strided = g.integers(0, 2, size=(2 * n, 9), dtype=np.uint8).T[:, ::2]
        assert np.array_equal(polar_transform(strided),
                              seed_polar_transform(strided))
        one = g.integers(0, 2, size=n, dtype=np.uint8)
        assert np.array_equal(polar_transform(one), seed_polar_transform(one))

    @pytest.mark.parametrize("n", [2 ** m for m in range(1, 11)])
    def test_node_major_layout(self, n):
        # Bits stored [n, batch, paths], as the decoders' partial sums are.
        g = np.random.default_rng(75 + n)
        for shape in ((n, 37, 1), (n, 5, 8), (n, 0, 3)):
            nodes = g.integers(0, 2, size=shape, dtype=np.uint8)
            kept = nodes.copy()
            u = nodes.transpose(1, 2, 0)
            got = polar_transform(u)
            assert got.dtype == np.uint8 and got.shape == u.shape
            assert np.array_equal(got, seed_polar_transform(u)), shape
            assert np.array_equal(nodes, kept)


def scattered(info_bits, code):
    """The [rows, n] u of the encoder: info bits on the info set."""
    u = np.zeros((len(info_bits), code.block_length), dtype=np.uint8)
    u[:, code.info_set] = info_bits
    return u


class TestEncodeMatchesStageLoop:
    """polar_encode returns the stage loop's transform of the scattered u,
    an oracle that shares no code with the encoder."""

    @pytest.mark.parametrize("n", [2 ** m for m in range(1, 11)])
    def test_every_length(self, n):
        g = np.random.default_rng(90 + n)
        code = polar5g_construct(n // 2, n)
        for rows in (0, 1, 37):
            info = g.integers(0, 2, size=(rows, code.k), dtype=np.uint8)
            u = scattered(info, code)
            kept_info, kept_u = info.copy(), u.copy()
            got = polar_encode(info, code)
            assert got.dtype == np.uint8 and got.shape == (rows, n)
            assert np.array_equal(got, seed_polar_transform(u))
            polar_transform(u)
            # Neither writes its row-major input.
            assert np.array_equal(info, kept_info) and np.array_equal(u, kept_u)
        one = g.integers(0, 2, size=code.k, dtype=np.uint8)
        assert np.array_equal(polar_encode(one, code),
                              seed_polar_transform(scattered(one[None], code)))

    def test_5g_crc24a_code(self):
        code = polar5g_construct(512, 1024, crc=CRC_POLYNOMIALS["crc24a"])
        frames = crc_attach(binary_source([37, 512 - 24], RngStream(91)), code.crc)
        assert np.array_equal(polar_encode(frames, code),
                              seed_polar_transform(scattered(frames, code)))


class TestNodeKinds:
    @pytest.mark.parametrize("label,code", SCL_CASES + [
        (label, node_code(size, rot)) for label, size, rot in NODE_CASES],
        ids=[label for label, _ in SCL_CASES] + [c[0] for c in NODE_CASES])
    def test_table_matches_frozen_bits(self, label, code):
        kinds = code.node_kinds
        n = code.block_length
        frozen_mask = np.zeros(n, dtype=bool)
        frozen_mask[code.frozen_set] = True
        assert kinds.shape == (n, code.num_stages + 1)
        for s in range(code.num_stages + 1):
            for start in range(0, n, 1 << s):
                node = slice(start, start + (1 << s))
                want = brute_node_kind(frozen_mask[node])
                assert (kinds[node, s] == want).all(), (s, start)

    def test_built_once_and_read_only(self, monkeypatch):
        code = polar5g_construct(40, 64, crc=CRC_POLYNOMIALS["crc6"])
        table = code.node_kinds
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = polar.OTHER

        def rebuild(frozen_mask):
            raise AssertionError("node kinds rebuilt by a decode")

        roots = []
        walk = polar._walk

        def spy(alpha, kinds, f_func, leaf):
            if len(alpha) == code.block_length:
                roots.append(kinds)
            return walk(alpha, kinds, f_func, leaf)

        monkeypatch.setattr(polar, "_node_kinds", rebuild)
        monkeypatch.setattr(polar, "_walk", spy)
        llr = np.random.default_rng(80).standard_normal((4, 64))
        polar_sc_decode(llr, code)
        polar_sc_decode(llr, code, exact=True)
        polar_scl_decode(llr, code, list_size=4, use_crc=True)
        assert len(roots) == 3 and all(r is table for r in roots)
        assert code.node_kinds is table


class TestNodesMatchOracles:
    """Codes made of every node kind at every size: SC returns the bits
    of the recursion, SCL those of the copying decoder."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("label,size,rotation", NODE_CASES,
                             ids=[c[0] for c in NODE_CASES])
    def test_sc(self, label, size, rotation, exact):
        code = node_code(size, rotation)
        g = np.random.default_rng(90 + size + rotation + exact)
        for batch in (1, 37):
            llr = grid_llr(code, batch, g, zeros=True)
            got = polar_sc_decode(llr, code, exact=exact)
            assert np.array_equal(got, seed_sc_decode(llr, code, exact=exact))

    def test_sc_rate1_without_zero_llrs(self):
        # The Rate-1 shortcut itself, not its fall-back to the descent.
        code = node_code(64, 0)
        llr = grid_llr(code, 64, np.random.default_rng(91), zeros=False)
        llr[llr == 0.0] = 0.5
        assert np.array_equal(polar_sc_decode(llr, code),
                              seed_sc_decode(llr, code))

    @pytest.mark.parametrize("n", [4, 16, 1024])
    def test_sc_rep_sums_in_walk_order(self, n):
        # Magnitudes 1e16 apart: the sum's rounding, and so its sign,
        # depends on the order of the additions.
        code = PolarCode(n, np.arange(n - 1))
        g = np.random.default_rng(92 + n)
        llr = g.choice([1e16, -1e16, 1.0, -1.0, 3.0, -3.0], size=(400, n))
        for exact in (False, True):
            assert np.array_equal(polar_sc_decode(llr, code, exact=exact),
                                  seed_sc_decode(llr, code, exact=exact))

    @pytest.mark.parametrize("list_size", [1, 2, 3, 8, 32])
    @pytest.mark.parametrize("label,size,rotation", NODE_CASES,
                             ids=[c[0] for c in NODE_CASES])
    def test_scl(self, label, size, rotation, list_size):
        code = node_code(size, rotation, crc=CRC_POLYNOMIALS["crc6"])
        g = np.random.default_rng(100 + size + rotation + list_size)
        llr = grid_llr(code, 8, g, zeros=True)
        for exact in (False, True):
            for use_crc in (False, True):
                got = polar_scl_decode(llr, code, list_size=list_size,
                                       use_crc=use_crc, exact=exact)
                want = scl_decode_oracle(llr, code, list_size=list_size,
                                         use_crc=use_crc, exact=exact)
                assert np.array_equal(got, want), (exact, use_crc)


# -- golden bits: decisions pinned by their sha256 -------------------------

def spread_llr(code, batch, g):
    """LLRs of random codewords with a quarter of the signs flipped and
    magnitudes 1e16 apart, some zero: the rounding of a node's sums, and
    so its decisions, depend on the order of the additions."""
    words = polar_encode(
        g.integers(0, 2, size=(batch, code.k), dtype=np.uint8), code)
    sign = np.where(g.random(words.shape) < 0.25, 1.0 - 2.0 * words,
                    2.0 * words - 1.0)
    return sign * g.choice([0.0, 0.5, 1.0, 3.0, 1e16], size=words.shape)


GOLDEN_CODES = [node_code(size, rotation, crc=CRC_POLYNOMIALS["crc6"])
                for _, size, rotation in NODE_CASES] + [
    polar5g_construct(512, 1024, crc=CRC_POLYNOMIALS["crc24a"])]

GOLDEN_CASES = [("sc", 0, exact, False) for exact in (False, True)] + [
    ("scl", list_size, exact, use_crc) for list_size in (1, 2, 8, 32)
    for exact in (False, True) for use_crc in (False, True)]


def golden_id(decoder, list_size, exact, use_crc):
    return (f"{decoder}{list_size or ''}-{'exact' if exact else 'minsum'}"
            + ("-crc" if use_crc else ""))


def golden_digest(decoder, list_size, exact, use_crc):
    """sha256 of the decisions on every golden code, in order."""
    digest = hashlib.sha256()
    for i, code in enumerate(GOLDEN_CODES):
        llr = spread_llr(code, 8, np.random.default_rng(200 + i))
        if decoder == "sc":
            bits = polar_sc_decode(llr, code, exact=exact)
        else:
            bits = polar_scl_decode(llr, code, list_size=list_size,
                                    use_crc=use_crc, exact=exact)
        assert bits.dtype == np.uint8 and bits.shape == (8, code.k)
        digest.update(np.ascontiguousarray(bits).tobytes())
    return digest.hexdigest()


GOLDEN = {
    "sc-minsum": "50a4b218deda838cd48147727db9e07baea036ab926927f5ff4dbd48c0988504",
    "sc-exact": "651b893d669453c3a1c3c63415af3238509cc45281ecbfe5e8f68fa752ab099f",
    "scl1-minsum": "353a503278acc7dd542e2e81eb924574277a8051d304cf856c7c958ecb614019",
    "scl1-minsum-crc": "353a503278acc7dd542e2e81eb924574277a8051d304cf856c7c958ecb614019",
    "scl1-exact": "c4637e12b1437a2206bea2ab1f255fde3ad74bc83f8fd9b071757b3f1a74f090",
    "scl1-exact-crc": "c4637e12b1437a2206bea2ab1f255fde3ad74bc83f8fd9b071757b3f1a74f090",
    "scl2-minsum": "da6a244d778407b4ca60cb6a5ed0865efb102e11b4aa7f95241d6c2c36cd3fc9",
    "scl2-minsum-crc": "7fbede980e08240d00bb874412b13aa6c7f338e260e96c6ada6ff813dee810ad",
    "scl2-exact": "ec0d074b6ea870c595e69d2be6e770acee43c0052d43f2eb042526eaec1690a7",
    "scl2-exact-crc": "3d7d8b7e628c5271c940a75a18711b99e269a7dac4574e607a160176c794fcbd",
    "scl8-minsum": "98e909e32a75bf680751ca03664cb57903508428de3859f374db1793928a933e",
    "scl8-minsum-crc": "b2e0c92ec5ba7eb4dfa0278ad57b897d6c13a249af021f004b01c75a4d8f1382",
    "scl8-exact": "a49c88bd23ad4f0194abd62f504d369142661076f8c11a9ed7c9243a22e1b3ff",
    "scl8-exact-crc": "6a21379f5d9e14817d17635c94841b5477f3e6696fb6e4fa0cf3cce79cf06214",
    "scl32-minsum": "3cfa384bff83e5967178a81a55ddcdfdba30ab5849d5cab2c314f7961e4d18c1",
    "scl32-minsum-crc": "c0a715fd175f49834455c8c4114a30004bd6be47a5aab94118ccbfef03a95835",
    "scl32-exact": "368fadf64bf216f07fe837a0d850e9354851ce62207a266c5a3fb3772f71f29c",
    "scl32-exact-crc": "62a7f9e3de767ed4dbecfc0abfd52fff4a7686786d81e783f754941c55fb1cc9",
}


@pytest.mark.parametrize("decoder,list_size,exact,use_crc", GOLDEN_CASES,
                         ids=[golden_id(*case) for case in GOLDEN_CASES])
def test_golden_decisions(decoder, list_size, exact, use_crc):
    # Pinned from the [batch, paths, n] walk, whose node sums added over a
    # contiguous last axis.
    case = golden_id(decoder, list_size, exact, use_crc)
    assert golden_digest(decoder, list_size, exact, use_crc) == GOLDEN[case]
