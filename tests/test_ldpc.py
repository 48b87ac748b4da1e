import copy
import functools
import importlib.resources
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from linksim import core
from linksim.alist import ParityCheckMatrix
from linksim.channel import awgn
from linksim.core import LLR_MAX, RngStream, binary_source, ebnodb2no, hard_decide
from linksim.ldpc import (BP_VARIANTS, LIFTING_SIZES, LdpcCode5G, _base_graph,
                          _bp_tiled, _edge_graph, _EdgeGraph, bp_decode,
                          exit_mutual_information, ldpc5g_decode,
                          ldpc5g_encode)
from linksim.mapping import Constellation, demap_app, map_bits
from linksim.sweep import SimConfig, format_csv, run_sweep

HAMMING_H = np.array([
    [1, 1, 0, 1, 1, 0, 0],
    [1, 0, 1, 1, 0, 1, 0],
    [0, 1, 1, 1, 0, 0, 1],
], dtype=np.uint8)


def hamming_codebook():
    words = []
    for msg in range(16):
        u = np.array([(msg >> i) & 1 for i in range(4)], dtype=np.uint8)
        parity = (HAMMING_H[:, :4] @ u) % 2
        words.append(np.concatenate([u, parity]))
    return np.array(words, dtype=np.uint8)


def ml_decode(llr, codebook):
    """Exhaustive maximum-likelihood decoding oracle."""
    # Codeword metric: sum of LLRs at its one-positions (L = ln p1/p0).
    metrics = llr @ codebook.T.astype(np.float64)
    return codebook[np.argmax(metrics, axis=1)]


def seed_bp_decode(llr, pcm, num_iter=20, variant="sum-product", scale=0.75,
                   early_stop=True):
    """Frozen copy of the original untiled decoder: the equivalence oracle."""
    var_idx = []
    chk_starts = [0]
    for variables in pcm.row_adj:
        var_idx.extend(int(v) for v in variables)
        chk_starts.append(len(var_idx))
    starts = np.asarray(chk_starts, dtype=np.int64)
    g_var_idx = np.asarray(var_idx, dtype=np.int64)
    g_chk_starts = starts[:-1]
    g_chk_id = np.repeat(np.arange(pcm.m), np.diff(starts))
    g_var_order = np.argsort(g_var_idx, kind="stable")
    sorted_vars = g_var_idx[g_var_order]
    g_var_starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(sorted_vars)) + 1])
    g_var_ids = sorted_vars[g_var_starts]

    def phi(x):
        x = np.clip(x, 1e-12, LLR_MAX)
        return -np.log(np.tanh(x / 2.0))

    llr = np.atleast_2d(np.asarray(llr))
    batch = llr.shape[0]
    dtype = llr.dtype if llr.dtype in (np.float32, np.float64) else np.float64
    channel = -llr.astype(dtype)
    total = channel.copy()
    c2v = np.zeros((batch, len(g_var_idx)), dtype=dtype)
    alpha = scale if variant == "scaled-min-sum" else 1.0
    final = total.copy()
    active = np.arange(batch)
    for _ in range(num_iter):
        v2c = total[:, g_var_idx] - c2v
        signs = np.signbit(v2c)
        par = np.bitwise_xor.reduceat(signs, g_chk_starts, axis=-1)
        sign_excl = np.where(par[:, g_chk_id] ^ signs, -1.0, 1.0)
        mag = np.abs(v2c)
        if variant == "sum-product":
            pmag = phi(mag)
            psum = np.add.reduceat(pmag, g_chk_starts, axis=-1)
            mag_excl = phi(np.clip(psum[:, g_chk_id] - pmag, 1e-12, None))
            c2v = sign_excl * np.clip(mag_excl, 0.0, 30.0)
        else:
            min1 = np.minimum.reduceat(mag, g_chk_starts, axis=-1)
            at_min = mag == min1[..., g_chk_id]
            counts = np.add.reduceat(at_min.astype(np.int64), g_chk_starts,
                                     axis=-1)
            masked = np.where(at_min, np.inf, mag)
            min2 = np.minimum.reduceat(masked, g_chk_starts, axis=-1)
            unique_min = (counts == 1)[:, g_chk_id]
            excl = np.where(at_min & unique_min, min2[:, g_chk_id],
                            min1[:, g_chk_id])
            c2v = alpha * sign_excl * excl
        total = channel.copy()
        sums = np.add.reduceat(c2v[:, g_var_order], g_var_starts, axis=-1)
        total[:, g_var_ids] += sums
        total = np.clip(total, -LLR_MAX, LLR_MAX)
        if early_stop:
            hard_now = np.signbit(total)[:, g_var_idx]
            syn = np.bitwise_xor.reduceat(hard_now, g_chk_starts, axis=-1)
            ok = ~np.any(syn, axis=1)
            if np.any(ok):
                final[active[ok]] = total[ok]
                keep = ~ok
                active = active[keep]
                if active.size == 0:
                    break
                channel = channel[keep]
                total = total[keep]
                c2v = c2v[keep]
    if active.size:
        final[active] = total
    llr_out = -final
    return llr_out, hard_decide(llr_out)


def flat_bp_tiled(llr, g, num_iter, variant, scale, early_stop):
    """Frozen copy of the row-major flat decoder (messages [rows, edges],
    per-check ``reduceat`` and ``np.repeat`` spreads), tiled by
    ``g.tile_rows``: the byte-level oracle of the edge-major decoder.  It
    reads only the check-by-check edge list of ``g``.
    """
    var_order = np.argsort(g.var_idx, kind="stable")
    sorted_vars = g.var_idx[var_order]
    var_starts = np.concatenate([[0], np.flatnonzero(np.diff(sorted_vars))
                                 + 1])
    var_ids = sorted_vars[var_starts]

    def segment_min2(mag):
        min1 = np.minimum.reduceat(mag, g.chk_starts, axis=-1)
        at_min = mag == np.repeat(min1, g.chk_deg, axis=-1)
        counts = np.add.reduceat(at_min.astype(np.int64), g.chk_starts,
                                 axis=-1)
        masked = np.where(at_min, np.inf, mag)
        min2 = np.minimum.reduceat(masked, g.chk_starts, axis=-1)
        return min1, min2, at_min, counts

    def phi(x):
        np.clip(x, 1e-12, LLR_MAX, out=x)
        x /= 2.0
        np.tanh(x, out=x)
        np.log(x, out=x)
        return np.negative(x, out=x)

    def tile_loop(channel, final):
        total = channel.copy()
        te = np.take(total, g.var_idx, axis=1)
        c2v = np.zeros((len(channel), g.num_edges), dtype=channel.dtype)
        active = np.arange(len(channel))
        for _ in range(num_iter):
            v2c = te - c2v
            signs = np.signbit(v2c)
            par = np.bitwise_xor.reduceat(signs, g.chk_starts, axis=-1)
            flip = np.repeat(par, g.chk_deg, axis=-1)
            flip ^= signs
            sign_excl = flip.astype(np.float64)
            sign_excl *= -2.0
            sign_excl += 1.0
            mag = np.abs(v2c, out=v2c)
            if variant == "sum-product":
                pmag = phi(mag)
                excl = np.repeat(np.add.reduceat(pmag, g.chk_starts, axis=-1),
                                 g.chk_deg, axis=-1)
                excl -= pmag
                sign_excl *= np.clip(phi(excl), 0.0, 30.0, out=excl)
            else:
                min1, min2, at_min, counts = segment_min2(mag)
                at_min &= np.repeat(counts == 1, g.chk_deg, axis=-1)
                excl = np.where(at_min, np.repeat(min2, g.chk_deg, axis=-1),
                                np.repeat(min1, g.chk_deg, axis=-1))
                sign_excl *= alpha
                sign_excl *= excl
            c2v = sign_excl
            total = channel.copy()
            sums = np.add.reduceat(c2v[:, var_order], var_starts, axis=-1)
            total[:, var_ids] += sums
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

    dtype = llr.dtype if llr.dtype in (np.float32, np.float64) else np.float64
    channel = -llr.astype(dtype)
    alpha = scale if variant == "scaled-min-sum" else 1.0
    final = np.empty_like(channel)
    for lo in range(0, len(channel), g.tile_rows):
        tile = slice(lo, lo + g.tile_rows)
        tile_loop(channel[tile], final[tile])
    llr_out = -final
    return llr_out, hard_decide(llr_out)


SEED_BASE_GRAPHS = {1: ("ldpc_bg1.txt", 46, 68, 22),
                    2: ("ldpc_bg2.txt", 42, 52, 10)}


def seed_encode_full(bits, bg, z):
    """Frozen copy of the original dense-H encoder: the equivalence oracle.

    It parses the bundled base graph itself.  The one change is that the
    dense systematic block of H is built and multiplied one base row at a
    time, so the largest lifting sizes fit in a test's memory; every row of
    the product is the same exact float32 sum.
    """
    name, m_b, _, kb = SEED_BASE_GRAPHS[bg]
    text = importlib.resources.files("linksim.data").joinpath(name).read_text()
    entries = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        r, c, s = (int(t) for t in line.split())
        entries[(r, c)] = s

    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    batch, k = bits.shape
    k_full = kb * z
    c_sys = np.zeros((batch, k_full), dtype=np.uint8)
    c_sys[:, :k] = bits
    s_blk = np.zeros((batch, m_b, z), dtype=np.uint8)
    for row in range(m_b):
        h_rows = np.zeros((z, k_full), dtype=np.uint8)
        for (r, c), s in entries.items():
            if r == row and c < kb:
                h_rows[np.arange(z), c * z + (np.arange(z) + s) % z] ^= 1
        s_blk[:, row] = (c_sys.astype(np.float32)
                         @ h_rows.T.astype(np.float32)) % 2
    ext_parity = [(r, c - kb, s % z) for (r, c), s in entries.items()
                  if kb <= c < kb + 4 and r >= 4]

    ssum = s_blk[:, 0] ^ s_blk[:, 1] ^ s_blk[:, 2] ^ s_blk[:, 3]
    p1 = np.roll(ssum, 1, axis=-1)
    p2 = s_blk[:, 0] ^ ssum
    p3 = s_blk[:, 1] ^ p1 ^ p2
    p4 = s_blk[:, 2] ^ p3
    core = [p1, p2, p3, p4]
    parity = np.zeros((batch, m_b * z), dtype=np.uint8)
    parity[:, 0 * z: 1 * z] = p1
    parity[:, 1 * z: 2 * z] = p2
    parity[:, 2 * z: 3 * z] = p3
    parity[:, 3 * z: 4 * z] = p4
    ext = s_blk[:, 4:].copy()
    for r, core_col, s_shift in ext_parity:
        ext[:, r - 4] ^= np.roll(core[core_col], -s_shift, axis=-1)
    parity[:, 4 * z:] = ext.reshape(batch, -1)
    return np.concatenate([c_sys, parity], axis=-1)


def lifted_code(bg, z, k):
    """Code on base graph ``bg`` lifted by ``z``.

    The constructor reaches only some (base graph, Z) pairs, because k
    picks both, so this sets them directly and builds the code.
    """
    code = LdpcCode5G.__new__(LdpcCode5G)
    code.k, code.n, code.base_graph, code.z = k, 2 * k, bg, z
    code._build()
    return code


def bpsk_llr(bits, ebno_db, rng):
    no = ebnodb2no(ebno_db, 1, 4.0 / 7.0)
    x = (1.0 - 2.0 * bits).astype(np.complex128)
    y = awgn(x, no, rng)
    return -4.0 * np.real(y) / no


class TestBpDecode:
    def test_hamming_noiseless(self):
        pcm = ParityCheckMatrix.from_dense(HAMMING_H)
        words = hamming_codebook()
        llr = (2.0 * words - 1.0) * 8.0
        out_llr, hard = bp_decode(llr, pcm, num_iter=10)
        assert np.array_equal(hard, words)
        assert np.all(np.sign(out_llr) == np.sign(llr))

    @pytest.mark.parametrize("variant", ["sum-product", "min-sum",
                                         "scaled-min-sum"])
    def test_hamming_close_to_ml(self, variant):
        # BP on a short cycle-heavy code is suboptimal but must track ML
        # closely at moderate SNR.
        pcm = ParityCheckMatrix.from_dense(HAMMING_H)
        codebook = hamming_codebook()
        rng = RngStream(314, 0)
        msgs = rng.child(0).generator().integers(0, 16, size=2000)
        words = codebook[msgs]
        llr = bpsk_llr(words, 6.0, rng.child(1))
        _, hard = bp_decode(llr, pcm, num_iter=20, variant=variant)
        ml = ml_decode(llr, codebook)
        agreement = np.mean(np.all(hard == ml, axis=1))
        assert agreement >= 0.99

    def test_repetition_code_exact_marginal(self):
        # For a single parity check on two bits (a length-2 code with H=[1 1])
        # sum-product is exact: L_out = L_in + boxplus of the other LLR.
        pcm = ParityCheckMatrix.from_dense(np.array([[1, 1]], dtype=np.uint8))
        l1, l2 = 1.3, -0.4
        llr = np.array([[l1, l2]])
        out, _ = bp_decode(llr, pcm, num_iter=1, variant="sum-product",
                           early_stop=False)
        # With L = ln(p1/p0) the extrinsic for bit 1 is -2 atanh(tanh(-l2/2))
        # ... = boxplus identity; equivalently via p-domain marginalization.
        p1 = np.exp(l1) / (1 + np.exp(l1))
        p2 = np.exp(l2) / (1 + np.exp(l2))
        # Posterior that bit 1 = 1 given even overall parity.
        post = p1 * p2 / (p1 * p2 + (1 - p1) * (1 - p2))
        expected = np.log(post / (1 - post))
        assert out[0, 0] == pytest.approx(expected, abs=1e-9)

    def test_min_sum_scale_invariance(self):
        # Pure min-sum is scale-equivariant: scaling all inputs by c scales
        # all outputs by c (as long as the internal clip is not reached).
        pcm = ParityCheckMatrix.from_dense(HAMMING_H)
        g = RngStream(7, 0).generator()
        llr = g.normal(size=(200, 7)) * 0.5
        out1, _ = bp_decode(llr, pcm, num_iter=5, variant="min-sum",
                            early_stop=False)
        out2, _ = bp_decode(llr * 3.0, pcm, num_iter=5, variant="min-sum",
                            early_stop=False)
        assert np.allclose(out1 * 3.0, out2, atol=1e-12)

    def test_scaled_min_sum_with_unit_factor_is_min_sum(self):
        pcm = ParityCheckMatrix.from_dense(HAMMING_H)
        g = RngStream(8, 0).generator()
        llr = g.normal(size=(100, 7)) * 2
        out1, _ = bp_decode(llr, pcm, num_iter=5, variant="min-sum",
                            early_stop=False)
        out2, _ = bp_decode(llr, pcm, num_iter=5, variant="scaled-min-sum",
                            scale=1.0, early_stop=False)
        assert np.allclose(out1, out2)

    def test_unknown_variant(self):
        pcm = ParityCheckMatrix.from_dense(HAMMING_H)
        with pytest.raises(ValueError):
            bp_decode(np.zeros((1, 7)), pcm, variant="offset")

    def test_early_stop_matches_full_run_on_clean_input(self):
        pcm = ParityCheckMatrix.from_dense(HAMMING_H)
        words = hamming_codebook()
        llr = (2.0 * words - 1.0) * 5.0
        _, h1 = bp_decode(llr, pcm, num_iter=50, early_stop=True)
        _, h2 = bp_decode(llr, pcm, num_iter=50, early_stop=False)
        assert np.array_equal(h1, h2)

    @pytest.mark.parametrize("zero_row", [1, 2])
    def test_check_without_edges_is_ignored(self, zero_row):
        # An all-zero row of H constrains nothing: in the middle it must not
        # take the next check's parity as its syndrome, at the end it must
        # not index past the edge list.
        h = np.array([[1, 1, 0, 0], [0, 1, 1, 1]], dtype=np.uint8)
        with_zero = ParityCheckMatrix.from_dense(
            np.insert(h, zero_row, 0, axis=0))
        pcm = ParityCheckMatrix.from_dense(h)
        g = RngStream(17, zero_row).generator()
        llr = np.concatenate([[[5.0, 5.0, 5.0, -5.0]],
                              g.normal(0.0, 3.0, size=(31, 4))])
        for variant in BP_VARIANTS:
            for num_iter in (1, 10):
                out, hard = bp_decode(llr, with_zero, num_iter=num_iter,
                                      variant=variant)
                ref_out, ref_hard = bp_decode(llr, pcm, num_iter=num_iter,
                                              variant=variant)
                assert np.array_equal(out.view(np.uint8),
                                      ref_out.view(np.uint8))
                assert np.array_equal(hard, ref_hard)
            # The first row is a codeword, so it stops after one iteration.
            assert np.array_equal(
                bp_decode(llr[:1], with_zero, num_iter=10, variant=variant)[0],
                bp_decode(llr[:1], with_zero, num_iter=1, variant=variant)[0])


class TestExitMutualInformation:
    def test_perfect_knowledge(self):
        bits = binary_source([1, 1000], RngStream(1))
        llr = (2.0 * bits - 1.0) * 40.0
        assert exit_mutual_information(llr, bits) == pytest.approx(1.0, abs=1e-3)

    def test_no_knowledge(self):
        bits = binary_source([1, 1000], RngStream(2))
        llr = np.zeros_like(bits, dtype=float)
        assert exit_mutual_information(llr, bits) == pytest.approx(0.0, abs=1e-6)

    def test_gaussian_llr_channel_oracle(self):
        # For consistent Gaussian LLRs (mean ±sigma^2/2, variance sigma^2)
        # the mutual information is the J-function; check against a numeric
        # Monte Carlo estimate of the same expectation at a few sigmas.
        g = RngStream(3, 0).generator()
        for sigma in (1.0, 2.0, 3.0):
            bits = (g.random(200000) < 0.5).astype(np.uint8)
            s = 2.0 * bits - 1.0
            llr = sigma**2 / 2 * s + sigma * g.standard_normal(len(s))
            measured = exit_mutual_information(llr[None, :], bits[None, :])
            # Independent numeric oracle: I = 1 - E[log2(1 + e^{-s L})]
            oracle = 1.0 - np.mean(np.log2(1.0 + np.exp(-s * llr)))
            assert measured == pytest.approx(oracle, abs=1e-9)
            assert 0.0 < measured < 1.0

    def test_monotone_in_llr_magnitude(self):
        bits = binary_source([1, 50000], RngStream(4))
        s = 2.0 * bits - 1.0
        vals = [exit_mutual_information(c * s, bits) for c in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestLdpcCode5G:
    @pytest.mark.parametrize("k,n,bg,z", [(500, 1000, 1, 24), (100, 300, 2, 10)])
    def test_dimension_selection(self, k, n, bg, z):
        code = LdpcCode5G(k, n)
        assert code.base_graph == bg
        assert code.z == z

    def test_lifting_sizes_sorted_unique(self):
        assert list(LIFTING_SIZES) == sorted(set(LIFTING_SIZES))
        assert LIFTING_SIZES[-1] <= 384

    @pytest.mark.parametrize("k,n", [(500, 1000), (100, 300), (64, 128),
                                     (200, 600), (40, 200)])
    def test_full_codeword_in_null_space(self, k, n):
        code = LdpcCode5G(k, n)
        bits = binary_source([50, k], RngStream(1000 + k))
        full = code.encode_full(bits)
        assert not code.pcm.syndrome(full).any()

    def test_encode_is_linear(self):
        code = LdpcCode5G(100, 300)
        rng = RngStream(5, 0)
        a = binary_source([20, 100], rng.child(0))
        b = binary_source([20, 100], rng.child(1))
        ca = code.encode_full(a)
        cb = code.encode_full(b)
        cab = code.encode_full(a ^ b)
        assert np.array_equal(cab, ca ^ cb)

    def test_systematic_prefix(self):
        code = LdpcCode5G(100, 300)
        bits = binary_source([10, 100], RngStream(6))
        full = code.encode_full(bits)
        assert np.array_equal(full[:, :100], bits)

    def test_rate_match_length(self):
        for k, n in [(500, 1000), (100, 300)]:
            code = LdpcCode5G(k, n)
            out = ldpc5g_encode(binary_source([4, k], RngStream(7)), code)
            assert out.shape == (4, n)

    def test_noiseless_round_trip(self):
        for k, n in [(500, 1000), (100, 300)]:
            code = LdpcCode5G(k, n)
            bits = binary_source([16, k], RngStream(8))
            tx = ldpc5g_encode(bits, code)
            llr = (2.0 * tx - 1.0) * 8.0
            dec = ldpc5g_decode(llr, code, num_iter=30)
            assert np.array_equal(dec, bits)

    def test_awgn_decoding_gain(self):
        # At 5 dB with 16-QAM the (500,1000) code must correct nearly all
        # frames; the raw channel is far above the code's threshold there.
        code = LdpcCode5G(500, 1000)
        const = Constellation("qam", 4)
        rng = RngStream(9, 0)
        bits = binary_source([64, 500], rng.child(0))
        tx = ldpc5g_encode(bits, code)
        x = map_bits(tx, const)
        no = ebnodb2no(5.0, 4, 0.5)
        y = awgn(x, no, rng.child(1))
        llr = demap_app(y, no, const)
        dec = ldpc5g_decode(llr, code, num_iter=20)
        assert np.mean(dec != bits) < 0.02
        raw_ber = np.mean((llr > 0).astype(np.uint8) != tx)
        assert raw_ber > 0.02  # the channel itself is noisy

    @pytest.mark.parametrize("bg", [1, 2])
    def test_base_graph_structure(self, bg):
        # The encoder relies on this: every base row has a systematic
        # entry, the core rows 0-3 touch only the systematic and the four
        # core parity columns, and extension row r has exactly one more
        # entry, its own parity column kb + r with shift 0.
        base, m_b, n_b, kb = _base_graph(bg)
        assert (m_b, n_b, kb) == {1: (46, 68, 22), 2: (42, 52, 10)}[bg]
        rows, cols, shifts = base.T
        assert not base.flags.writeable
        assert np.all(np.diff(rows * n_b + cols) > 0)  # sorted, unique
        assert np.array_equal(np.unique(rows[cols < kb]), np.arange(m_b))
        assert np.all(cols[rows < 4] < kb + 4)
        own = cols >= kb + 4
        assert np.array_equal(rows[own], np.arange(4, m_b))
        assert np.array_equal(cols[own], kb + rows[own])
        assert not shifts[own].any()

    @pytest.mark.parametrize("bg", [1, 2])
    def test_encoder_matches_dense_oracle_every_lifting_size(self, bg):
        kb = _base_graph(bg)[3]
        rng = RngStream(600 + bg, 0).generator()
        for z in LIFTING_SIZES:
            for k in (kb * z, (kb - 1) * z + 1):  # none, z - 1 fillers
                code = lifted_code(bg, z, k)
                assert (code.z, code.k_full - code.k) == (z, kb * z - k)
                bits = rng.integers(0, 2, size=(17, k), dtype=np.uint8)
                ref = seed_encode_full(bits, bg, z)
                for rows in (slice(0, 1), slice(1, 17)):  # batch 1 and 16
                    full = code.encode_full(bits[rows])
                    assert full.dtype == np.uint8
                    assert np.array_equal(full, ref[rows]), (z, k, rows)

    def test_encode_memory_is_bounded(self):
        # The dense-H encoder peaked at about 598 MB here.
        code = LdpcCode5G(8000, 9000)
        bits = binary_source([8, 8000], RngStream(12))
        tracemalloc.start()
        try:
            code.encode_full(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    @pytest.mark.parametrize("k,n,rows", [(500, 1000, 1024), (8000, 9000, 64)])
    def test_encode_peak_near_codeword_size(self, k, n, rows):
        # Each entry's Z-block is XORed into its target in place; gathering
        # a [rows, entries, z] array of Z-blocks peaked at about 5x the
        # codeword at both shapes.
        code = LdpcCode5G(k, n)
        bits = binary_source([rows, k], RngStream(13))
        tracemalloc.start()
        try:
            code.encode_full(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rows * code.n_full

    def test_no_dense_parity_check_block(self):
        assert not hasattr(LdpcCode5G(8000, 9000), "_h_sys")

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            LdpcCode5G(100, 90)
        with pytest.raises(ValueError):
            LdpcCode5G(0, 100)

    def test_derate_match_inverse_of_rate_match(self):
        code = LdpcCode5G(100, 300)
        bits = binary_source([8, 100], RngStream(11))
        tx = ldpc5g_encode(bits, code)
        llr = (2.0 * tx - 1.0) * 4.0
        mother = code.derate_match(llr)
        # Transmitted positions carry the channel values, fillers are
        # pinned to strong "0" beliefs, punctured systematic bits are 0.
        assert mother.shape[1] == code.pcm.n
        recovered = mother[:, code.transmit_idx]
        assert np.array_equal(recovered, llr)


def qam16_llr(code, batch, ebno_db, seed):
    """Info bits and 16-QAM APP LLRs of ``code`` over AWGN."""
    const = Constellation("qam", 4)
    rng = RngStream(seed, 0)
    bits = binary_source([batch, code.k], rng.child(0))
    x = map_bits(ldpc5g_encode(bits, code), const)
    no = ebnodb2no(ebno_db, 4, code.coderate)
    return bits, demap_app(awgn(x, no, rng.child(1)), no, const)


class TestTiledPrunedDecoder:
    """The row-tiled decoder on the pruned graph against the seed decoder."""

    @pytest.fixture(scope="class")
    def mother_corpus(self):
        # Noisy mother-code LLRs near the decoding threshold, so rows stop
        # early at many different iterations.
        code = LdpcCode5G(100, 300)
        rng = RngStream(2024, 0)
        full = code.encode_full(binary_source([1024, 100], rng.child(0)))
        noise = rng.child(1).generator().standard_normal(full.shape)
        return code.pcm, (2.0 * full - 1.0) * 2.0 + 2.0 * noise

    @pytest.mark.parametrize("variant", ["sum-product", "min-sum",
                                         "scaled-min-sum"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("early_stop", [True, False])
    def test_tiles_bit_identical_to_seed(self, mother_corpus, variant, dtype,
                                         early_stop):
        pcm, llr = mother_corpus
        tile = _edge_graph(pcm).tile_rows
        assert 1 < tile < 1024
        for batch in (1, tile - 1, tile + 1, 1024):
            rows = llr[:batch].astype(dtype)
            out, hard = bp_decode(rows, pcm, num_iter=5, variant=variant,
                                  early_stop=early_stop)
            ref_out, ref_hard = seed_bp_decode(rows, pcm, num_iter=5,
                                               variant=variant,
                                               early_stop=early_stop)
            assert out.dtype == ref_out.dtype
            assert np.array_equal(out, ref_out), batch
            assert np.array_equal(hard, ref_hard), batch

    @pytest.mark.parametrize("k,n", [(500, 1000), (100, 300), (100, 600)])
    @pytest.mark.parametrize("variant", ["sum-product", "min-sum"])
    def test_pruned_info_bits_match_seed_on_mother(self, k, n, variant):
        # (500,1000) is base graph 1, (100,300) base graph 2; (100,600)
        # exceeds the circular buffer, so it repeats bits and nothing is
        # pruned.
        code = LdpcCode5G(k, n)
        for ebno_db in (1.5, 4.0):
            _, llr = qam16_llr(code, 64, ebno_db, seed=k + n)
            dec = ldpc5g_decode(llr, code, num_iter=20, variant=variant)
            _, ref = seed_bp_decode(code.derate_match(llr), code.pcm,
                                    num_iter=20, variant=variant)
            assert np.array_equal(dec, ref[:, :k]), ebno_db

    def test_repetition_prunes_nothing(self):
        code = LdpcCode5G(100, 600)
        assert code._graph.num_edges == code.pcm.num_edges

    @pytest.mark.parametrize("k,n", [(500, 1000), (100, 300), (512, 1024),
                                     (40, 200), (100, 600)])
    def test_eager_graph_is_mother_graph_restricted(self, k, n):
        code = LdpcCode5G(k, n)
        pcm = code.pcm
        sent = np.isin(np.arange(pcm.n), code.transmit_idx)
        pruned_var = np.array([v >= code.k_full and not sent[v]
                               and len(pcm.col_adj[v]) == 1
                               for v in range(pcm.n)])
        pruned_chk = np.zeros(pcm.m, dtype=bool)
        for v in np.flatnonzero(pruned_var):
            pruned_chk[pcm.col_adj[v]] = True
        kept_vars = np.flatnonzero(~pruned_var)

        mother = _EdgeGraph.from_pcm(pcm)
        mother_chk = np.repeat(np.arange(pcm.m), mother.chk_deg)
        kept = ~pruned_chk[mother_chk]
        g = code._graph
        assert np.array_equal(code._decode_cols, kept_vars)
        assert (g.n, g.m) == (len(kept_vars), int(np.sum(~pruned_chk)))
        assert np.array_equal(kept_vars[g.var_idx], mother.var_idx[kept])
        kept_chk = np.flatnonzero(~pruned_chk)
        assert np.array_equal(g.chk_deg, mother.chk_deg[kept_chk])
        assert np.array_equal(g.chk_starts, np.cumsum(g.chk_deg) - g.chk_deg)

    def test_decoding_sets_no_attribute(self):
        code = LdpcCode5G(100, 300)
        _, llr = qam16_llr(code, 16, 2.0, seed=5)
        before = {id(obj): dict(vars(obj)) for obj in (code, code._graph)}
        ldpc5g_decode(llr, code)
        for obj in (code, code._graph):
            after = vars(obj)
            assert after.keys() == before[id(obj)].keys()
            assert all(after[key] is value
                       for key, value in before[id(obj)].items())

    def test_sweep_csv_same_at_one_and_two_workers(self):
        cfg = SimConfig.from_dict({
            "code": {"family": "ldpc5g", "k": 100, "n": 300,
                     "decoder": {"num_iter": 10}},
            "modulation": {"kind": "qam", "bits_per_symbol": 4},
            "channel": {"kind": "awgn"},
            "sweep": {"ebno_db": [0.0, 2.0, 4.0], "batch_size": 32,
                      "target_block_errors": 20, "max_batches_per_point": 4},
            "seed": 3,
        })
        strip = lambda text: [",".join(ln.split(",")[:-1])
                              for ln in text.splitlines()]
        one, two = (strip(format_csv(run_sweep(cfg, num_workers=w)))
                    for w in (1, 2))
        assert one == two


# Codes of the byte-level oracle corpus, smallest first; the SIMD dispatch
# test reruns the first three.
ORACLE_CODES = [(40, 100), (100, 300), (200, 600), (500, 1000), (512, 1024),
                (1000, 1500), (3000, 4000)]
# Trailing arguments of _bp_tiled: (num_iter, variant, scale, early_stop).
ORACLE_RUNS = [(num_iter, variant, scale, early_stop)
               for variant, scale in (("sum-product", 0.75), ("min-sum", 0.75),
                                      ("scaled-min-sum", 0.75),
                                      ("scaled-min-sum", 0.5))
               for early_stop in (True, False) for num_iter in (1, 7)]


def with_tile_rows(g, rows):
    """A shallow copy of graph ``g`` whose BP tiles hold ``rows`` rows."""
    g = copy.copy(g)
    g.tile_rows = rows
    return g


@functools.lru_cache(maxsize=None)
def oracle_corpus(k, n):
    """The decoding graph of the (k, n) code and 8 rows of LLRs on it:
    Gaussian, on a 0.5 grid (ties and zeros), and saturated at +-40 with 0,
    1e-13 and -1e-300 mixed in.  The graph's tiles hold 3 rows, so every
    decode of the corpus is three tiles for the helper threads to share."""
    code = LdpcCode5G(k, n)
    g = with_tile_rows(code._graph, 3)
    rng = RngStream(k, n)
    bits = code.encode_full(binary_source([8, k], rng.child(0)))
    sign = 2.0 * bits[:, code._decode_cols] - 1.0
    gen = rng.child(1).generator()
    gaussian = 2.5 * sign + 2.0 * gen.standard_normal(sign.shape)
    saturated = 40.0 * sign * gen.choice([1.0, -1.0], sign.shape, p=[.9, .1])
    special = gen.random(sign.shape) < 0.1
    saturated[special] = gen.choice([0.0, 1e-13, -1e-300], special.sum())
    return g, (gaussian, np.round(2.0 * gaussian) / 2.0, saturated)


def assert_same_bytes(got, ref):
    # Byte views: np.array_equal ignores the sign of zero, signbit does not.
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                              np.ascontiguousarray(b).view(np.uint8))


class TestEdgeMajorMatchesFlat:
    """The edge-major decoder against the frozen row-major flat decoder."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,n", ORACLE_CODES,
                             ids=[f"{k}x{n}" for k, n in ORACLE_CODES])
    def test_corpus_bytes_match_flat(self, k, n, dtype):
        g, corpus = oracle_corpus(k, n)
        for llr in corpus:
            llr = llr.astype(dtype)
            for run in ORACLE_RUNS:
                assert_same_bytes(_bp_tiled(llr, g, *run),
                                  flat_bp_tiled(llr, g, *run))

    def test_generic_matrix_bytes_match_flat(self):
        # A check of degree 140 and a variable of degree 150 (pairwise
        # summation splits above 128 terms), degree-1 checks and
        # variables, and a variable without edges.
        gen = RngStream(31, 0).generator()
        h = (gen.random((160, 300)) < 0.02).astype(np.uint8)
        h[:, 299] = 0
        h[:150, 1] = 1
        h[0, 2:] = 0
        h[0, gen.choice(np.arange(2, 299), 139, replace=False)] = 1
        h[150:, :] = 0
        h[150:, 250:260] = np.eye(10, dtype=np.uint8)
        pcm = ParityCheckMatrix.from_dense(h)
        g = _edge_graph(pcm)
        assert {1, 140} <= set(g.chk_deg.tolist())
        var_deg = np.bincount(g.var_idx, minlength=300)
        assert var_deg[1] == 150 and var_deg[299] == 0 and 1 in var_deg
        tile = g.tile_rows
        assert tile > 1
        llr = 2.0 + 3.0 * gen.standard_normal((2 * tile + 3, 300))
        for batch in (1, tile - 1, tile + 1, 2 * tile + 3):
            for dtype in (np.float32, np.float64):
                rows = llr[:batch].astype(dtype)
                for run in ORACLE_RUNS:
                    assert_same_bytes(_bp_tiled(rows, g, *run),
                                      flat_bp_tiled(rows, g, *run))

    @pytest.mark.parametrize("level,disabled", [
        ("avx2", ["X86_V4", "AVX512_ICL", "AVX512_SPR"]),
        ("baseline", ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]),
    ])
    def test_corpus_under_lower_simd_dispatch(self, level, disabled):
        # NumPy picks its kernels by CPU feature; NPY_DISABLE_CPU_FEATURES
        # lowers the dispatch of the child process only.
        umath = pytest.importorskip("numpy._core._multiarray_umath")
        disabled = [f for f in disabled if f in umath.__cpu_dispatch__
                    and umath.__cpu_features__.get(f)]
        if not disabled:
            pytest.skip(f"the host dispatches no feature above {level}")
        script = (
            "import sys, pytest\n"
            "from numpy._core._multiarray_umath import __cpu_features__\n"
            "assert not any(__cpu_features__[f] for f in sys.argv[1:])\n"
            "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', %r, '-k',"
            " 'test_corpus_bytes_match_flat and (%s)']))\n"
            % (__file__, " or ".join(f"{k}x{n}" for k, n in ORACLE_CODES[:3])))
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled),
                   PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", script, *disabled],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "6 passed" in proc.stdout


def add_at_derate(code, llr):
    """The mother-code LLRs as rate matching was first undone: one
    ``np.add.at`` scatter of every sent LLR, fillers pinned to -LLR_MAX."""
    mother = np.zeros((llr.shape[0], code.n_full), llr.dtype)
    np.add.at(mother, (slice(None), code.transmit_idx), llr)
    mother[:, code.filler_idx] = -LLR_MAX
    return mother


class TestDerate:
    # (100, 1000) reads the circular buffer twice and (40, 2000) ten
    # times; the others send part of it once.
    @pytest.mark.parametrize("k,n", [(500, 1000), (512, 1024), (100, 1000),
                                     (300, 400), (40, 2000)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_decode_columns_match_add_at(self, k, n, dtype):
        code = LdpcCode5G(k, n)
        gen = RngStream(k, n).generator()
        llr = (3.0 * gen.standard_normal((9, n))).astype(dtype)
        llr[:, ::5] = -0.0  # np.add.at turns a negative zero positive
        llr[:, 1::7] = np.round(llr[:, 1::7])
        ref = add_at_derate(code, llr)
        got = code._derate(llr, code._transmit_cols, len(code._decode_cols))
        assert_same_bytes([got, code.derate_match(llr)],
                          [ref[:, code._decode_cols], ref])

    def test_integer_llrs_become_float64(self):
        code = LdpcCode5G(40, 2000)
        llr = np.arange(2000)[None, :] % 7 - 3
        assert_same_bytes([code.derate_match(llr)],
                          [add_at_derate(code, llr.astype(np.float64))])


def pooled_and_inline(monkeypatch, decode):
    """``decode()`` with three helper threads and with none."""
    monkeypatch.setattr(core, "_HELPERS", 3)
    pooled = decode()
    monkeypatch.setattr(core, "_HELPERS", 0)
    return pooled, decode()


class TestPooledTiles:
    """The tile loop on the helper threads against the same loop inline."""

    @pytest.mark.parametrize("variant", ["sum-product", "min-sum"])
    @pytest.mark.parametrize("early_stop", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_match_inline(self, monkeypatch, variant, early_stop,
                                dtype):
        code = LdpcCode5G(100, 300)
        g = code._graph
        tile = g.tile_rows
        _, llr = qam16_llr(code, 2 * tile + 3, 2.0, seed=17)
        llr = code._derate(llr, code._transmit_cols, len(code._decode_cols))
        llr = np.ascontiguousarray(llr, dtype=dtype)
        # The code's own tiles at batch 1 and tile_rows +- 1, then 4-row
        # tiles: many per call.
        for graph, batch in ((g, 1), (g, tile - 1), (g, tile), (g, tile + 1),
                             (with_tile_rows(g, 4), 2 * tile + 3)):
            run = (llr[:batch], graph, 8, variant, 0.75, early_stop)
            pooled, inline = pooled_and_inline(
                monkeypatch, lambda: _bp_tiled(*run))
            assert_same_bytes(pooled, inline)

    def test_hard_only_matches_soft(self, monkeypatch):
        code = LdpcCode5G(200, 600)
        _, llr = qam16_llr(code, 50, 2.0, seed=3)
        mother = code._derate(llr, code._transmit_cols,
                              len(code._decode_cols))
        g = with_tile_rows(code._graph, 7)
        llr_out, hard = _bp_tiled(mother, g, 10, "sum-product", 0.75, True)
        none, hard_only = _bp_tiled(mother, g, 10, "sum-product", 0.75, True,
                                    soft=False)
        assert none is None
        assert_same_bytes([hard_only, hard], [hard, hard_decide(llr_out)])

    def test_concurrent_callers_match_one_at_a_time(self, monkeypatch):
        # Two threads decode different batches through the pool at once,
        # as the sweep's workers do.
        monkeypatch.setattr(core, "_HELPERS", 2)
        codes = [LdpcCode5G(100, 300), LdpcCode5G(200, 600)]
        jobs = []
        for i, code in enumerate(codes * 2):
            _, llr = qam16_llr(code, 40 + 9 * i, 1.5 + i, seed=i)
            jobs.append((llr.astype(np.float32), code,
                         ("sum-product", "min-sum")[i % 2]))
        for code in codes:
            code._graph = with_tile_rows(code._graph, 6)
        alone = [ldpc5g_decode(llr, code, num_iter=12, variant=variant)
                 for llr, code, variant in jobs]
        together = [None] * len(jobs)
        start = threading.Barrier(len(jobs))

        def worker(i):
            llr, code, variant = jobs[i]
            start.wait()
            together[i] = [ldpc5g_decode(llr, code, num_iter=12,
                                         variant=variant) for _ in range(3)]

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        for runs, ref in zip(together, alone):
            assert runs is not None
            assert all(np.array_equal(got, ref) for got in runs)
