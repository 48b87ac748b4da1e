import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from linksim.core import RngStream, binary_source
from linksim.mapping import (Constellation, _tile_symbols, demap_app,
                             demap_maxlog, map_bits)


def brute_force_llr(y, no, constellation, prior=None):
    """Direct marginalization oracle for the APP demapper.

    L_i = ln( sum_{x: b_i(x)=1} exp(-|y-x|^2/no + sum_j b_j(x) p_j)
            / sum_{x: b_i(x)=0} ... )
    computed with plain sums (adequate at oracle scale).
    """
    points = constellation.points
    bits = constellation.bit_table
    m = constellation.num_bits_per_symbol
    metric = np.exp(-np.abs(y - points) ** 2 / no)
    if prior is not None:
        metric = metric * np.exp(bits @ np.asarray(prior, dtype=float))
    out = np.empty(m)
    for i in range(m):
        num = metric[bits[:, i] == 1].sum()
        den = metric[bits[:, i] == 0].sum()
        out[i] = np.log(num) - np.log(den)
    return out


def reference_demap(y, no, constellation, prior, mode):
    """The dense demapper the factor form replaced, kept as its oracle.

    Builds the [..., m, 2**m] logits masked with -inf per bit and reduces
    them with scipy's logsumexp (APP) or a max (max-log).
    """
    y = np.asarray(y)
    no = np.asarray(no, dtype=np.float64)
    m = constellation.num_bits_per_symbol
    points = constellation.points
    bits = constellation.bit_table.astype(np.float64)
    d2 = np.abs(y[..., None] - points) ** 2
    logits = -d2 / np.broadcast_to(no, y.shape)[..., None]
    if prior is not None:
        prior = np.asarray(prior, dtype=np.float64)
        if prior.shape == (m,):
            logits = logits + bits @ prior
        else:
            prior = prior.reshape(*y.shape, m)
            logits = logits + np.einsum("...m,pm->...p", prior, bits)
    mask1 = constellation.bit_table.T.astype(bool)
    l1 = np.where(mask1[(None,) * y.ndim], logits[..., None, :], -np.inf)
    l0 = np.where(~mask1[(None,) * y.ndim], logits[..., None, :], -np.inf)
    if mode == "app":
        llr = logsumexp(l1, axis=-1) - logsumexp(l0, axis=-1)
    else:
        llr = np.max(l1, axis=-1) - np.max(l0, axis=-1)
    return llr.reshape(*y.shape[:-1], -1)


def permuted_qam(m, seed):
    """A "qam" constellation whose labels are shuffled: not separable."""
    points = Constellation("qam", m).points
    perm = np.random.default_rng(seed).permutation(points.size)
    return Constellation("qam", m, points=points[perm])


class TestConstellation:
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_qam_unit_energy(self, m):
        c = Constellation("qam", m)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_psk_unit_modulus(self, m):
        c = Constellation("psk", m)
        assert np.allclose(np.abs(c.points), 1.0)

    def test_qpsk_first_point(self):
        # Label 00 maps to the most positive amplitude on both axes.
        c = Constellation("qam", 2)
        assert c.points[0] == pytest.approx((1 + 1j) / np.sqrt(2))

    def test_gray_property_qam(self):
        # Adjacent points along each axis differ in exactly one label bit.
        for m in (2, 4, 6):
            c = Constellation("qam", m)
            bits = c.bit_table
            order_i = np.argsort(-c.points.real, kind="stable")
            per_level = 1 << (m // 2)
            # Walk down the I axis at fixed Q: group by imaginary part.
            for q in np.unique(np.round(c.points.imag, 9)):
                idx = [i for i in order_i if np.isclose(c.points[i].imag, q)]
                for a, b in zip(idx, idx[1:]):
                    assert np.sum(bits[a] != bits[b]) == 1
            assert len(idx) == per_level

    def test_odd_qam_rejected(self):
        with pytest.raises(ValueError):
            Constellation("qam", 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Constellation("apsk", 4)


    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
    def test_square_qam_splits_into_two_axes(self, m):
        c = Constellation("qam", m)
        f_i, f_q = c._factors
        assert f_i.levels.size == f_q.levels.size == 1 << (m // 2)
        assert np.array_equal(np.sort(f_i.levels), np.unique(c.points.real))
        assert np.array_equal(np.sort(f_q.levels), np.unique(c.points.imag))

    def test_separability_decided_from_points(self):
        # Equal points under the "qam" kind split; shuffled labels and a
        # rotated grid do not, whatever the kind says.
        qam = Constellation("qam", 4)
        assert len(Constellation("qam", 4, points=qam.points)._factors) == 2
        assert len(permuted_qam(4, 0)._factors) == 1
        rotated = Constellation("qam", 4, points=qam.points * np.exp(0.3j))
        assert len(rotated._factors) == 1
        assert len(Constellation("psk", 2)._factors) == 1


class TestMapBits:
    def test_big_endian_grouping(self):
        c = Constellation("qam", 4)
        # First bit of the group is the MSB of the label.
        x = map_bits(np.array([[1, 0, 0, 0]]), c)
        assert x[0, 0] == c.points[0b1000]

    def test_batch_shape(self):
        c = Constellation("qam", 2)
        bits = binary_source([7, 10], RngStream(0))
        assert map_bits(bits, c).shape == (7, 5)

    def test_indivisible_length_raises(self):
        with pytest.raises(ValueError):
            map_bits(np.zeros((2, 5), dtype=np.uint8), Constellation("qam", 2))

    def test_average_energy_of_random_bits(self):
        c = Constellation("qam", 6)
        bits = binary_source([200, 600], RngStream(3))
        x = map_bits(bits, c)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=0.02)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool, np.float64])
    @pytest.mark.parametrize("kind,m", [("qam", 2), ("psk", 3), ("qam", 10)])
    def test_labels_match_weighted_sum(self, dtype, kind, m):
        c = Constellation(kind, m)
        bits = binary_source([5, 12 * m], RngStream(m)).astype(dtype)
        groups = bits.reshape(5, -1, m).astype(np.int64)
        ref = c.points[groups @ (1 << np.arange(m - 1, -1, -1))]
        assert np.array_equal(map_bits(bits, c), ref)


class TestDemapApp:
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_matches_brute_force(self, m):
        c = Constellation("qam", m)
        g = RngStream(10 + m, 0).generator()
        for _ in range(50):
            y = g.normal() + 1j * g.normal()
            no = g.uniform(0.05, 2.0)
            llr = demap_app(np.array([[y]]), no, c)
            ref = brute_force_llr(y, no, c)
            assert np.allclose(llr[0], ref, atol=1e-9)

    def test_matches_brute_force_with_prior(self):
        c = Constellation("qam", 4)
        g = RngStream(77, 0).generator()
        for _ in range(50):
            y = g.normal() + 1j * g.normal()
            no = g.uniform(0.1, 1.0)
            prior = g.normal(size=4)
            llr = demap_app(np.array([[y]]), no, c, prior=prior)
            ref = brute_force_llr(y, no, c, prior=prior)
            assert np.allclose(llr[0], ref, atol=1e-9)

    def test_permuted_custom_qam_matches_brute_force(self):
        c = permuted_qam(4, 5)
        g = RngStream(78, 0).generator()
        for _ in range(50):
            y = g.normal() + 1j * g.normal()
            no = g.uniform(0.1, 1.0)
            prior = g.normal(size=4)
            llr = demap_app(np.array([[y]]), no, c, prior=prior)
            ref = brute_force_llr(y, no, c, prior=prior)
            assert np.allclose(llr[0], ref, atol=1e-9)

    def test_bpsk_closed_form(self):
        # Real BPSK within the PSK family: L = -4 Re(y) / no for 0 -> +1.
        c = Constellation("psk", 1)
        y = np.array([[0.5 + 0.0j]])
        llr = demap_app(y, 1.0, c)
        assert llr[0, 0] == pytest.approx(-2.0)

    def test_llr_calibration(self):
        # Pr(b=1 | L) should equal sigmoid(L): bin empirical frequencies.
        c = Constellation("qam", 4)
        rng = RngStream(2024, 0)
        bits = binary_source([2000, 40], rng.child(0))
        x = map_bits(bits, c)
        no = 0.5
        g = rng.child(1).generator()
        noise = (g.standard_normal(x.shape) + 1j * g.standard_normal(x.shape))
        y = x + np.sqrt(no / 2) * noise
        llr = demap_app(y, no, c)
        p = 1.0 / (1.0 + np.exp(-llr.reshape(-1)))
        b = bits.reshape(-1)
        for lo, hi in [(0.1, 0.3), (0.4, 0.6), (0.7, 0.9)]:
            sel = (p > lo) & (p < hi)
            assert sel.sum() > 200
            assert b[sel].mean() == pytest.approx(p[sel].mean(), abs=0.03)

    def test_sign_convention_via_noiseless_round_trip(self):
        c = Constellation("qam", 6)
        bits = binary_source([20, 60], RngStream(4))
        x = map_bits(bits, c)
        llr = demap_app(x, 0.01, c)
        assert np.array_equal((llr > 0).astype(np.uint8), bits)

    def test_nonpositive_noise_rejected(self):
        c = Constellation("qam", 2)
        with pytest.raises(ValueError):
            demap_app(np.zeros((1, 1), dtype=complex), 0.0, c)

    @pytest.mark.parametrize("no", [np.nan, np.array([[0.5, np.nan]])])
    def test_nan_noise_rejected(self, no):
        c = Constellation("qam", 2)
        with pytest.raises(ValueError, match="noise variance"):
            demap_app(np.zeros((1, 2), dtype=complex), no, c)

    def test_256qam_memory_is_bounded(self):
        # 1024x250 symbols: the dense form needs over 10 GB.  Here the peak
        # is the float64 output plus a few tiles of temporaries.
        c = Constellation("qam", 8)
        g = RngStream(9, 0).generator()
        y = (g.standard_normal((1024, 250))
             + 1j * g.standard_normal((1024, 250))).astype(np.complex64)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            llr = demap_app(y, 0.05, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert llr.shape == (1024, 2000)
        assert peak < llr.nbytes + 8 * 2**20

    def test_per_symbol_noise_broadcast(self):
        c = Constellation("qam", 2)
        y = np.array([[0.3 + 0.1j, 0.3 + 0.1j]])
        no = np.array([[0.2, 0.8]])
        llr = demap_app(y, no, c)
        a = demap_app(y[:, :1], 0.2, c)
        b = demap_app(y[:, 1:], 0.8, c)
        assert np.allclose(llr, np.concatenate([a, b], axis=1))


class TestDemapMaxlog:
    def test_close_to_app_at_high_snr(self):
        c = Constellation("qam", 4)
        bits = binary_source([10, 40], RngStream(5))
        x = map_bits(bits, c)
        app = demap_app(x, 1e-3, c)
        ml = demap_maxlog(x, 1e-3, c)
        assert np.allclose(app, ml, rtol=1e-6, atol=1e-6)

    def test_same_signs_usually(self):
        c = Constellation("qam", 6)
        rng = RngStream(6, 0)
        bits = binary_source([50, 60], rng.child(0))
        x = map_bits(bits, c)
        g = rng.child(1).generator()
        no = 0.05
        y = x + np.sqrt(no / 2) * (g.standard_normal(x.shape)
                                   + 1j * g.standard_normal(x.shape))
        app = demap_app(y, no, c)
        ml = demap_maxlog(y, no, c)
        agreement = np.mean(np.sign(app) == np.sign(ml))
        assert agreement > 0.99


EQUIVALENCE_CONSTELLATIONS = [("qam", 2), ("qam", 4), ("qam", 6), ("qam", 8),
                              ("psk", 1), ("psk", 2), ("psk", 3),
                              ("custom", 4)]


class TestDemapEquivalence:
    """The factor-tiled demapper against the dense reference demapper."""

    @pytest.mark.parametrize("kind,m", EQUIVALENCE_CONSTELLATIONS)
    @pytest.mark.parametrize("mode", ["app", "maxlog"])
    @pytest.mark.parametrize("prior_kind", [None, "flat", "per-bit"])
    @pytest.mark.parametrize("per_symbol_no", [False, True])
    def test_matches_reference(self, kind, m, mode, prior_kind,
                               per_symbol_no):
        c = permuted_qam(m, 1) if kind == "custom" else Constellation(kind, m)
        demap = demap_app if mode == "app" else demap_maxlog
        tile = _tile_symbols(c)
        g = RngStream(1000 + m, 0).generator()
        # Noise variances down to 1e-3 put the logits near -1e4, where
        # exp underflows without the max shift.
        for n, dtype, scalar_no in ((tile - 1, np.complex64, 0.2),
                                    (tile, np.complex128, 2.0),
                                    (tile + 1, np.complex64, 1e-3),
                                    (tile + 1, np.complex128, 0.05)):
            y = (1.3 * (g.standard_normal((1, n))
                        + 1j * g.standard_normal((1, n)))).astype(dtype)
            no = (np.exp(g.uniform(np.log(1e-3), np.log(2.0), size=(1, n)))
                  if per_symbol_no else scalar_no)
            prior = {None: None, "flat": g.normal(size=m),
                     "per-bit": g.normal(size=(1, n * m))}[prior_kind]
            llr = demap(y, no, c, prior=prior).reshape(n, m)
            # Symbols are demapped independently, so the dense reference
            # runs on the symbols around both ends and the tile boundary
            # plus a random sample: at 256-QAM it costs ~100x more.
            sel = np.unique(np.r_[0:8, tile - 8:min(n, tile + 8), n - 8:n,
                                  g.choice(n, 64)])
            no_sel = no[:, sel] if per_symbol_no else no
            prior_sel = (prior.reshape(n, m)[sel] if prior_kind == "per-bit"
                         else prior)
            ref = reference_demap(y[:, sel], no_sel, c, prior_sel,
                                  mode).reshape(-1, m)
            if mode == "maxlog" and len(c._factors) == 1:
                assert np.array_equal(llr[sel], ref)
            else:
                np.testing.assert_allclose(llr[sel], ref, rtol=1e-12,
                                           atol=1e-12)


class TestDemapDtype:
    @pytest.mark.parametrize("demap", [demap_app, demap_maxlog])
    @pytest.mark.parametrize("per_symbol_no", [False, True])
    def test_float32_output_is_rounded_float64(self, demap, per_symbol_no):
        # One rounding of the float64 metrics, as a cast of the float64
        # output would make.
        c = Constellation("qam", 4)
        g = RngStream(9, 0).generator()
        y = (g.standard_normal((6, 700)) + 1j * g.standard_normal((6, 700)))
        no = g.uniform(0.05, 2.0, size=y.shape) if per_symbol_no else 0.3
        ref = demap(y, no, c).astype(np.float32)
        got = demap(y, no, c, dtype=np.float32)
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint8), ref.view(np.uint8))
