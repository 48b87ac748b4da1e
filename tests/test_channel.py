import numpy as np
import pytest
from scipy.special import j0

from linksim.channel import (Cir, CorrelationPair, TdlProfile,
                             apply_time_domain, awgn, cir_to_ofdm_channel,
                             complex_gaussian, flat_fading, generate_tdl_cir)
from linksim.core import RngStream


class TestComplexGaussian:
    def test_moments(self):
        z = complex_gaussian((200000,), RngStream(1), variance=2.0)
        assert np.mean(z) == pytest.approx(0.0, abs=0.02)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(2.0, rel=0.02)
        # Circular symmetry: E[z^2] = 0 and per-axis variance is equal.
        assert np.mean(z**2) == pytest.approx(0.0, abs=0.02)
        assert np.var(z.real) == pytest.approx(np.var(z.imag), rel=0.05)

    def test_deterministic(self):
        a = complex_gaussian((100,), RngStream(2, 5))
        b = complex_gaussian((100,), RngStream(2, 5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_matches_complex_sum_of_draws(self, dtype):
        # Real parts first, then imaginary parts, scaled by sqrt(var / 2)
        # and rounded once into the dtype.
        rng = RngStream(3, 9)
        g = rng.generator()
        re, im = g.standard_normal((40, 3)), g.standard_normal((40, 3))
        ref = (np.sqrt(0.7 / 2.0) * (re + 1j * im)).astype(dtype)
        got = complex_gaussian((40, 3), rng, variance=0.7, dtype=dtype)
        assert got.dtype == dtype
        assert np.array_equal(got.view(np.uint8), ref.view(np.uint8))


class TestAwgn:
    def test_noise_variance(self):
        x = np.zeros(100000, dtype=np.complex128)
        y = awgn(x, 0.25, RngStream(3))
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.25, rel=0.02)

    def test_zero_variance_is_identity(self):
        x = complex_gaussian((100,), RngStream(4))
        assert np.array_equal(awgn(x, 0.0, RngStream(5)), x)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            awgn(np.zeros(4, dtype=complex), -0.1, RngStream(0))

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128,
                                       np.float32, np.float64])
    def test_bytes_equal_x_plus_noise(self, dtype):
        x = complex_gaussian((64, 50), RngStream(6), dtype=np.complex128)
        x = (x if np.dtype(dtype).kind == "c" else x.real).astype(dtype)
        noise = complex_gaussian(x.shape, RngStream(7), variance=0.3, dtype=dtype)
        y = awgn(x, 0.3, RngStream(7))
        assert y.dtype == dtype
        assert y.tobytes() == (x + noise).tobytes()


class TestCorrelationPair:
    def test_identity_factory(self):
        c = CorrelationPair.identity(2, 3)
        assert c.r_tx.shape == (2, 2) and c.r_rx.shape == (3, 3)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            CorrelationPair(np.array([[1.0, 0.5], [0.2, 1.0]]), np.eye(2))

    def test_indefinite_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ValueError):
            CorrelationPair(bad, np.eye(2))


class TestFlatFading:
    def test_shapes_and_output(self):
        x = complex_gaussian((50, 2), RngStream(6))
        y, h = flat_fading(x, None, 3, RngStream(7))
        assert y.shape == (50, 3) and h.shape == (50, 3, 2)
        assert np.allclose(y, np.einsum("brt,bt->br", h, x))

    def test_iid_unit_variance(self):
        x = np.ones((20000, 2), dtype=complex)
        _, h = flat_fading(x, None, 2, RngStream(8))
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_kronecker_covariance(self):
        # For H = R_rx^{1/2} W R_tx^{1/2} with i.i.d. W the second moments
        # separate: E[H_ij H_kl^*] = R_rx[i,k] * R_tx[l,j].
        r_tx = np.array([[1.0, 0.6], [0.6, 1.0]])
        r_rx = np.array([[1.0, 0.3j], [-0.3j, 1.0]])
        corr = CorrelationPair(r_tx, r_rx)
        x = np.ones((100000, 2), dtype=complex)
        _, h = flat_fading(x, corr, 2, RngStream(9))
        emp = np.einsum("bij,bkl->ijkl", h, h.conj()) / len(h)
        target = np.einsum("ik,lj->ijkl", r_rx, r_tx)
        err = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert err < 0.05

    def test_rank_one_correlation(self):
        # Fully correlated receive side: both rows of H always equal.
        r_rx = np.ones((2, 2))
        corr = CorrelationPair(np.eye(2), r_rx)
        x = np.ones((100, 2), dtype=complex)
        _, h = flat_fading(x, corr, 2, RngStream(10))
        assert np.allclose(h[:, 0, :], h[:, 1, :])

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("num_rx,num_tx", [(1, 1), (2, 2), (4, 4),
                                               (4, 2), (5, 3)])
    def test_no_correlation_equals_identity(self, num_rx, num_tx, dtype):
        x = complex_gaussian((300, num_tx), RngStream(11)).astype(dtype)
        corr = CorrelationPair.identity(num_tx, num_rx)
        for seed in (12, 13, 14):
            y0, h0 = flat_fading(x, None, num_rx, RngStream(seed))
            y1, h1 = flat_fading(x, corr, num_rx, RngStream(seed))
            assert h0.dtype == h1.dtype == dtype
            assert h0.tobytes() == h1.tobytes()
            assert y0.tobytes() == y1.tobytes()

    def test_dimension_mismatch(self):
        corr = CorrelationPair.identity(2, 2)
        with pytest.raises(ValueError):
            flat_fading(np.ones((4, 3), dtype=complex), corr, 2, RngStream(0))


class TestTdlProfile:
    def test_power_normalization_enforced(self):
        with pytest.raises(ValueError):
            TdlProfile(powers=[0.5, 0.4], delays=[0.0, 1e-6])

    def test_delays_must_be_sorted(self):
        with pytest.raises(ValueError):
            TdlProfile(powers=[0.5, 0.5], delays=[1e-6, 0.0])


class TestGenerateTdlCir:
    def test_tap_powers(self):
        profile = TdlProfile(powers=[0.7, 0.3], delays=[0.0, 1e-6],
                             doppler_hz=100.0)
        cir = generate_tdl_cir(profile, 5000, 4, 1e-3, 1e6, RngStream(11))
        p = np.mean(np.abs(cir.gains) ** 2, axis=(0, 2))
        assert p == pytest.approx([0.7, 0.3], rel=0.05)

    def test_j0_autocorrelation(self):
        profile = TdlProfile(powers=[1.0], delays=[0.0], doppler_hz=80.0)
        dt = 1e-3
        cir = generate_tdl_cir(profile, 4000, 30, dt, 1e6, RngStream(12))
        g = cir.gains[:, 0, :]
        for lag in (1, 3, 7):
            corr = np.mean(g[:, :-lag].conj() * g[:, lag:]).real
            target = j0(2 * np.pi * 80.0 * lag * dt)
            assert corr == pytest.approx(target, abs=0.03)

    def test_zero_doppler_is_block_static(self):
        profile = TdlProfile(powers=[1.0], delays=[0.0], doppler_hz=0.0)
        cir = generate_tdl_cir(profile, 10, 5, 1e-3, 1e6, RngStream(13))
        assert np.allclose(cir.gains, cir.gains[:, :, :1])


class TestApplyTimeDomain:
    def test_single_tap_is_scaling(self):
        x = complex_gaussian((4, 16), RngStream(14))
        gains = np.full((4, 1, 1), 0.5 - 0.25j)
        cir = Cir(gains=gains, delays=np.array([0.0]), sampling_rate=1e6)
        y = apply_time_domain(x, cir)
        assert np.allclose(y, (0.5 - 0.25j) * x)

    def test_matches_numpy_convolve(self):
        # Static two-tap channel vs np.convolve (zero pre-padding).
        x = complex_gaussian((1, 32), RngStream(15))
        taps = np.array([0.8, 0.0, 0.3j])
        gains = np.tile(taps[None, :, None], (1, 1, 1))
        cir = Cir(gains=gains, delays=np.array([0.0, 1e-6, 2e-6]),
                  sampling_rate=1e6)
        y = apply_time_domain(x, cir)
        ref = np.convolve(x[0], taps)[:32]
        assert np.allclose(y[0], ref)

    def test_fractional_delay_rejected(self):
        cir = Cir(gains=np.ones((1, 1, 1)), delays=np.array([0.4e-6]),
                  sampling_rate=1e6)
        with pytest.raises(ValueError):
            apply_time_domain(np.ones((1, 8), dtype=complex), cir)

    def test_step_mismatch_rejected(self):
        cir = Cir(gains=np.ones((1, 1, 3)), delays=np.array([0.0]),
                  sampling_rate=1e6)
        with pytest.raises(ValueError):
            apply_time_domain(np.ones((1, 8), dtype=complex), cir)


class TestCirToOfdmChannel:
    def test_single_tap_flat_response(self):
        gains = np.full((2, 1, 3), 0.7 + 0.1j)
        cir = Cir(gains=gains, delays=np.array([0.0]), sampling_rate=1e6)
        h = cir_to_ofdm_channel(cir, 8, 15e3)
        assert h.shape == (2, 3, 8)
        assert np.allclose(h, 0.7 + 0.1j)

    def test_two_tap_matches_dft_of_taps(self):
        # Delays on the sample grid: response equals the FFT of the padded
        # tap vector when df = fs / fft_size.
        fs, fft = 1e6, 16
        taps = np.array([0.6, 0.8j])
        gains = taps[None, :, None] * np.ones((1, 2, 1))
        cir = Cir(gains=gains, delays=np.array([0.0, 3 / fs]),
                  sampling_rate=fs)
        h = cir_to_ofdm_channel(cir, fft, fs / fft)
        padded = np.zeros(fft, dtype=complex)
        padded[0], padded[3] = taps
        assert np.allclose(h[0, 0], np.fft.fft(padded))

