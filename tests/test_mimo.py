import numpy as np
import pytest

from linksim.channel import complex_gaussian
from linksim.core import RngStream
from linksim.mimo import MAX_CONDITION, lmmse_equalize, zf_precode


def random_channels(batch, rx, tx, seed):
    return complex_gaussian((batch, rx, tx), RngStream(seed, 0))


class TestZfPrecode:
    def test_interference_suppression(self):
        h = random_channels(500, 2, 4, 1)
        x = complex_gaussian((500, 2), RngStream(2))
        xp, g_eff = zf_precode(x, h)
        y = np.einsum("brt,bt->br", h, xp)
        # Effective channel is diagonal: y_i = g_i x_i exactly.
        assert np.allclose(y, g_eff * x, atol=1e-8)

    def test_unit_norm_columns(self):
        h = random_channels(100, 3, 3, 3)
        # Recover P by precoding basis vectors.
        for s in range(3):
            e = np.zeros((100, 3), dtype=complex)
            e[:, s] = 1.0
            col, _ = zf_precode(e, h)
            assert np.allclose(np.linalg.norm(col, axis=1), 1.0, atol=1e-9)

    def test_gains_positive_real(self):
        h = random_channels(200, 2, 3, 4)
        _, g_eff = zf_precode(np.ones((200, 2), dtype=complex), h)
        assert np.all(g_eff > 0)
        assert np.isrealobj(g_eff)

    def test_diagonal_channel_closed_form(self):
        # H = diag(2, 1): P = I (columns already unit norm after
        # normalization) and the effective gains equal the singular values.
        h = np.diag([2.0, 1.0])[None].astype(complex)
        x = np.array([[1.0 + 0j, 1.0 + 0j]])
        xp, g_eff = zf_precode(x, h)
        assert np.allclose(xp, x)
        assert np.allclose(g_eff, [2.0, 1.0])

    def test_singular_channel_raises(self):
        h = np.ones((1, 2, 2), dtype=complex)  # rank 1
        with pytest.raises(np.linalg.LinAlgError):
            zf_precode(np.ones((1, 2), dtype=complex), h)

    def test_condition_threshold_exists(self):
        assert MAX_CONDITION == 1e8

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            zf_precode(np.ones((2, 2), dtype=complex),
                       np.ones((2, 3, 4), dtype=complex))


class TestLmmseEqualize:
    def test_scalar_closed_form(self):
        # Single antenna: x_hat = y/h unbiased, no_eff = no/|h|^2.
        h = np.array([[[0.8 - 0.6j]]])
        y = np.array([[1.0 + 0.5j]])
        no = 0.2
        x_hat, no_eff = lmmse_equalize(y, h, no)
        assert x_hat[0, 0] == pytest.approx(y[0, 0] / h[0, 0, 0])
        assert no_eff[0, 0] == pytest.approx(no / np.abs(h[0, 0, 0]) ** 2)

    def test_reduces_to_zf_at_high_snr(self):
        h = random_channels(200, 3, 2, 5)
        x = complex_gaussian((200, 2), RngStream(6))
        y = np.einsum("brt,bt->br", h, x)
        x_hat, _ = lmmse_equalize(y, h, 1e-9)
        zf = np.einsum("bts,bs->bt", np.linalg.pinv(h), y)
        assert np.allclose(x_hat, zf, atol=1e-4)

    def test_noiseless_recovery(self):
        h = random_channels(100, 2, 2, 7)
        x = complex_gaussian((100, 2), RngStream(8))
        y = np.einsum("brt,bt->br", h, x)
        x_hat, no_eff = lmmse_equalize(y, h, 1e-12)
        assert np.allclose(x_hat, x, atol=1e-4)
        assert np.all(no_eff >= 0)

    def test_no_eff_monotone_in_no(self):
        h = random_channels(50, 2, 2, 9)
        y = np.ones((50, 2), dtype=complex)
        prev = None
        for no in (1e-3, 1e-2, 1e-1, 1.0):
            _, no_eff = lmmse_equalize(y, h, no)
            if prev is not None:
                assert np.all(no_eff >= prev - 1e-12)
            prev = no_eff

    def test_error_variance_calibrated(self):
        # Empirical post-equalization error variance should match no_eff.
        rng = RngStream(10, 0)
        batch = 20000
        h = complex_gaussian((batch, 2, 2), rng.child(0))
        x = complex_gaussian((batch, 2), rng.child(1))
        no = 0.1
        n = complex_gaussian((batch, 2), rng.child(2), variance=no)
        y = np.einsum("brt,bt->br", h, x) + n
        x_hat, no_eff = lmmse_equalize(y, h, no)
        err = np.abs(x_hat - x) ** 2
        # Compare in aggregate over a moderate-conditioning subset.
        sel = no_eff < 1.0
        ratio = err[sel].mean() / no_eff[sel].mean()
        assert ratio == pytest.approx(1.0, abs=0.1)

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            lmmse_equalize(np.ones((1, 2), dtype=complex),
                           np.ones((1, 2, 2), dtype=complex), 0.0)

    def test_non_finite_rejected(self):
        y = np.array([[np.inf + 0j, 0]])
        with pytest.raises(ValueError):
            lmmse_equalize(y, np.ones((1, 2, 2), dtype=complex), 0.1)


def whole_batch_lmmse(y, h, no):
    """The equalizer as it ran before its channel uses were tiled."""
    hh = h.conj().swapaxes(-1, -2)
    a = hh @ h + no * np.eye(h.shape[-1])
    w_h = np.linalg.solve(a, hh)
    z = np.einsum("bsr,br->bs", w_h, y)
    mu = np.clip(np.real(np.einsum("bsr,brs->bs", w_h, h)), 1e-300, 1.0)
    return z / mu, 1.0 / mu - 1.0


class TestLmmseTiles:
    # 4x4 complex128 channels: 4096 channel uses per tile.
    @pytest.mark.parametrize("uses", [1, 4095, 4096, 4097, 16384, 20000])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_bytes_match_whole_batch(self, uses, dtype):
        rng = RngStream(uses, 1)
        h = complex_gaussian((uses, 4, 4), rng.child(0), dtype=dtype)
        y = complex_gaussian((uses, 4), rng.child(1), dtype=dtype)
        got = lmmse_equalize(y, h, 0.2)
        ref = whole_batch_lmmse(y, h, 0.2)
        # complex128 and float64 whatever the input precision: no * I is
        # float64.
        assert [a.dtype for a in got] == [np.complex128, np.float64]
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8))

    def test_uneven_antennas(self):
        h = random_channels(9000, 3, 2, 4)
        y = complex_gaussian((9000, 3), RngStream(5))
        for a, b in zip(lmmse_equalize(y, h, 0.5),
                        whole_batch_lmmse(y, h, 0.5)):
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8))
