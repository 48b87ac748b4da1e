import numpy as np
import pytest

from linksim.channel import (Cir, TdlProfile, apply_time_domain,
                             cir_to_ofdm_channel, generate_tdl_cir)
from linksim.core import RngStream
from linksim.ofdm import (PilotPattern, ResourceGrid, ls_estimate,
                          nn_interpolate, ofdm_demodulate, ofdm_modulate,
                          rg_demap, rg_map)


def random_data(grid, batch, seed):
    g = RngStream(seed, 0).generator()
    n = grid.num_data_cells
    return (g.standard_normal((batch, n)) + 1j * g.standard_normal((batch, n))
            ) / np.sqrt(2)


class TestPilotPattern:
    def test_regular_layout(self):
        p = PilotPattern.regular(4, 12, pilot_symbols=[0, 2],
                                 subcarrier_step=3)
        assert p.mask.shape == (4, 12)
        assert p.mask[0].tolist() == [True, False, False] * 4
        assert not p.mask[1].any() and not p.mask[3].any()
        assert p.num_pilots == 8

    def test_values_unit_magnitude(self):
        p = PilotPattern.regular(2, 8, pilot_symbols=[1], seed=4)
        assert np.allclose(np.abs(p.values), 1.0)

    def test_json_round_trip(self):
        p = PilotPattern.regular(3, 6, pilot_symbols=[0], subcarrier_step=2,
                                 seed=9)
        q = PilotPattern.from_json(p.to_json())
        assert np.array_equal(p.mask, q.mask)
        assert np.allclose(p.values, q.values)

    def test_misaligned_values_rejected(self):
        with pytest.raises(ValueError):
            PilotPattern(mask=np.ones((2, 2), dtype=bool), values=np.ones(3))

    def test_non_unit_values_rejected(self):
        with pytest.raises(ValueError):
            PilotPattern(mask=np.eye(2, dtype=bool), values=np.array([2.0, 1.0]))


class TestResourceGrid:
    def test_effective_count(self):
        grid = ResourceGrid(fft_size=64, guard_left=4, guard_right=3,
                            dc_null=True)
        assert grid.num_effective_subcarriers == 56

    def test_effective_bins_natural_order(self):
        # 8-point FFT, one guard each side, DC nulled: centered indices
        # 1..6 minus the DC bin 4, shifted so bin 0 is DC.
        grid = ResourceGrid(fft_size=8, num_symbols=1, guard_left=1,
                            guard_right=1, dc_null=True)
        assert grid.effective_bins.tolist() == [5, 6, 7, 1, 2]

    def test_cell_partition(self):
        pattern = PilotPattern.regular(4, 10, pilot_symbols=[0],
                                       subcarrier_step=2)
        grid = ResourceGrid(fft_size=16, num_symbols=4, guard_left=3,
                            guard_right=3, pilot_pattern=pattern)
        assert grid.num_effective_subcarriers == 10
        assert grid.num_pilot_cells == 5
        assert grid.num_data_cells == 35
        assert grid.num_data_cells + grid.num_pilot_cells == 40

    def test_bandwidth_and_samples(self):
        grid = ResourceGrid(fft_size=64, cp_length=8)
        assert grid.samples_per_symbol == 72
        assert grid.bandwidth == pytest.approx(64 * 15e3)

    def test_pilot_shape_mismatch_rejected(self):
        pattern = PilotPattern.regular(2, 5, pilot_symbols=[0])
        with pytest.raises(ValueError):
            ResourceGrid(fft_size=16, num_symbols=3, guard_left=5,
                         guard_right=6, pilot_pattern=pattern)

    def test_cp_too_long_rejected(self):
        with pytest.raises(ValueError):
            ResourceGrid(fft_size=16, cp_length=16)

    @pytest.mark.parametrize("spacing", [0.0, -15e3])
    def test_non_positive_subcarrier_spacing_rejected(self, spacing):
        with pytest.raises(ValueError):
            ResourceGrid(fft_size=16, subcarrier_spacing=spacing)


class TestRgMapDemap:
    def test_round_trip_with_pilots(self):
        pattern = PilotPattern.regular(3, 10, pilot_symbols=[0],
                                       subcarrier_step=2, seed=2)
        grid = ResourceGrid(fft_size=16, num_symbols=3, guard_left=3,
                            guard_right=3, pilot_pattern=pattern)
        data = random_data(grid, 4, 1)
        mapped = rg_map(data, grid)
        out, pilots = rg_demap(mapped, grid)
        assert np.allclose(out, data)
        assert np.allclose(pilots, np.broadcast_to(pattern.values, pilots.shape))

    def test_guards_stay_zero(self):
        grid = ResourceGrid(fft_size=16, num_symbols=2, guard_left=4,
                            guard_right=4, dc_null=True)
        mapped = rg_map(random_data(grid, 2, 2), grid)
        used = np.zeros(16, dtype=bool)
        used[grid.effective_bins] = True
        assert not mapped[:, :, ~used].any()
        assert not mapped[:, :, 0].any()  # DC nulled

    def test_wrong_data_length(self):
        grid = ResourceGrid(fft_size=8, num_symbols=2)
        with pytest.raises(ValueError):
            rg_map(np.zeros((1, 5), dtype=complex), grid)


class TestOfdmModem:
    def test_round_trip_identity(self):
        g = RngStream(3, 0).generator()
        vals = g.standard_normal((2, 4, 32)) + 1j * g.standard_normal((2, 4, 32))
        t = ofdm_modulate(vals, cp_length=8)
        assert t.shape == (2, 4 * 40)
        back = ofdm_demodulate(t, 32, 8, 4)
        assert np.allclose(back, vals, atol=1e-10)

    def test_energy_preserving_without_cp(self):
        g = RngStream(4, 0).generator()
        vals = g.standard_normal((1, 1, 64)) + 1j * g.standard_normal((1, 1, 64))
        t = ofdm_modulate(vals, cp_length=0)
        assert np.sum(np.abs(t) ** 2) == pytest.approx(np.sum(np.abs(vals) ** 2))

    def test_dc_bin_constant(self):
        # Loading only bin 0 yields a constant time signal of value x0/sqrt(N).
        vals = np.zeros((1, 1, 16), dtype=complex)
        vals[0, 0, 0] = 2.0
        t = ofdm_modulate(vals, cp_length=0)
        assert np.allclose(t, 2.0 / np.sqrt(16))

    def test_time_shift_is_phase_ramp(self):
        # Circularly delaying the time signal multiplies bin k by
        # exp(-2j pi k d / N).
        g = RngStream(5, 0).generator()
        vals = g.standard_normal((1, 1, 16)) + 1j * g.standard_normal((1, 1, 16))
        t = ofdm_modulate(vals, cp_length=0)
        shifted = np.roll(t, 2, axis=-1)
        back = ofdm_demodulate(shifted, 16, 0, 1)
        k = np.arange(16)
        ramp = np.exp(-2j * np.pi * k * 2 / 16)
        assert np.allclose(back[0, 0], vals[0, 0] * ramp, atol=1e-10)

    def test_cp_makes_delay_circular(self):
        # With delay spread within the CP, the linear channel acts
        # per-symbol as multiplication by the DFT of the taps.
        grid = ResourceGrid(fft_size=32, num_symbols=3, cp_length=4)
        data = random_data(grid, 2, 6)
        mapped = rg_map(data, grid)
        t = ofdm_modulate(mapped, grid.cp_length)
        fs = grid.bandwidth
        taps = np.array([0.9, 0.4j])
        gains = np.tile(taps[None, :, None], (2, 1, 3))
        cir = Cir(gains=gains, delays=np.array([0.0, 2 / fs]),
                  sampling_rate=fs)
        y = apply_time_domain(t, cir)
        rx = ofdm_demodulate(y, 32, grid.cp_length, 3)
        h = cir_to_ofdm_channel(cir, 32, grid.subcarrier_spacing)
        assert np.allclose(rx, h * mapped, atol=1e-10)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            ofdm_demodulate(np.zeros((1, 100), dtype=complex), 32, 4, 3)


class TestChannelEstimation:
    def _setup(self, no=0.0, seed=7):
        pattern = PilotPattern.regular(4, 12, pilot_symbols=[0, 2],
                                       subcarrier_step=1, seed=1)
        grid = ResourceGrid(fft_size=16, num_symbols=4, guard_left=2,
                            guard_right=2, pilot_pattern=pattern)
        data = random_data(grid, 3, seed)
        mapped = rg_map(data, grid)
        return grid, mapped

    def test_ls_identity_channel(self):
        grid, mapped = self._setup()
        h_hat, err_var = ls_estimate(mapped, grid, 0.1)
        assert np.allclose(h_hat, 1.0, atol=1e-10)
        assert np.allclose(err_var, 0.1)  # unit-magnitude pilots

    def test_ls_recovers_scalar_channel(self):
        grid, mapped = self._setup()
        h_true = 0.6 - 0.8j
        h_hat, _ = ls_estimate(h_true * mapped, grid, 0.0)
        assert np.allclose(h_hat, h_true, atol=1e-10)

    def test_ls_requires_pilots(self):
        grid = ResourceGrid(fft_size=8, num_symbols=2)
        with pytest.raises(ValueError):
            ls_estimate(np.zeros((1, 2, 8), dtype=complex), grid, 0.1)

    def test_nn_interpolation_copies_nearest(self):
        pattern = PilotPattern.regular(3, 4, pilot_symbols=[0],
                                       subcarrier_step=2, seed=0)
        grid = ResourceGrid(fft_size=8, num_symbols=3, guard_left=2,
                            guard_right=2, pilot_pattern=pattern)
        # Pilots at (0,0) and (0,2) with distinct values.
        h_pilots = np.array([[1.0 + 0j, 5.0 + 0j]])
        full = nn_interpolate(h_pilots, grid)
        assert full.shape == (1, 3, 4)
        # Subcarriers 0 and nearest-left cells copy pilot 0; 2,3 copy pilot 1.
        assert np.allclose(full[0, :, 0], 1.0)
        assert np.allclose(full[0, :, 2], 5.0)
        assert np.allclose(full[0, :, 3], 5.0)

    def test_nn_tie_prefers_lexicographic(self):
        # Subcarrier 1 is equidistant from pilots at columns 0 and 2; the
        # tie must resolve to the pilot with the smaller subcarrier index.
        pattern = PilotPattern.regular(1, 3, pilot_symbols=[0],
                                       subcarrier_step=2, seed=0)
        grid = ResourceGrid(fft_size=8, num_symbols=1, guard_left=3,
                            guard_right=2, pilot_pattern=pattern)
        full = nn_interpolate(np.array([[1.0 + 0j, 9.0 + 0j]]), grid)
        assert full[0, 0, 1] == pytest.approx(1.0)

    def test_end_to_end_estimation_error_small(self):
        # Static single-tap channel, noiseless: NN estimate is exact.
        grid, mapped = self._setup()
        h_true = 1.2 + 0.5j
        h_hat, _ = ls_estimate(h_true * mapped, grid, 0.0)
        full = nn_interpolate(h_hat, grid)
        assert np.allclose(full, h_true, atol=1e-10)
