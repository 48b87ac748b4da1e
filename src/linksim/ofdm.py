"""OFDM: resource grids with pilot patterns, modulation with cyclic
prefix, LS channel estimation and nearest-neighbor interpolation.

Effective (non-guard, non-DC) subcarriers are centered in the FFT window;
grid values handed to the modulator use natural DFT bin order (DC first).
Both transform directions are orthonormal (1/sqrt(N)), preserving the
unit-symbol-energy convention across the modem boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class PilotPattern:
    """Pilot cell mask over [num_symbols, num_effective_subcarriers].

    Pilot values are unit-magnitude complex numbers listed in row-major
    (symbol-major) order of the mask's True cells.
    """

    mask: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.mask.ndim != 2:
            raise ValueError("mask must be [num_symbols, num_subcarriers]")
        if self.values.shape != (int(self.mask.sum()),):
            raise ValueError("pilot values do not align with the mask")
        if self.values.size and not np.allclose(np.abs(self.values), 1.0, atol=1e-6):
            raise ValueError("pilot values must have unit magnitude")

    @property
    def num_pilots(self) -> int:
        return int(self.mask.sum())

    @classmethod
    def regular(cls, num_symbols: int, num_subcarriers: int,
                pilot_symbols, subcarrier_step: int = 1,
                seed: int = 0) -> "PilotPattern":
        """QPSK pilots on the given symbol indices, every nth subcarrier."""
        from .core import RngStream

        mask = np.zeros((num_symbols, num_subcarriers), dtype=bool)
        for s in pilot_symbols:
            mask[s, ::subcarrier_step] = True
        g = RngStream(seed, 0).generator()
        phases = g.integers(0, 4, size=int(mask.sum()))
        values = np.exp(1j * (np.pi / 4 + np.pi / 2 * phases))
        return cls(mask=mask, values=values)


@dataclass
class ResourceGrid:
    """OFDM time-frequency layout with guards, optional DC null and pilots.

    ``pilot_pattern=None`` becomes an empty pattern: a grid without pilots.
    """

    fft_size: int
    num_symbols: int = 14
    cp_length: int = 0
    subcarrier_spacing: float = 15e3
    guard_left: int = 0
    guard_right: int = 0
    dc_null: bool = False
    pilot_pattern: Optional[PilotPattern] = None

    def __post_init__(self):
        if self.cp_length >= self.fft_size:
            raise ValueError("cp_length must be smaller than fft_size")
        if not self.subcarrier_spacing > 0:
            raise ValueError("subcarrier_spacing must be > 0")
        if self.guard_left + self.guard_right + int(self.dc_null) >= self.fft_size:
            raise ValueError("guards leave no usable subcarriers")
        expected = (self.num_symbols, self.num_effective_subcarriers)
        if self.pilot_pattern is None:
            self.pilot_pattern = PilotPattern(np.zeros(expected, dtype=bool), [])
        if self.pilot_pattern.mask.shape != expected:
            raise ValueError(
                f"pilot mask shape {self.pilot_pattern.mask.shape} != {expected}"
            )

    @property
    def num_effective_subcarriers(self) -> int:
        return self.fft_size - self.guard_left - self.guard_right - int(self.dc_null)

    @property
    def effective_bins(self) -> np.ndarray:
        """Natural-order DFT bins of the effective subcarriers, in the
        order used by the [symbol, effective subcarrier] grid."""
        centered = np.arange(self.guard_left, self.fft_size - self.guard_right)
        if self.dc_null:
            centered = centered[centered != self.fft_size // 2]
        return (centered - self.fft_size // 2) % self.fft_size

    @property
    def num_pilot_cells(self) -> int:
        return self.pilot_pattern.num_pilots

    @property
    def num_data_cells(self) -> int:
        return self.num_symbols * self.num_effective_subcarriers - self.num_pilot_cells

    @property
    def pilot_cells(self) -> np.ndarray:
        """Pilot (symbol, effective subcarrier) coordinates, row-major."""
        return np.argwhere(self.pilot_pattern.mask)

    @property
    def samples_per_symbol(self) -> int:
        return self.fft_size + self.cp_length

    @property
    def bandwidth(self) -> float:
        """Sampling rate implied by the FFT size and subcarrier spacing."""
        return self.fft_size * self.subcarrier_spacing


def rg_map(data: np.ndarray, grid: ResourceGrid) -> np.ndarray:
    """Scatter data and pilots into [batch, num_symbols, fft_size].

    Data fills the non-pilot effective cells in symbol-major order; guard
    and DC bins stay zero.
    """
    data = np.atleast_2d(np.asarray(data))
    if data.shape[-1] != grid.num_data_cells:
        raise ValueError(
            f"expected {grid.num_data_cells} data symbols, got {data.shape[-1]}"
        )
    batch = data.shape[0]
    eff = np.zeros((batch, grid.num_symbols, grid.num_effective_subcarriers),
                   dtype=np.result_type(data.dtype, np.complex64))
    pilot_mask = grid.pilot_pattern.mask
    eff[:, pilot_mask] = grid.pilot_pattern.values
    eff[:, ~pilot_mask] = data
    out = np.zeros((batch, grid.num_symbols, grid.fft_size), dtype=eff.dtype)
    out[:, :, grid.effective_bins] = eff
    return out


def rg_demap(grid_values: np.ndarray, grid: ResourceGrid):
    """Inverse of :func:`rg_map`: returns (data cells, pilot cells)."""
    grid_values = np.asarray(grid_values)
    eff = grid_values[:, :, grid.effective_bins]
    pilot_mask = grid.pilot_pattern.mask
    return eff[:, ~pilot_mask], eff[:, pilot_mask]


def ofdm_modulate(grid_values: np.ndarray, cp_length: int) -> np.ndarray:
    """Orthonormal IDFT per symbol with cyclic-prefix insertion.

    Input [batch, num_symbols, fft_size] in natural bin order; output
    [batch, num_symbols * (fft_size + cp_length)] time samples.
    """
    grid_values = np.asarray(grid_values)
    fft_size = grid_values.shape[-1]
    if cp_length >= fft_size:
        raise ValueError("cp_length must be smaller than fft_size")
    time = np.fft.ifft(grid_values, axis=-1, norm="ortho")
    if cp_length:
        time = np.concatenate([time[..., -cp_length:], time], axis=-1)
    return time.reshape(time.shape[0], -1)


def ofdm_demodulate(samples: np.ndarray, fft_size: int, cp_length: int,
                    num_symbols: int) -> np.ndarray:
    """Drop cyclic prefixes and apply the orthonormal DFT per symbol."""
    samples = np.atleast_2d(np.asarray(samples))
    expected = num_symbols * (fft_size + cp_length)
    if samples.shape[-1] != expected:
        raise ValueError(f"expected {expected} samples, got {samples.shape[-1]}")
    sym = samples.reshape(samples.shape[0], num_symbols, fft_size + cp_length)
    return np.fft.fft(sym[..., cp_length:], axis=-1, norm="ortho")


def ls_estimate(rx_grid: np.ndarray, grid: ResourceGrid, no: float):
    """Least-squares channel estimates at the pilot cells.

    Returns (h_hat, err_var): per-pilot estimates y_p / p of shape
    [batch, num_pilots] and the estimation error variances no / |p|^2.
    """
    if grid.num_pilot_cells == 0:
        raise ValueError("ls_estimate requires a non-empty pilot pattern")
    values = grid.pilot_pattern.values
    if np.any(np.abs(values) == 0):
        raise ValueError("zero-magnitude pilot")
    _, rx_pilots = rg_demap(rx_grid, grid)
    h_hat = rx_pilots / values
    err_var = no / np.abs(values) ** 2
    return h_hat, err_var


def nn_interpolate(h_pilots: np.ndarray, grid: ResourceGrid) -> np.ndarray:
    """Nearest-pilot channel estimate over the full effective grid.

    Distances are Euclidean in (symbol, subcarrier) index space; ties
    resolve to the pilot with the smaller symbol index, then the smaller
    subcarrier index.
    """
    cells = grid.pilot_cells
    if len(cells) == 0:
        raise ValueError("nn_interpolate requires at least one pilot")
    h_pilots = np.atleast_2d(np.asarray(h_pilots))
    sym = np.arange(grid.num_symbols)
    sub = np.arange(grid.num_effective_subcarriers)
    dsym = sym[:, None, None] - cells[None, None, :, 0]
    dsub = sub[None, :, None] - cells[None, None, :, 1]
    dist = dsym**2 + dsub**2  # [symbols, subcarriers, pilots]
    # Pilot cells are in row-major order, so the first minimum is the
    # lexicographically smallest pilot.
    nearest = np.argmin(dist, axis=-1)
    return h_pilots[:, nearest]
