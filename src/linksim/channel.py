"""Channel models: AWGN, spatially correlated flat fading, generic
time-variant tapped-delay-line fading, and channel application in the
time or frequency domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import RngStream


def complex_gaussian(shape, rng: RngStream, variance: float = 1.0,
                     dtype=np.complex128) -> np.ndarray:
    """Circularly-symmetric complex Gaussian draws, per-element variance."""
    g = rng.generator()
    scale = np.sqrt(variance / 2.0)
    # Real then imaginary parts, each drawn, scaled and rounded into the
    # output through one float64 buffer; a real dtype keeps the real part.
    z = np.empty(shape, dtype)
    part = np.empty(z.shape)
    for out in (z.real, z.imag) if z.dtype.kind == "c" else (z,):
        g.standard_normal(out=part)
        part *= scale
        out[...] = part
    return z


def awgn(x: np.ndarray, no: float, rng: RngStream) -> np.ndarray:
    """Add complex white Gaussian noise of per-element variance ``no``."""
    x = np.asarray(x)
    if no < 0:
        raise ValueError(f"noise variance must be >= 0, got {no}")
    if no == 0:
        return x.copy()
    # Adding x into the noise gives the bytes of x + noise (addition
    # commutes) without a second x-sized array.
    noise = complex_gaussian(x.shape, rng, variance=no, dtype=x.dtype)
    noise += x
    return noise


@dataclass
class CorrelationPair:
    """Transmit and receive antenna correlation (Hermitian PSD matrices)."""

    r_tx: np.ndarray
    r_rx: np.ndarray

    def __post_init__(self):
        self.r_tx = np.asarray(self.r_tx, dtype=np.complex128)
        self.r_rx = np.asarray(self.r_rx, dtype=np.complex128)
        for name, r in (("r_tx", self.r_tx), ("r_rx", self.r_rx)):
            if r.ndim != 2 or r.shape[0] != r.shape[1]:
                raise ValueError(f"{name} must be square")
            if not np.allclose(r, r.conj().T, atol=1e-9):
                raise ValueError(f"{name} must be Hermitian")
            if np.min(np.linalg.eigvalsh(r)) < -1e-9:
                raise ValueError(f"{name} must be positive semi-definite")

    @classmethod
    def identity(cls, num_tx: int, num_rx: int) -> "CorrelationPair":
        return cls(np.eye(num_tx), np.eye(num_rx))


def _psd_sqrt(r: np.ndarray) -> np.ndarray:
    # Hermitian square root with tiny negative eigenvalues clamped to zero.
    w, v = np.linalg.eigh(r)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def flat_fading(x: np.ndarray, corr: Optional[CorrelationPair], num_rx: int,
                rng: RngStream):
    """Correlated flat-fading MIMO channel y = H x.

    H = R_rx^{1/2} W R_tx^{1/2} with W i.i.d. unit complex Gaussian.  Noise
    is added separately via :func:`awgn`.

    Args:
        x: transmitted vectors [batch, num_tx].
        corr: antenna correlation, or None for i.i.d. fading.
        num_rx: number of receive antennas.
        rng: random stream for the fading realizations.

    Returns:
        (y, h): received vectors [batch, num_rx] and the channel draws
        [batch, num_rx, num_tx].
    """
    x = np.atleast_2d(np.asarray(x))
    batch, num_tx = x.shape
    dtype = x.dtype if np.iscomplexobj(x) else np.complex128
    # complex_gaussian rounds its float64 draws into the dtype it is given,
    # so a direct draw has the bytes of a complex128 draw cast down.  A
    # correlation is applied in complex128, then cast.
    h = complex_gaussian((batch, num_rx, num_tx), rng,
                         dtype=dtype if corr is None else np.complex128)
    if corr is not None:
        if corr.r_tx.shape[0] != num_tx or corr.r_rx.shape[0] != num_rx:
            raise ValueError("correlation dimensions do not match antennas")
        h = (_psd_sqrt(corr.r_rx) @ h @ _psd_sqrt(corr.r_tx)).astype(dtype, copy=False)
    y = np.einsum("brt,bt->br", h, x)
    return y, h


def _check_delays(delays: np.ndarray) -> None:
    if np.any(delays < 0) or np.any(np.diff(delays) < 0):
        raise ValueError("delays must be non-negative and non-decreasing")


@np.errstate(over="ignore", invalid="ignore")  # a count that overflows is off the grid
def delay_samples(delays, sampling_rate: float) -> np.ndarray:
    """Tap delays in seconds as whole sample counts at ``sampling_rate``,
    kept float64 so that a count beyond the int64 range keeps its size.
    Raises ValueError unless the delays are non-negative, non-decreasing
    and each within 1e-6 samples of the sample grid.
    """
    delays = np.asarray(delays, dtype=np.float64)
    _check_delays(delays)
    d = delays * sampling_rate
    whole = np.round(d)
    if not np.all(np.abs(d - whole) <= 1e-6):
        raise ValueError("delays must lie on the sample grid")
    return whole


@dataclass
class TdlProfile:
    """Tapped-delay-line power profile with classical Doppler fading."""

    powers: np.ndarray
    delays: np.ndarray  # seconds
    doppler_hz: float = 0.0

    def __post_init__(self):
        self.powers = np.asarray(self.powers, dtype=np.float64)
        self.delays = np.asarray(self.delays, dtype=np.float64)
        if self.powers.size == 0:
            raise ValueError("profile must have at least one tap")
        if self.powers.shape != self.delays.shape:
            raise ValueError("powers and delays must have equal length")
        if np.any(self.powers <= 0):
            raise ValueError("tap powers must be positive")
        if abs(self.powers.sum() - 1.0) > 1e-9:
            raise ValueError("tap powers must sum to 1")
        _check_delays(self.delays)


@dataclass
class Cir:
    """Sampled channel impulse response: per-tap gains over time steps."""

    gains: np.ndarray  # [batch, num_taps, num_time_steps]
    delays: np.ndarray  # [num_taps], seconds
    sampling_rate: float  # Hz

    def __post_init__(self):
        self.gains = np.asarray(self.gains)
        self.delays = np.asarray(self.delays, dtype=np.float64)
        if self.gains.ndim != 3:
            raise ValueError("gains must have shape [batch, taps, time]")
        if self.gains.shape[1] != self.delays.shape[0]:
            raise ValueError("tap count mismatch between gains and delays")
        if self.gains.shape[2] < 1:
            raise ValueError("need at least one time step")
        _check_delays(self.delays)


TDL_NUM_SINUSOIDS = 32


def generate_tdl_cir(profile: TdlProfile, batch: int, num_time_steps: int,
                     time_step: float, sampling_rate: float,
                     rng: RngStream) -> Cir:
    """Draw a time-variant TDL realization by the sum-of-sinusoids method.

    Each tap is a Rayleigh process of power p_l summed from
    ``TDL_NUM_SINUSOIDS`` (32) sinusoids; its time autocorrelation
    approaches ``p_l * J0(2 pi f_D dt)`` as the number of sinusoids grows.
    """
    if time_step <= 0:
        raise ValueError("time_step must be > 0")
    g = rng.generator()
    num_taps = len(profile.powers)
    ns = TDL_NUM_SINUSOIDS
    # Random arrival angles and phases per (row, tap, sinusoid).
    theta = g.uniform(0.0, 2.0 * np.pi, size=(batch, num_taps, ns))
    phi = g.uniform(0.0, 2.0 * np.pi, size=(batch, num_taps, ns))
    t = np.arange(num_time_steps) * time_step
    arg = (
        2.0 * np.pi * profile.doppler_hz
        * np.cos(theta)[..., None] * t[None, None, None, :]
        + phi[..., None]
    )
    gains = np.exp(1j * arg).sum(axis=2) / np.sqrt(ns)
    gains = gains * np.sqrt(profile.powers)[None, :, None]
    return Cir(gains=gains, delays=profile.delays, sampling_rate=sampling_rate)


def apply_time_domain(x: np.ndarray, cir: Cir) -> np.ndarray:
    """Convolve with a sampled CIR whose delays lie on the sample grid.

    Tap gains are held constant within each time step; the steps must
    evenly cover the input samples.  Output uses zero pre-padding, i.e.
    y[n] = sum_l a_l(n) x[n - d_l].
    """
    x = np.atleast_2d(np.asarray(x))
    batch, num_samples = x.shape
    steps = cir.gains.shape[2]
    if num_samples % steps != 0:
        raise ValueError(
            f"{num_samples} samples not divisible into {steps} cir time steps"
        )
    delays = delay_samples(cir.delays, cir.sampling_rate)
    per_step = num_samples // steps
    y = np.zeros((batch, num_samples), dtype=np.result_type(x.dtype, np.complex64))
    for l, delay in enumerate(delays):
        if delay >= num_samples:
            continue
        delay = int(delay)
        gain = np.repeat(cir.gains[:, l, :], per_step, axis=1)
        y[:, delay:] += gain[:, delay:] * x[:, : num_samples - delay]
    return y


def cir_to_ofdm_channel(cir: Cir, fft_size: int, subcarrier_spacing: float) -> np.ndarray:
    """Per-subcarrier frequency response, one OFDM symbol per time step.

    H[s, k] = sum_l a_l(s) exp(-2j pi k df tau_l) with k in natural DFT
    bin order (DC first).
    """
    k = np.arange(fft_size)
    phase = np.exp(-2j * np.pi * np.outer(cir.delays, k * subcarrier_spacing))
    # [batch, taps, steps] x [taps, fft] -> [batch, steps, fft]
    return np.einsum("bls,lk->bsk", cir.gains, phase)
