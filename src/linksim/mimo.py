"""MIMO processing: zero-forcing precoding and LMMSE equalization."""

from __future__ import annotations

import numpy as np

from .core import tile_rows

MAX_CONDITION = 1e8


def zf_precode(x: np.ndarray, h: np.ndarray):
    """Zero-forcing precoding with unit-norm precoder columns.

    P = H^H (H H^H)^{-1} with each column scaled to unit norm, so the
    effective channel H P is diagonal with positive real gains and no
    inter-stream interference.

    Args:
        x: stream symbols [batch, num_streams].
        h: channel to the receivers [batch, num_streams, num_tx].

    Returns:
        (x_precoded, g_eff): transmit vectors [batch, num_tx] and the
        per-stream effective diagonal gains [batch, num_streams].
    """
    x = np.atleast_2d(np.asarray(x))
    h = np.asarray(h)
    if h.ndim != 3 or h.shape[0] != x.shape[0] or h.shape[1] != x.shape[1]:
        raise ValueError(f"channel shape {h.shape} does not match x {x.shape}")
    gram = h @ h.conj().swapaxes(-1, -2)
    cond = np.linalg.cond(gram)
    if np.any(~np.isfinite(cond)) or np.any(cond > MAX_CONDITION):
        worst = float(np.max(cond))
        raise np.linalg.LinAlgError(
            f"H H^H too ill-conditioned for ZF precoding (cond={worst:.3e})"
        )
    p = h.conj().swapaxes(-1, -2) @ np.linalg.inv(gram)
    norms = np.linalg.norm(p, axis=1, keepdims=True)  # per column
    p = p / norms
    g_eff = 1.0 / norms[:, 0, :]
    x_precoded = np.einsum("bts,bs->bt", p, x)
    return x_precoded, g_eff


def lmmse_equalize(y: np.ndarray, h: np.ndarray, no: float):
    """Unbiased LMMSE equalization with per-stream noise variances.

    W = (H^H H + no I)^{-1} H^H; each output is scaled by 1/mu_i with
    mu_i = [W H]_ii so that x_hat is unbiased, and no_eff_i = 1/mu_i - 1
    is the post-equalization error variance to hand to the demapper
    (residual interference treated as Gaussian).

    Args:
        y: received vectors [batch, num_rx].
        h: channel [batch, num_rx, num_streams].
        no: noise variance per receive antenna.

    Returns:
        (x_hat, no_eff), both [batch, num_streams].
    """
    y = np.atleast_2d(np.asarray(y))
    h = np.asarray(h)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(h))):
        raise ValueError("non-finite inputs")
    if no <= 0:
        raise ValueError("noise variance must be > 0")
    num_streams = h.shape[-1]
    # no * I is float64, so the solve runs in complex128 (float64 for a
    # real channel) whatever the input precision.
    dtype = np.result_type(h, np.float64)
    x_hat = np.empty((len(y), num_streams), np.result_type(dtype, y))
    no_eff = np.empty((len(y), num_streams), np.finfo(dtype).dtype)
    # Channel uses in tiles, so the [uses, streams, rx] temporaries stay
    # small; each use is solved on its own, so tiling changes no value.
    rows = tile_rows(np.dtype(dtype).itemsize * h.shape[1] * num_streams)
    for lo in range(0, len(y), rows):
        tile = slice(lo, lo + rows)
        hh = h[tile].conj().swapaxes(-1, -2)
        a = hh @ h[tile] + no * np.eye(num_streams)
        # Hermitian positive-definite solve; avoids forming the inverse.
        w_h = np.linalg.solve(a, hh)
        z = np.einsum("bsr,br->bs", w_h, y[tile])
        mu = np.real(np.einsum("bsr,brs->bs", w_h, h[tile]))
        # Below 1, so no_eff stays positive where mu rounds to 1: a noise
        # variance far below the channel gain.  Every mu < 1 is kept.
        mu = np.clip(mu, 1e-300, np.nextafter(1.0, 0.0))
        np.divide(z, mu, out=x_hat[tile])
        np.subtract(1.0 / mu, 1.0, out=no_eff[tile])
    return x_hat, no_eff
