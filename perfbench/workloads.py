"""The benchmark's workloads: one sweep config each, built from a seed.

The library receives only the config returned by :func:`config`; the
workload seed becomes the config's ``seed`` field and nothing else.

Why each workload is here
-------------------------
listing1
    The source paper's Listing 1 (``LISTING1_CONFIG`` in
    ``tests/test_acceptance.py``) and the ROADMAP headline: 5G LDPC
    (500,1000), sum-product BP with 20 iterations, 16-QAM max-log, AWGN,
    batch 1024, 1 worker.  LDPC decode is about 94% of layer time.  The
    low point runs all BP iterations and the high point stops early.  One
    batch per point at 3 and 7 dB keeps both regimes in about 35 s on 2
    cores; the full 3..7 dB grid costs about 80 s per sweep even at one
    batch per point, too long to repeat in every benchmark run.
polar-cascl
    polar5g k=512, n=1024, CRC-24A, SCL with L=8, QPSK APP, AWGN, batch
    256, 0..3 dB, 2 workers.  SCL is about 85% of the time, in a Python
    loop that holds the GIL.  It is the only workload where the sweep's
    thread pool and waves matter: 8 batches run and 7 are kept, because
    the 0 dB point reaches its target on the first batch of a wave.  No
    LDPC.
ofdm-tdl
    Convolutional K=7 (133/171 octal), k=2298, 64-QAM APP over a 3-tap
    TDL (100 Hz Doppler) with OFDM (fft 64, CP 6, LS pilots on symbols 2
    and 11), batch 128, 10/14/18 dB, 1 worker.  APP demapping is about
    79% of the time and Viterbi about 20%, with a 2.25 GB peak RSS.  It
    also runs the channel and OFDM layers.  No LDPC or polar.
mimo-ldpc
    5G LDPC (512,1024) min-sum with 20 iterations, 16-QAM APP, 4x4 flat
    Rayleigh with LMMSE, batch 256, 6/9 dB, 1 worker.  It uses LDPC
    differently from listing1 (the min-sum branch and a 4x smaller batch,
    which changes the cache picture), so a BP change tuned for batch 1024
    sum-product that costs this case shows here.  It also covers ``mimo``
    and ``channel.flat_fading``.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 42

_WORKLOADS = {
    "listing1": {
        "workers": 1,
        "config": {
            "code": {"family": "ldpc5g", "k": 500, "n": 1000,
                     "decoder": {"variant": "sum-product", "num_iter": 20}},
            "modulation": {"kind": "qam", "bits_per_symbol": 4,
                           "demapper": "maxlog"},
            "channel": {"kind": "awgn"},
            "sweep": {"ebno_db": [3.0, 7.0], "batch_size": 1024,
                      "target_block_errors": 100, "max_batches_per_point": 1},
            "precision": "single",
        },
    },
    "polar-cascl": {
        "workers": 2,
        "config": {
            "code": {"family": "polar5g", "k": 512, "n": 1024,
                     "decoder": {"type": "scl", "list_size": 8,
                                 "crc": "crc24a"}},
            "modulation": {"kind": "qam", "bits_per_symbol": 2,
                           "demapper": "app"},
            "channel": {"kind": "awgn"},
            "sweep": {"ebno_db": [0.0, 1.0, 2.0, 3.0], "batch_size": 256,
                      "target_block_errors": 100, "max_batches_per_point": 2},
        },
    },
    "ofdm-tdl": {
        "workers": 1,
        "config": {
            "code": {"family": "conv", "k": 2298, "constraint_length": 7,
                     "generators": [0o133, 0o171]},
            "modulation": {"kind": "qam", "bits_per_symbol": 6,
                           "demapper": "app"},
            "channel": {"kind": "tdl", "powers": [0.5, 0.3, 0.2],
                        "delays_s": [0.0, 1e-6, 3e-6], "doppler_hz": 100.0},
            "ofdm": {"enabled": True, "fft_size": 64,
                     "subcarrier_spacing": 15625.0, "num_symbols": 14,
                     "cp_length": 6, "pilots": {"symbol_indices": [2, 11]}},
            "sweep": {"ebno_db": [10.0, 14.0, 18.0], "batch_size": 128,
                      "target_block_errors": 100, "max_batches_per_point": 1},
        },
    },
    "mimo-ldpc": {
        "workers": 1,
        "config": {
            "code": {"family": "ldpc5g", "k": 512, "n": 1024,
                     "decoder": {"variant": "min-sum", "num_iter": 20}},
            "modulation": {"kind": "qam", "bits_per_symbol": 4,
                           "demapper": "app"},
            "channel": {"kind": "flat"},
            "mimo": {"enabled": True, "num_tx": 4, "num_rx": 4,
                     "equalizer": "lmmse"},
            "sweep": {"ebno_db": [6.0, 9.0], "batch_size": 256,
                      "target_block_errors": 100, "max_batches_per_point": 1},
        },
    },
}

NAMES = tuple(_WORKLOADS)


def config(name: str, seed: int, batch_size: int | None = None) -> dict:
    """Return a fresh raw sweep config for workload ``name`` at ``seed``.

    ``batch_size`` shrinks the batch for the harness smoke test only.
    """
    cfg = copy.deepcopy(_WORKLOADS[name]["config"])
    cfg["seed"] = seed
    if batch_size is not None:
        cfg["sweep"]["batch_size"] = batch_size
    return cfg


def workers(name: str) -> int:
    return _WORKLOADS[name]["workers"]
