"""linksim: batch-parallel link-level physical-layer simulations.

Pure numpy building blocks — bit sources, QAM/PSK mapping, LDPC,
polar and convolutional codes, fading channels, OFDM and MIMO
processing — plus a deterministic Monte Carlo sweep engine with a
small CLI.  Every block operates on arrays whose leading axis is the
batch of independent trials; all randomness flows through counter-based
:class:`RngStream` objects so results do not depend on worker count.
"""

from .alist import AlistParseError, ParityCheckMatrix, parse_alist, to_alist
from .channel import (Cir, CorrelationPair, TdlProfile, apply_time_domain,
                      awgn, cir_to_ofdm_channel, complex_gaussian,
                      flat_fading, generate_tdl_cir)
from .convcode import ConvCode, conv_encode, viterbi_decode
from .core import (LLR_MAX, RngStream, binary_source, compute_ber,
                   compute_bler, count_errors, ebnodb2no, hard_decide)
from .ldpc import (LdpcCode5G, bp_decode, exit_mutual_information,
                   ldpc5g_decode, ldpc5g_encode)
from .mapping import Constellation, demap_app, demap_maxlog, map_bits
from .mimo import lmmse_equalize, zf_precode
from .ofdm import (PilotPattern, ResourceGrid, ls_estimate, nn_interpolate,
                   ofdm_demodulate, ofdm_modulate, rg_demap, rg_map)
from .polar import (CRC_POLYNOMIALS, CrcPolynomial, PolarCode, crc_attach,
                    crc_check, polar5g_construct, polar_encode,
                    polar_sc_decode, polar_scl_decode, polar_transform,
                    rm_construct)
from .sweep import (ConfigError, SimConfig, SweepResult, read_csv, run_sweep,
                    write_csv)

__version__ = "0.1.0"


def feature_summary() -> list:
    """One line per major capability, for the CLI ``info`` command."""
    return [
        "sources: seeded binary source, counter-based RNG streams",
        "mapping: Gray-labeled QAM/PSK, exact APP and max-log demappers",
        "fec: 5G-style QC-LDPC (BP), polar (SC/SCL/CA-SCL), convolutional (Viterbi), CRC",
        "channels: AWGN, correlated flat fading, tapped-delay-line fading",
        "ofdm: resource grids, pilots, LS estimation, nearest-neighbor interpolation",
        "mimo: zero-forcing precoding, LMMSE equalization",
        "sweeps: deterministic multi-worker Monte Carlo with early stopping, CSV output",
    ]


__all__ = [
    "AlistParseError", "ParityCheckMatrix", "parse_alist", "to_alist",
    "Cir", "CorrelationPair", "TdlProfile", "apply_time_domain", "awgn",
    "cir_to_ofdm_channel", "complex_gaussian", "flat_fading",
    "generate_tdl_cir",
    "ConvCode", "conv_encode", "viterbi_decode",
    "LLR_MAX", "RngStream", "binary_source", "compute_ber", "compute_bler",
    "count_errors", "ebnodb2no", "hard_decide",
    "LdpcCode5G", "bp_decode", "exit_mutual_information", "ldpc5g_decode",
    "ldpc5g_encode",
    "Constellation", "demap_app", "demap_maxlog", "map_bits",
    "lmmse_equalize", "zf_precode",
    "PilotPattern", "ResourceGrid", "ls_estimate", "nn_interpolate",
    "ofdm_demodulate", "ofdm_modulate", "rg_demap", "rg_map",
    "CRC_POLYNOMIALS", "CrcPolynomial", "PolarCode", "crc_attach",
    "crc_check", "polar5g_construct", "polar_encode", "polar_sc_decode",
    "polar_scl_decode", "polar_transform", "rm_construct",
    "ConfigError", "SimConfig", "SweepResult", "read_csv", "run_sweep",
    "write_csv",
    "__version__", "feature_summary",
]
