"""Monte Carlo BER/BLER sweep engine with early stopping.

A declarative JSON config describes the pipeline (code, constellation,
channel, optional OFDM/MIMO stages) and the Eb/N0 sweep.  Random streams
are keyed by (seed, snr_index, batch_index) — never by worker id — so a
sweep is bit-identical for any worker count.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import channel as ch
from . import mimo as mimo_mod
from . import ofdm as ofdm_mod
from .convcode import ConvCode, conv_encode, viterbi_decode
from .core import RngStream, binary_source, count_errors, ebnodb2no, hard_decide
from .ldpc import BP_VARIANTS, LdpcCode5G, ldpc5g_decode, ldpc5g_encode
from .mapping import Constellation, demap_app, demap_maxlog, map_bits
from .polar import (CRC_POLYNOMIALS, crc_attach, polar5g_construct,
                    polar_encode, polar_sc_decode, polar_scl_decode)

CSV_COLUMNS = ("ebno_db", "bits", "bit_errors", "ber", "blocks",
               "block_errors", "bler", "batches", "stop_reason", "elapsed_s")

DEFAULT_TARGET_BLOCK_ERRORS = 100
DEFAULT_MAX_BATCHES = 1000
DEFAULT_BP_ITER = 20
# 1024-QAM, the largest modulation order of 5G NR.
MAX_BITS_PER_SYMBOL = 10


class ConfigError(ValueError):
    """Invalid simulation config; names the offending field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.field = fieldname


def _check_int(value, fieldname: str, low=None, high=None):
    """Return ``value`` if it is an int (not a bool) within [low, high]."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (low is not None and value < low)
            or (high is not None and value > high)):
        bound = (f" in {low}..{high}" if high is not None
                 else f" >= {low}" if low is not None else "")
        raise ConfigError(fieldname,
                          f"must be an integer{bound}, got {value!r}")
    return value


def _get(d: dict, fieldname: str, default=None, required: bool = False):
    if required and fieldname.split(".")[-1] not in d:
        raise ConfigError(fieldname, "missing required field")
    return d.get(fieldname.split(".")[-1], default)


@dataclass
class SimConfig:
    """Validated sweep configuration (see :func:`SimConfig.from_dict`)."""

    code: dict
    modulation: dict
    channel: dict
    ofdm: dict
    mimo: dict
    snr_points: list
    batch_size: int
    target_block_errors: int
    max_batches_per_point: int
    seed: int
    precision: str

    @classmethod
    def from_dict(cls, raw: dict) -> "SimConfig":
        if not isinstance(raw, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        code = dict(_get(raw, "code", {"family": "none", "k": 100}))
        family = _get(code, "code.family", required=True)
        if family not in ("none", "ldpc5g", "polar5g", "conv"):
            raise ConfigError("code.family", f"unknown family {family!r}")
        k = _get(code, "code.k", required=True)
        if not isinstance(k, int) or k < 1:
            raise ConfigError("code.k", "must be a positive integer")
        if family != "none":
            n = _get(code, "code.n", required=(family != "conv"))
            if family != "conv" and (not isinstance(n, int) or n <= k):
                raise ConfigError("code.n", "must be an integer > k")
        if family == "ldpc5g":
            _check_int(code.get("decoder", {}).get("num_iter", DEFAULT_BP_ITER),
                       "code.decoder.num_iter", low=1)

        modulation = dict(_get(raw, "modulation", {"kind": "qam", "bits_per_symbol": 2}))
        kind = modulation.get("kind", "qam")
        if kind not in ("qam", "psk"):
            raise ConfigError("modulation.kind", f"unknown kind {kind!r}")
        m = _check_int(modulation.get("bits_per_symbol"),
                       "modulation.bits_per_symbol", low=1,
                       high=MAX_BITS_PER_SYMBOL)
        if kind == "qam" and m % 2:
            raise ConfigError("modulation.bits_per_symbol", "qam needs an even value")

        chan = dict(_get(raw, "channel", {"kind": "awgn"}))
        if chan.get("kind", "awgn") not in ("awgn", "flat", "tdl"):
            raise ConfigError("channel.kind", f"unknown kind {chan.get('kind')!r}")

        ofdm_cfg = dict(_get(raw, "ofdm", {"enabled": False}))
        mimo_cfg = dict(_get(raw, "mimo", {"enabled": False}))
        if chan["kind"] == "tdl" and not ofdm_cfg.get("enabled"):
            raise ConfigError("channel.kind", "tdl channel requires ofdm.enabled")
        if chan["kind"] == "flat" and not mimo_cfg.get("enabled"):
            raise ConfigError("channel.kind", "flat channel requires mimo.enabled")

        sweep = dict(_get(raw, "sweep", required=True))
        points = _get(sweep, "sweep.ebno_db", required=True)
        if (not isinstance(points, list) or not points
                or any(not isinstance(p, (int, float)) for p in points)):
            raise ConfigError("sweep.ebno_db", "must be a non-empty list of numbers")
        if any(b <= a for a, b in zip(points, points[1:])):
            raise ConfigError("sweep.ebno_db", "must be strictly increasing")
        batch_size = sweep.get("batch_size", 256)
        if not isinstance(batch_size, int) or batch_size < 1:
            raise ConfigError("sweep.batch_size", "must be a positive integer")

        precision = raw.get("precision", "single")
        if precision not in ("single", "double"):
            raise ConfigError("precision", f"must be 'single' or 'double'")

        cfg = cls(
            code=code,
            modulation=modulation,
            channel=chan,
            ofdm=ofdm_cfg,
            mimo=mimo_cfg,
            snr_points=[float(p) for p in points],
            batch_size=batch_size,
            target_block_errors=_check_int(
                sweep.get("target_block_errors", DEFAULT_TARGET_BLOCK_ERRORS),
                "sweep.target_block_errors", low=1),
            max_batches_per_point=sweep.get("max_batches_per_point",
                                            DEFAULT_MAX_BATCHES),
            seed=_check_int(raw.get("seed", 0), "seed"),
            precision=precision,
        )
        # Constructing the pipeline performs the remaining cross checks.
        build_pipeline(cfg)
        return cfg


@dataclass
class SnrPointResult:
    ebno_db: float
    bits: int
    bit_errors: int
    blocks: int
    block_errors: int
    batches: int
    stop_reason: str
    elapsed_s: float

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits if self.bits else 0.0

    @property
    def bler(self) -> float:
        return self.block_errors / self.blocks if self.blocks else 0.0


@dataclass
class SweepResult:
    config: SimConfig
    points: list = field(default_factory=list)


class Pipeline:
    """End-to-end transmit/channel/receive chain for one config."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.cdtype = np.complex64 if cfg.precision == "single" else np.complex128

        mod = cfg.modulation
        self.constellation = Constellation(mod.get("kind", "qam"),
                                           mod["bits_per_symbol"])
        self.m = mod["bits_per_symbol"]
        demapper = mod.get("demapper", "app")
        if demapper not in ("app", "maxlog"):
            raise ConfigError("modulation.demapper", f"unknown demapper {demapper!r}")
        self.demap = demap_app if demapper == "app" else demap_maxlog

        code = cfg.code
        self.family = code["family"]
        dec = dict(code.get("decoder", {}))
        if self.family == "none":
            self.payload_bits = code["k"]
            self.coded_bits = code["k"]
            self.coderate = 1.0
        elif self.family == "ldpc5g":
            self.ldpc = LdpcCode5G(code["k"], code["n"])
            variant = dec.get("variant", "sum-product")
            if variant not in BP_VARIANTS:
                raise ConfigError("code.decoder.variant", f"unknown variant {variant!r}")
            self.bp_variant = variant
            self.bp_iter = dec.get("num_iter", DEFAULT_BP_ITER)
            self.payload_bits = code["k"]
            self.coded_bits = code["n"]
            self.coderate = code["k"] / code["n"]
        elif self.family == "polar5g":
            crc_name = dec.get("crc")
            if crc_name and crc_name not in CRC_POLYNOMIALS:
                raise ConfigError("code.decoder.crc", f"unknown crc {crc_name!r}")
            self.crc = CRC_POLYNOMIALS[crc_name] if crc_name else None
            try:
                self.polar = polar5g_construct(code["k"], code["n"], crc=self.crc)
            except ValueError as exc:
                raise ConfigError("code.n", str(exc)) from None
            self.decoder_type = dec.get("type", "scl")
            if self.decoder_type not in ("sc", "scl"):
                raise ConfigError("code.decoder.type",
                                  f"unknown decoder {self.decoder_type!r}")
            self.list_size = dec.get("list_size", 8)
            crc_deg = self.crc.degree if self.crc else 0
            if code["k"] <= crc_deg:
                raise ConfigError("code.k", "k must exceed the CRC degree")
            self.payload_bits = code["k"] - crc_deg
            self.coded_bits = code["n"]
            self.coderate = self.payload_bits / code["n"]
        elif self.family == "conv":
            self.conv = ConvCode(
                constraint_length=code.get("constraint_length", 3),
                generators=tuple(code.get("generators", [0o5, 0o7])),
            )
            self.payload_bits = code["k"]
            self.coded_bits = self.conv.num_outputs * (code["k"] + self.conv.tail_bits)
            self.coderate = code["k"] / self.coded_bits

        if self.coded_bits % self.m:
            raise ConfigError(
                "modulation.bits_per_symbol",
                f"coded block of {self.coded_bits} bits is not divisible by "
                f"{self.m} bits/symbol",
            )
        self.num_symbols = self.coded_bits // self.m

        self.channel_kind = cfg.channel.get("kind", "awgn")
        if self.channel_kind == "flat":
            self._init_mimo(cfg)
        elif self.channel_kind == "tdl":
            self._init_ofdm_tdl(cfg)

    def _init_mimo(self, cfg: SimConfig):
        mimo_cfg = cfg.mimo
        self.num_tx = mimo_cfg.get("num_tx", 2)
        self.num_rx = mimo_cfg.get("num_rx", 2)
        self.precoder = mimo_cfg.get("precoder")
        self.equalizer = mimo_cfg.get("equalizer", "lmmse")
        if self.precoder not in (None, "zf"):
            raise ConfigError("mimo.precoder", f"unknown precoder {self.precoder!r}")
        if self.equalizer != "lmmse":
            raise ConfigError("mimo.equalizer", f"unknown equalizer {self.equalizer!r}")
        self.num_streams = min(self.num_tx, self.num_rx)
        if self.num_symbols % self.num_streams:
            raise ConfigError(
                "mimo.num_tx",
                f"{self.num_symbols} symbols not divisible into "
                f"{self.num_streams} streams",
            )
        corr = cfg.channel.get("correlation")
        if corr is not None:
            self.correlation = ch.CorrelationPair(
                np.asarray(corr["r_tx"]), np.asarray(corr["r_rx"])
            )
        else:
            self.correlation = None

    def _init_ofdm_tdl(self, cfg: SimConfig):
        o = cfg.ofdm
        pilots = o.get("pilots")
        pattern = None
        grid_kwargs = dict(
            fft_size=_get(o, "ofdm.fft_size", required=True),
            num_symbols=o.get("num_symbols", 14),
            cp_length=o.get("cp_length", 0),
            subcarrier_spacing=o.get("subcarrier_spacing", 15e3),
            guard_left=o.get("guard_left", 0),
            guard_right=o.get("guard_right", 0),
            dc_null=o.get("dc_null", False),
        )
        probe = ofdm_mod.ResourceGrid(**grid_kwargs)
        if pilots:
            pattern = ofdm_mod.PilotPattern.regular(
                num_symbols=grid_kwargs["num_symbols"],
                num_subcarriers=probe.num_effective_subcarriers,
                pilot_symbols=pilots.get("symbol_indices", [0]),
                subcarrier_step=pilots.get("subcarrier_step", 1),
                seed=pilots.get("seed", 0),
            )
        try:
            self.grid = ofdm_mod.ResourceGrid(pilot_pattern=pattern, **grid_kwargs)
        except ValueError as exc:
            raise ConfigError("ofdm", str(exc)) from None
        if self.grid.num_data_cells != self.num_symbols:
            raise ConfigError(
                "ofdm.fft_size",
                f"grid has {self.grid.num_data_cells} data cells but the coded "
                f"block maps to {self.num_symbols} symbols",
            )
        t = cfg.channel
        powers = t.get("powers", [1.0])
        delays = t.get("delays_s", [0.0])
        self.tdl = ch.TdlProfile(
            powers=np.asarray(powers, dtype=float),
            delays=np.asarray(delays, dtype=float),
            doppler_hz=t.get("doppler_hz", 0.0),
        )
        fs = self.grid.bandwidth
        d = self.tdl.delays * fs
        if np.any(np.abs(d - np.round(d)) > 1e-6):
            raise ConfigError("channel.delays_s",
                              "delays must lie on the sample grid")
        max_delay = int(np.round(d.max()))
        if max_delay > self.grid.cp_length:
            raise ConfigError("ofdm.cp_length",
                              "cyclic prefix shorter than the delay spread")
        if pattern is None or pattern.num_pilots == 0:
            raise ConfigError("ofdm.pilots",
                              "tdl channel needs pilots for channel estimation")

    # -- per-batch simulation ------------------------------------------------

    def encode(self, payload: np.ndarray) -> np.ndarray:
        if self.family == "none":
            return payload
        if self.family == "ldpc5g":
            return ldpc5g_encode(payload, self.ldpc)
        if self.family == "polar5g":
            frame = crc_attach(payload, self.crc) if self.crc else payload
            return polar_encode(frame, self.polar)
        return conv_encode(payload, self.conv)

    def decode(self, llr: np.ndarray) -> np.ndarray:
        if self.family == "none":
            return hard_decide(llr)
        if self.family == "ldpc5g":
            return ldpc5g_decode(llr, self.ldpc, num_iter=self.bp_iter,
                                 variant=self.bp_variant)
        if self.family == "polar5g":
            if self.decoder_type == "sc":
                bits = polar_sc_decode(llr, self.polar)
            else:
                bits = polar_scl_decode(llr, self.polar,
                                        list_size=self.list_size,
                                        use_crc=self.crc is not None)
            return bits[:, : self.payload_bits]
        return viterbi_decode(llr, self.conv)

    def run_batch(self, ebno_db: float, batch_size: int, rng: RngStream):
        """Simulate one batch; returns (payload, decoded) bit arrays."""
        no = ebnodb2no(ebno_db, self.m, self.coderate)
        payload = binary_source([batch_size, self.payload_bits], rng.child(0))
        coded = self.encode(payload)
        x = map_bits(coded, self.constellation).astype(self.cdtype)

        if self.channel_kind == "awgn":
            y = ch.awgn(x, no, rng.child(2))
            llr = self.demap(y, no, self.constellation)
        elif self.channel_kind == "flat":
            llr = self._run_flat(x, no, rng)
        else:
            llr = self._run_tdl(x, no, rng, batch_size)

        ldtype = np.float32 if self.cfg.precision == "single" else np.float64
        decoded = self.decode(np.asarray(llr, dtype=ldtype))
        return payload, decoded

    def _run_flat(self, x: np.ndarray, no: float, rng: RngStream):
        s = self.num_streams
        uses = x.reshape(-1, s)  # batch and channel uses flattened
        _, h = ch.flat_fading(uses, self.correlation, self.num_rx, rng.child(1))
        if self.precoder == "zf":
            xp, g_eff = mimo_mod.zf_precode(uses, h[:, :s, :])
            y = np.einsum("brt,bt->br", h[:, :s, :], xp)
            y = ch.awgn(y, no, rng.child(2))
            x_hat = y / g_eff
            no_eff = no / g_eff**2
        else:
            y = np.einsum("brt,bt->br", h, uses)
            y = ch.awgn(y, no, rng.child(2))
            x_hat, no_eff = mimo_mod.lmmse_equalize(y, h, no)
        llr = self.demap(x_hat.reshape(x.shape[0], -1),
                         no_eff.reshape(x.shape[0], -1),
                         self.constellation)
        return llr

    def _run_tdl(self, x: np.ndarray, no: float, rng: RngStream, batch_size: int):
        grid = self.grid
        grid_tx = ofdm_mod.rg_map(x, grid)
        samples = ofdm_mod.ofdm_modulate(grid_tx, grid.cp_length)
        cir = ch.generate_tdl_cir(
            self.tdl, batch_size, grid.num_symbols,
            time_step=grid.samples_per_symbol / grid.bandwidth,
            sampling_rate=grid.bandwidth, rng=rng.child(1),
        )
        y = ch.apply_time_domain(samples, cir)
        y = ch.awgn(y, no, rng.child(2))
        grid_rx = ofdm_mod.ofdm_demodulate(y, grid.fft_size, grid.cp_length,
                                           grid.num_symbols)
        h_pilots, _ = ofdm_mod.ls_estimate(grid_rx, grid, no)
        h_full = ofdm_mod.nn_interpolate(h_pilots, grid)
        data, _ = ofdm_mod.rg_demap(grid_rx, grid)
        h_data = h_full[:, ~grid.pilot_pattern.mask]
        x_hat = data / h_data
        no_eff = no / np.abs(h_data) ** 2
        return self.demap(x_hat, no_eff, self.constellation)


def build_pipeline(cfg: SimConfig) -> Pipeline:
    return Pipeline(cfg)


def run_sweep(cfg: SimConfig, num_workers: int = 1) -> SweepResult:
    """Run the configured Eb/N0 sweep.

    Each SNR point simulates batches until ``target_block_errors`` is
    reached or ``max_batches_per_point`` is exhausted.  After two
    consecutive zero-error points, the remaining (higher) points are
    skipped and marked "early-exit".  Results are deterministic in
    (config, seed) regardless of ``num_workers``.
    """
    pipeline = build_pipeline(cfg)
    result = SweepResult(config=cfg)
    num_workers = max(1, int(num_workers))
    consecutive_zero = 0

    with concurrent.futures.ThreadPoolExecutor(max_workers=num_workers) as pool:
        for snr_idx, ebno_db in enumerate(cfg.snr_points):
            start = time.perf_counter()
            if consecutive_zero >= 2:
                result.points.append(SnrPointResult(
                    ebno_db=ebno_db, bits=0, bit_errors=0, blocks=0,
                    block_errors=0, batches=0, stop_reason="early-exit",
                    elapsed_s=0.0))
                continue

            counts = []  # (bit_errors, block_errors) per batch, in order
            stop_reason = "max-batches"
            next_batch = 0
            while next_batch < cfg.max_batches_per_point:
                wave = range(next_batch,
                             min(next_batch + num_workers,
                                 cfg.max_batches_per_point))
                streams = [
                    RngStream(cfg.seed, ((snr_idx + 1) << 32) | (b + 1))
                    for b in wave
                ]
                futures = [
                    pool.submit(pipeline.run_batch, ebno_db, cfg.batch_size, s)
                    for s in streams
                ]
                for fut in futures:
                    payload, decoded = fut.result()
                    counts.append(count_errors(payload, decoded))
                next_batch = wave.stop
                # Deterministic stopping: find the first batch index at
                # which the cumulative block errors reach the target.
                cum = 0
                for i, (_, blk) in enumerate(counts):
                    cum += blk
                    if cum >= cfg.target_block_errors:
                        counts = counts[: i + 1]
                        stop_reason = "target-errors"
                        break
                if stop_reason == "target-errors":
                    break

            bit_errors = sum(c[0] for c in counts)
            block_errors = sum(c[1] for c in counts)
            blocks = len(counts) * cfg.batch_size
            bits = blocks * pipeline.payload_bits
            consecutive_zero = consecutive_zero + 1 if block_errors == 0 else 0
            result.points.append(SnrPointResult(
                ebno_db=ebno_db, bits=bits, bit_errors=bit_errors,
                blocks=blocks, block_errors=block_errors,
                batches=len(counts), stop_reason=stop_reason,
                elapsed_s=time.perf_counter() - start))
    return result


def format_csv(result: SweepResult) -> str:
    """Render a sweep result as CSV with a locale-independent '.' decimal."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for p in result.points:
        writer.writerow([
            repr(p.ebno_db), p.bits, p.bit_errors, repr(p.ber),
            p.blocks, p.block_errors, repr(p.bler),
            p.batches, p.stop_reason, repr(p.elapsed_s),
        ])
    return buf.getvalue()


def write_csv(result: SweepResult, path) -> None:
    """Write the sweep result CSV to ``path``."""
    text = format_csv(result)
    try:
        with open(path, "w", encoding="ascii", newline="") as f:
            f.write(text)
    except OSError as exc:
        raise IOError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path) -> list:
    """Re-parse a sweep CSV into a list of dicts (numbers converted)."""
    out = []
    with open(path, "r", encoding="ascii", newline="") as f:
        reader = csv.DictReader(f)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV columns: {reader.fieldnames}")
        for row in reader:
            parsed = {}
            for key, value in row.items():
                if key in ("stop_reason",):
                    parsed[key] = value
                elif key in ("ebno_db", "ber", "bler", "elapsed_s"):
                    parsed[key] = float(value)
                else:
                    parsed[key] = int(value)
            out.append(parsed)
    return out
