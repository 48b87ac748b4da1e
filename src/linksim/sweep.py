"""Monte Carlo BER/BLER sweep engine with early stopping.

A declarative JSON config describes the pipeline (code, constellation,
channel, optional OFDM/MIMO stages) and the Eb/N0 sweep.  Each field is
read once, where it is used, through a checked reader that applies the
field's default, type and range or choice set and raises
:class:`ConfigError` naming the field; a key that nothing reads is
rejected.  :meth:`SimConfig.from_dict` reads the sweep-level fields and
builds a :class:`Pipeline`, which reads the rest; ``CODECS`` maps each
``code.family`` to the builder of its encoder and decoder, and ``CHANNELS``
maps each ``channel.kind`` to the stage section it needs and the builder of
its per-batch channel step.  Random streams
are keyed by (seed, snr_index, batch_index) — never by thread — so a
sweep is bit-identical for any worker count and any CPU count.
"""

from __future__ import annotations

import csv
import difflib
import io
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import channel as ch
from . import mimo as mimo_mod
from . import ofdm as ofdm_mod
from .convcode import ConvCode, conv_encode, viterbi_decode
from .core import RngStream, binary_source, count_errors, ebnodb2no, hard_decide, map_tiles
from .ldpc import BP_VARIANTS, LdpcCode5G, ldpc5g_decode, ldpc5g_encode
from .mapping import Constellation, demap_app, demap_maxlog, map_bits
from .polar import (CRC_POLYNOMIALS, crc_attach, polar5g_construct,
                    polar_encode, polar_sc_decode, polar_scl_decode)

# CSV column -> type; float columns are written with repr, so they read
# back exactly.
_CSV_TYPES = {"ebno_db": float, "bits": int, "bit_errors": int, "ber": float,
              "blocks": int, "block_errors": int, "bler": float, "batches": int,
              "stop_reason": str, "elapsed_s": float}
CSV_COLUMNS = tuple(_CSV_TYPES)

_REQUIRED = object()
# Type of a field -> how an error names it, and its plural for list entries.
_KINDS = {int: ("an integer", "integers"), float: ("a finite number", "finite numbers"),
          bool: ("true or false", None), dict: ("a JSON object", None),
          list: ("a list", None)}


class ConfigError(ValueError):
    """Invalid simulation config; names the offending field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.field = fieldname


def _is(value, kind) -> bool:
    if kind is float:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


class _Fields:
    """Checked reads of one JSON object of a config, recording the keys read.

    ``fields(key, default, kind, low, high, item)`` returns the value of
    ``key``, or ``default`` when it is absent (no default: required).
    ``kind`` is a type from ``_KINDS`` (``float`` is any finite number, and
    a bool is no number) or a collection of allowed values.  With ``item``
    the value is a non-empty list of ``item``-typed entries.  ``low`` and
    ``high`` bound the number, or each entry.
    Sections opened with :meth:`section` share one record, keyed by path
    (a section opened again replaces its entry), from which
    :meth:`reject_unknown` names every key that no read asked for.
    """

    def __init__(self, d: dict, path: str = "", opened=None):
        self.d, self.path, self.used = d, path, set()
        self.opened = {} if opened is None else opened
        self.opened[path] = self

    def __call__(self, key, default=_REQUIRED, kind=int, low=None, high=None,
                 item=None):
        name = self.path + key
        self.used.add(key)
        if key not in self.d:
            if default is _REQUIRED:
                raise ConfigError(name, "missing required field")
            return default
        value = self.d[key]
        if not isinstance(kind, type):
            if value not in list(kind):
                raise ConfigError(name, f"must be one of {list(kind)}, got {value!r}")
            return value
        entries = [value]
        if item:  # a non-empty list of item-typed entries
            entries = value if isinstance(value, list) and value else [None]
        if not all(_is(v, item or kind) and (low is None or v >= low)
                   and (high is None or v <= high) for v in entries):
            bound = (f" in {low}..{high}" if None not in (low, high)
                     else f" >= {low}" if low is not None
                     else f" <= {high}" if high is not None else "")
            what = f"a non-empty list of {_KINDS[item][1]}" if item else _KINDS[kind][0]
            raise ConfigError(name, f"must be {what}{bound}, got {value!r}")
        return value

    def section(self, key, default=_REQUIRED):
        """Open the JSON object ``key``; a ``None`` default stays ``None``."""
        d = self(key, default, dict)
        return None if d is None else _Fields(d, f"{self.path}{key}.", self.opened)

    def reject_unknown(self):
        for sec in self.opened.values():
            for key in [key for key in sec.d if key not in sec.used]:
                hint = difflib.get_close_matches(key, sec.used, n=1)
                raise ConfigError(sec.path + key, "unknown field" + (
                    f"; did you mean {hint[0]!r}?" if hint else ""))


def _build(fieldname: str, make, *args, **kwargs):
    """Construct a block; a ValueError or TypeError from it names ``fieldname``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(fieldname, str(exc)) from None


# -- codecs: code section -> (payload_bits, coded_bits, encode, decode) ------
# The library functions are looked up by module-global name at call time.

def _uncoded(code):
    k = code("k", low=1)
    return k, k, lambda payload: payload, hard_decide


def _ldpc5g(code):
    k = code("k", low=1)
    n = code("n", low=k + 1)
    dec = code.section("decoder", {})
    variant = dec("variant", "sum-product", BP_VARIANTS)
    num_iter = dec("num_iter", 20, low=1)
    ldpc = _build("code.k", LdpcCode5G, k, n)
    return (k, n, lambda payload: ldpc5g_encode(payload, ldpc),
            lambda llr: ldpc5g_decode(llr, ldpc, num_iter=num_iter, variant=variant))


def _polar5g(code):
    k = code("k", low=1)
    n = code("n", low=k + 1)
    dec = code.section("decoder", {})
    crc = CRC_POLYNOMIALS.get(dec("crc", None, [None, *CRC_POLYNOMIALS]))
    payload_bits = k - (crc.degree if crc else 0)
    if payload_bits < 1:
        raise ConfigError("code.k", "k must exceed the CRC degree")
    polar = _build("code.n", polar5g_construct, k, n, crc=crc)

    def encode(payload):
        return polar_encode(crc_attach(payload, crc) if crc else payload, polar)

    if dec("type", "scl", ("sc", "scl")) == "sc":
        def decode(llr):
            return polar_sc_decode(llr, polar)[:, :payload_bits]
    else:
        list_size = dec("list_size", 8, low=1)

        def decode(llr):
            return polar_scl_decode(llr, polar, list_size=list_size,
                                    use_crc=crc is not None)[:, :payload_bits]
    return payload_bits, n, encode, decode


def _conv(code):
    k = code("k", low=1)
    conv = _build("code.generators", ConvCode,
                  constraint_length=code("constraint_length", 3, low=2, high=9),
                  generators=tuple(code("generators", [0o5, 0o7], list, item=int)))
    return (k, conv.num_outputs * (k + conv.tail_bits),
            lambda payload: conv_encode(payload, conv),
            lambda llr: viterbi_decode(llr, conv))


CODECS = {"none": _uncoded, "ldpc5g": _ldpc5g, "polar5g": _polar5g, "conv": _conv}


# -- channels: (channel section, stage section, coded symbols per block) ->
# step(x, no, rng) -> (x_hat, no_eff), the symbol estimates and their noise
# variance; channel, mimo and ofdm functions are looked up at call time.

def _awgn(chan, stage, num_symbols):
    return lambda x, no, rng: (ch.awgn(x, no, rng.child(2)), no)


def _flat(chan, mimo, num_symbols):
    num_rx = mimo("num_rx", 2, low=1)
    # One stream per transmit antenna, at most one per receive antenna.
    streams = mimo("num_tx", 2, low=1, high=num_rx)
    precoder = mimo("precoder", None, (None, "zf"))
    mimo("equalizer", "lmmse", ("lmmse",))
    if num_symbols % streams:
        raise ConfigError("mimo.num_tx", f"{num_symbols} symbols not divisible "
                          f"into {streams} streams")
    correlation = None
    corr = chan.section("correlation", None)
    if corr is not None:
        r_tx, r_rx = corr("r_tx", kind=list), corr("r_rx", kind=list)
        correlation = _build("channel.correlation", lambda: ch.CorrelationPair(
            np.asarray(r_tx, dtype=float), np.asarray(r_rx, dtype=float)))
        if (len(r_tx), len(r_rx)) != (streams, num_rx):
            raise ConfigError("channel.correlation", f"needs r_tx {streams}x{streams}"
                              f" and r_rx {num_rx}x{num_rx}")

    def step(x, no, rng):
        uses = x.reshape(-1, streams)  # batch and channel uses flattened
        y, h = ch.flat_fading(uses, correlation, num_rx, rng.child(1))
        if precoder == "zf":
            xp, g_eff = mimo_mod.zf_precode(uses, h[:, :streams, :])
            y = np.einsum("brt,bt->br", h[:, :streams, :], xp)
            y = ch.awgn(y, no, rng.child(2))
            x_hat = y / g_eff
            no_eff = no / g_eff**2
        else:
            y = ch.awgn(y, no, rng.child(2))
            x_hat, no_eff = mimo_mod.lmmse_equalize(y, h, no)
        return x_hat.reshape(x.shape[0], -1), no_eff.reshape(x.shape[0], -1)
    return step


def _tdl(chan, o, num_symbols):
    ofdm_symbols = o("num_symbols", 14, low=1)
    dc_null = o("dc_null", False, bool)
    fft_size = o("fft_size", low=1 + dc_null)
    guard_left = o("guard_left", 0, low=0, high=fft_size - 1 - dc_null)
    # The bounded reads leave ResourceGrid only its spacing rule to fail.
    grid = _build(
        "ofdm.subcarrier_spacing", ofdm_mod.ResourceGrid,
        fft_size=fft_size,
        num_symbols=ofdm_symbols,
        cp_length=o("cp_length", 0, low=0, high=fft_size - 1),
        subcarrier_spacing=o("subcarrier_spacing", 15e3, float),
        guard_left=guard_left,
        guard_right=o("guard_right", 0, low=0,
                      high=fft_size - 1 - dc_null - guard_left),
        dc_null=dc_null,
    )
    pilots = o.section("pilots")
    grid = replace(
        grid, pilot_pattern=ofdm_mod.PilotPattern.regular(
            num_symbols=ofdm_symbols,
            num_subcarriers=grid.num_effective_subcarriers,
            pilot_symbols=pilots("symbol_indices", [0], list, low=0,
                                 high=ofdm_symbols - 1, item=int),
            subcarrier_step=pilots("subcarrier_step", 1, low=1),
            seed=pilots("seed", 0, low=0, high=2**64 - 1),
        ))
    if grid.num_data_cells != num_symbols:
        raise ConfigError("ofdm.fft_size", f"grid has {grid.num_data_cells} data cells "
                          f"but the coded block maps to {num_symbols} symbols")
    powers = chan("powers", [1.0], list, item=float)
    delays = chan("delays_s", [0.0], list, low=0, item=float)
    if len(delays) != len(powers):
        raise ConfigError("channel.delays_s", f"{len(delays)} entries, but "
                          f"channel.powers has {len(powers)}")
    taps = _build("channel.delays_s", ch.delay_samples, delays, grid.bandwidth)
    tdl = _build("channel.powers", ch.TdlProfile, powers=powers, delays=delays,
                 doppler_hz=chan("doppler_hz", 0.0, float, low=0))
    if taps.max() > grid.cp_length:
        raise ConfigError("ofdm.cp_length", "cyclic prefix shorter than the delay spread")

    def step(x, no, rng):
        grid_tx = ofdm_mod.rg_map(x, grid)
        samples = ofdm_mod.ofdm_modulate(grid_tx, grid.cp_length)
        cir = ch.generate_tdl_cir(
            tdl, x.shape[0], grid.num_symbols,
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
        return data / h_data, no / np.abs(h_data) ** 2
    return step


CHANNELS = {"awgn": (None, _awgn), "flat": ("mimo", _flat), "tdl": ("ofdm", _tdl)}


@dataclass
class SimConfig:
    """Sweep-level fields of a config (see :meth:`SimConfig.from_dict`);
    ``fields`` reads the rest when a :class:`Pipeline` is built."""

    fields: _Fields = field(repr=False)
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
        fields = _Fields(raw)
        sweep = fields.section("sweep")
        points = sweep("ebno_db", kind=list, item=float, low=-100, high=100)
        if any(b <= a for a, b in zip(points, points[1:])):
            raise ConfigError("sweep.ebno_db", "must be strictly increasing")
        cfg = cls(
            fields=fields,
            snr_points=[float(p) for p in points],
            batch_size=sweep("batch_size", 256, low=1),
            target_block_errors=sweep("target_block_errors", 100, low=1),
            max_batches_per_point=sweep("max_batches_per_point", 1000, low=1),
            seed=fields("seed", 0, low=0, high=2**64 - 1),
            precision=fields("precision", "single", ("single", "double")),
        )
        build_pipeline(cfg)  # reads and checks every other field
        fields.reject_unknown()
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
    points: list = field(default_factory=list)


class Pipeline:
    """End-to-end transmit/channel/receive chain for one config.

    Construction reads and checks every field outside ``sweep``.
    """

    def __init__(self, cfg: SimConfig):
        f = cfg.fields
        single = cfg.precision == "single"
        self.cdtype = np.complex64 if single else np.complex128
        self.ldtype = np.float32 if single else np.float64

        mod = f.section("modulation", {"bits_per_symbol": 2})
        # 1024-QAM is the largest modulation order of 5G NR.
        self.m = mod("bits_per_symbol", low=1, high=10)
        self.constellation = _build("modulation.bits_per_symbol", Constellation,
                                    mod("kind", "qam", ("qam", "psk")), self.m)
        demappers = {"app": demap_app, "maxlog": demap_maxlog}
        self.demap = demappers[mod("demapper", "app", demappers)]

        code = f.section("code", {"family": "none", "k": 100})
        self.payload_bits, coded_bits, self.encode, self.decode = \
            CODECS[code("family", kind=CODECS)](code)
        self.coderate = self.payload_bits / coded_bits
        if coded_bits % self.m:
            raise ConfigError(
                "modulation.bits_per_symbol",
                f"coded block of {coded_bits} bits is not divisible by "
                f"{self.m} bits/symbol",
            )

        chan = f.section("channel", {})
        kind = chan("kind", "awgn", CHANNELS)
        needed, build_step = CHANNELS[kind]
        stages = {name: f.section(name, {}) for name, _ in CHANNELS.values() if name}
        for name, stage in stages.items():
            enabled = stage("enabled", False, bool)
            if enabled != (name == needed):
                raise ConfigError(
                    f"{name}.enabled" if enabled else "channel.kind",
                    f"channel kind {kind!r} "
                    f"{'does not use' if enabled else 'requires'} {name}.enabled")
            if not enabled:  # a disabled section may keep its other keys
                stage.used.update(stage.d)
        self.channel = build_step(chan, stages.get(needed), coded_bits // self.m)

    def run_batch(self, ebno_db: float, batch_size: int, rng: RngStream):
        """Simulate one batch; returns (payload, decoded) bit arrays."""
        no = ebnodb2no(ebno_db, self.m, self.coderate)
        payload = binary_source([batch_size, self.payload_bits], rng.child(0))
        x = map_bits(self.encode(payload), self.constellation).astype(self.cdtype)
        x_hat, no_eff = self.channel(x, no, rng)
        # The decoder needs the LLRs alone: the symbols and their estimates
        # are released before it runs.
        del x
        llr = self.demap(x_hat, no_eff, self.constellation, dtype=self.ldtype)
        del x_hat, no_eff
        return payload, self.decode(llr)


def build_pipeline(cfg: SimConfig) -> Pipeline:
    return Pipeline(cfg)


def _run_point(pipeline, cfg, snr_idx, ebno_db, num_workers):
    """Run one SNR point; returns (bit_errors, block_errors, batches, reason).

    Batches run in waves of ``num_workers`` through :func:`core.map_tiles`;
    the point stops at the first batch, in batch order, whose block errors
    reach ``target_block_errors``, and later batches of its wave are dropped.
    """
    counts = {}  # batch -> (bit errors, block errors)
    def run(b):
        stream = RngStream(cfg.seed, ((snr_idx + 1) << 32) | (b + 1))
        counts[b] = count_errors(*pipeline.run_batch(ebno_db, cfg.batch_size, stream))

    bit_errors = block_errors = 0
    for first in range(0, cfg.max_batches_per_point, num_workers):
        wave = range(first, min(first + num_workers, cfg.max_batches_per_point))
        map_tiles(run, wave)
        for b, (bit_err, block_err) in zip(wave, map(counts.pop, wave)):
            bit_errors, block_errors = bit_errors + bit_err, block_errors + block_err
            if block_errors >= cfg.target_block_errors:
                return bit_errors, block_errors, b + 1, "target-errors"
    return bit_errors, block_errors, cfg.max_batches_per_point, "max-batches"


def run_sweep(cfg: SimConfig, num_workers: int = 1) -> SweepResult:
    """Run the configured Eb/N0 sweep.

    Each SNR point simulates batches 0, 1, 2, ... and stops at the first
    batch, in batch order, at which its block errors reach
    ``target_block_errors``, or after ``max_batches_per_point`` batches.
    After two consecutive zero-error points, the remaining (higher) points
    are skipped and marked "early-exit".  Batch ``b`` of point ``i`` draws
    from the stream ``(seed, i, b)``, so results are deterministic in
    (config, seed) regardless of ``num_workers`` (>= 1), the batches per wave.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    pipeline = build_pipeline(cfg)
    result = SweepResult()
    consecutive_zero = 0
    for snr_idx, ebno_db in enumerate(cfg.snr_points):
        start = time.perf_counter()
        bit_errors, block_errors, batches, stop_reason = (
            (0, 0, 0, "early-exit") if consecutive_zero >= 2 else
            _run_point(pipeline, cfg, snr_idx, ebno_db, num_workers))
        consecutive_zero = consecutive_zero + 1 if block_errors == 0 else 0
        blocks = batches * cfg.batch_size
        result.points.append(SnrPointResult(
            ebno_db=ebno_db, bits=blocks * pipeline.payload_bits,
            bit_errors=bit_errors, blocks=blocks, block_errors=block_errors,
            batches=batches, stop_reason=stop_reason,
            elapsed_s=time.perf_counter() - start if batches else 0.0))
    return result


def format_csv(result: SweepResult) -> str:
    """Render a sweep result as CSV with a locale-independent '.' decimal."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for p in result.points:
        writer.writerow([repr(getattr(p, c)) if kind is float else getattr(p, c)
                         for c, kind in _CSV_TYPES.items()])
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
    with open(path, "r", encoding="ascii", newline="") as f:
        reader = csv.DictReader(f)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV columns: {reader.fieldnames}")
        rows = []
        for row in reader:
            # DictReader files extra cells under None and fills missing ones with None.
            if None in row or None in row.values():
                raise ValueError(f"line {reader.line_num}: expected "
                                 f"{len(CSV_COLUMNS)} cells")
            rows.append({key: _CSV_TYPES[key](value) for key, value in row.items()})
        return rows
