import copy
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

import linksim
from linksim.cli import main
from linksim.sweep import (CSV_COLUMNS, ConfigError, Pipeline, SimConfig,
                           build_pipeline, format_csv, read_csv, run_sweep,
                           write_csv)


def base_config(**overrides):
    cfg = {
        "code": {"family": "none", "k": 100},
        "modulation": {"kind": "qam", "bits_per_symbol": 2},
        "channel": {"kind": "awgn"},
        "sweep": {"ebno_db": [0.0, 6.0], "batch_size": 32,
                  "target_block_errors": 10, "max_batches_per_point": 3},
        "seed": 1,
    }
    cfg.update(copy.deepcopy(overrides))
    return cfg


LDPC = {"code": {"family": "ldpc5g", "k": 100, "n": 300}}
POLAR = {"code": {"family": "polar5g", "k": 64, "n": 128}}
CONV = {"code": {"family": "conv", "k": 100}}
FLAT = {"channel": {"kind": "flat"},
        "mimo": {"enabled": True, "num_tx": 2, "num_rx": 2}}
TDL = {"code": {"family": "none", "k": 128}, "channel": {"kind": "tdl"},
       "ofdm": {"enabled": True, "fft_size": 64, "num_symbols": 2,
                "cp_length": 4, "pilots": {}}}


def set_fields(cfg, updates):
    """Set each dotted field of ``updates`` in ``cfg``, in order."""
    for fieldname, value in updates.items():
        *parents, key = fieldname.split(".")
        node = cfg
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = copy.deepcopy(value)
    return cfg


def stats(result):
    return [(p.ebno_db, p.bits, p.bit_errors, p.blocks, p.block_errors,
             p.batches, p.stop_reason) for p in result.points]


def csv_without_elapsed(result):
    return "".join(line.rsplit(",", 1)[0] + "\n"
                   for line in format_csv(result).splitlines())


def record_batch_threads(monkeypatch):
    """Names of the threads that run each ``Pipeline.run_batch`` call."""
    names = []
    run_batch = Pipeline.run_batch

    def recorded(self, *args):
        names.append(threading.current_thread().name)
        return run_batch(self, *args)

    monkeypatch.setattr(Pipeline, "run_batch", recorded)
    return names


# Every batch of both points runs: waves of 2 + 1 or 3 at 2 and 3 workers.
ALL_BATCHES = {"sweep.target_block_errors": 10**6}


class TestSimConfig:
    def test_valid_config_parses(self):
        cfg = SimConfig.from_dict(base_config())
        assert cfg.snr_points == [0.0, 6.0]
        assert cfg.batch_size == 32

    @pytest.mark.parametrize("mutate,fieldname", [
        (lambda c: c["code"].update(family="turbo"), "code.family"),
        (lambda c: c["code"].update(k=0), "code.k"),
        (lambda c: c["modulation"].update(kind="fsk"), "modulation.kind"),
        (lambda c: c["modulation"].update(bits_per_symbol=3), "modulation.bits_per_symbol"),
        (lambda c: c["channel"].update(kind="rayleigh-kt"), "channel.kind"),
        (lambda c: c["sweep"].update(ebno_db=[]), "sweep.ebno_db"),
        (lambda c: c["sweep"].update(ebno_db=[3.0, 1.0]), "sweep.ebno_db"),
        (lambda c: c["sweep"].update(batch_size=0), "sweep.batch_size"),
        (lambda c: c.update(precision="half"), "precision"),
    ])
    def test_invalid_configs_name_field(self, mutate, fieldname):
        cfg = base_config()
        mutate(cfg)
        with pytest.raises(ConfigError) as exc:
            SimConfig.from_dict(cfg)
        assert exc.value.field == fieldname

    def test_missing_sweep(self):
        cfg = base_config()
        del cfg["sweep"]
        with pytest.raises(ConfigError):
            SimConfig.from_dict(cfg)

    def test_tdl_requires_ofdm(self):
        cfg = base_config(channel={"kind": "tdl"})
        with pytest.raises(ConfigError) as exc:
            SimConfig.from_dict(cfg)
        assert exc.value.field == "channel.kind"

    def test_bits_per_symbol_must_divide_block(self):
        cfg = base_config()
        cfg["code"]["k"] = 101
        cfg["modulation"]["bits_per_symbol"] = 2
        with pytest.raises(ConfigError):
            SimConfig.from_dict(cfg)

    def test_grid_size_cross_check(self):
        cfg = base_config(
            channel={"kind": "tdl", "powers": [1.0], "delays_s": [0.0]},
            ofdm={"enabled": True, "fft_size": 64, "num_symbols": 2,
                  "cp_length": 4,
                  "pilots": {"symbol_indices": [0], "subcarrier_step": 1}},
        )
        cfg["code"]["k"] = 100  # 50 symbols vs 64 data cells
        with pytest.raises(ConfigError) as exc:
            SimConfig.from_dict(cfg)
        assert "data cells" in str(exc.value)

    def test_rebuilds_keep_one_record_per_section(self):
        # Each build re-opens the same sections: a SimConfig reused across
        # sweeps must not grow its record of them.
        cfg = SimConfig.from_dict(set_fields(base_config(**TDL), {
            "code": {"family": "polar5g", "k": 64, "n": 128,
                     "decoder": {"type": "sc"}}}))
        opened = len(cfg.fields.opened)
        for _ in range(100):
            build_pipeline(cfg)
        assert len(cfg.fields.opened) == opened


class TestRunSweep:
    def test_deterministic_across_worker_counts(self):
        cfg = SimConfig.from_dict(base_config())
        results = [run_sweep(cfg, num_workers=w) for w in (1, 2, 5)]
        assert stats(results[0]) == stats(results[1]) == stats(results[2])

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(SimConfig.from_dict(base_config()), num_workers=0)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(SimConfig.from_dict(base_config()), num_workers=-1)

    def test_one_worker_runs_batches_on_calling_thread(self, monkeypatch):
        names = record_batch_threads(monkeypatch)
        run_sweep(SimConfig.from_dict(set_fields(base_config(), ALL_BATCHES)))
        assert names == [threading.current_thread().name] * 6

    @pytest.mark.parametrize("workers", [2, 3])
    def test_batches_run_on_caller_and_tile_helpers(self, monkeypatch, workers):
        # The sweep starts no thread of its own: a wave runs on the calling
        # thread and the helper threads of core.map_tiles.
        names = record_batch_threads(monkeypatch)
        cfg = SimConfig.from_dict(set_fields(base_config(), ALL_BATCHES))
        run_sweep(cfg, num_workers=workers)
        assert len(names) == 6
        caller = threading.current_thread().name
        assert all(n == caller or n.startswith("linksim-tile") for n in names)

    def test_batch_exception_reaches_caller(self, monkeypatch):
        run_batch = Pipeline.run_batch

        def fail_batch_1(self, ebno_db, batch_size, rng):
            if rng.stream_id & 0xFFFFFFFF == 2:  # batch 1 of point 0
                raise RuntimeError("batch 1 failed")
            return run_batch(self, ebno_db, batch_size, rng)

        monkeypatch.setattr(Pipeline, "run_batch", fail_batch_1)
        cfg = SimConfig.from_dict(set_fields(base_config(), ALL_BATCHES))
        with pytest.raises(RuntimeError, match="batch 1 failed"):
            run_sweep(cfg, num_workers=2)

    def test_concurrent_sweeps_match_sequential(self):
        # Two sweeps from two outside threads share the helper threads, and
        # the LDPC decoder's row tiles nest inside their batches.
        cfgs = [SimConfig.from_dict(set_fields(base_config(**LDPC, seed=seed),
                                               ALL_BATCHES)) for seed in (1, 2)]
        expected = [csv_without_elapsed(run_sweep(cfg, num_workers=2))
                    for cfg in cfgs]
        got = [None, None]

        def sweep(i):
            got[i] = csv_without_elapsed(run_sweep(cfgs[i], num_workers=2))

        threads = [threading.Thread(target=sweep, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    def test_seed_changes_results(self):
        a = run_sweep(SimConfig.from_dict(base_config(seed=1)))
        b = run_sweep(SimConfig.from_dict(base_config(seed=2)))
        assert stats(a) != stats(b)

    def test_target_errors_stop(self):
        cfg = SimConfig.from_dict(base_config())
        r = run_sweep(cfg)
        p = r.points[0]  # 0 dB uncoded: every block errs
        assert p.stop_reason == "target-errors"
        assert p.block_errors >= 10
        assert p.batches == 1

    def test_max_batches_stop_on_clean_channel(self):
        cfg = base_config()
        cfg["sweep"]["ebno_db"] = [40.0]
        r = run_sweep(SimConfig.from_dict(cfg))
        p = r.points[0]
        assert p.stop_reason == "max-batches"
        assert p.batches == 3
        assert p.block_errors == 0

    def test_early_exit_after_two_clean_points(self):
        cfg = base_config()
        cfg["sweep"]["ebno_db"] = [30.0, 35.0, 40.0, 45.0]
        r = run_sweep(SimConfig.from_dict(cfg))
        reasons = [p.stop_reason for p in r.points]
        assert reasons == ["max-batches", "max-batches", "early-exit",
                           "early-exit"]
        assert r.points[2].bits == 0 and r.points[3].batches == 0

    def test_ber_decreases_with_snr(self):
        cfg = base_config()
        cfg["sweep"]["ebno_db"] = [0.0, 4.0, 8.0]
        cfg["sweep"]["max_batches_per_point"] = 5
        cfg["sweep"]["target_block_errors"] = 10**9  # fixed effort
        r = run_sweep(SimConfig.from_dict(cfg))
        bers = [p.ber for p in r.points]
        assert bers[0] > bers[1] > bers[2]

    def test_precision_single_close_to_double(self):
        a = run_sweep(SimConfig.from_dict(base_config(precision="single")))
        b = run_sweep(SimConfig.from_dict(base_config(precision="double")))
        for pa, pb in zip(a.points, b.points):
            assert pa.bits == pb.bits
            # Bit error counts may differ slightly at decision boundaries.
            assert pa.bit_errors == pytest.approx(pb.bit_errors, rel=0.05, abs=5)

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("updates", [{}, LDPC, POLAR, CONV, FLAT, TDL],
                             ids=["none", "ldpc5g", "polar5g", "conv", "flat",
                                  "tdl"])
    def test_ebno_db_bounds_run_clean(self, updates, precision):
        # At both ends of sweep.ebno_db no block over- or underflows.
        cfg = set_fields(base_config(precision=precision),
                         {**updates, "sweep.ebno_db": [-100, 100],
                          "sweep.batch_size": 8})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low, high = run_sweep(SimConfig.from_dict(cfg)).points
        assert low.bler == 1.0
        assert (high.bit_errors, high.block_errors) == (0, 0)


class TestCsv:
    def test_column_order(self):
        assert CSV_COLUMNS == ("ebno_db", "bits", "bit_errors", "ber",
                               "blocks", "block_errors", "bler", "batches",
                               "stop_reason", "elapsed_s")

    def test_write_read_round_trip(self, tmp_path):
        cfg = SimConfig.from_dict(base_config())
        result = run_sweep(cfg)
        path = tmp_path / "out.csv"
        write_csv(result, path)
        rows = read_csv(path)
        assert len(rows) == len(result.points)
        for row, p in zip(rows, result.points):
            assert row["ebno_db"] == p.ebno_db
            assert row["bits"] == p.bits
            assert row["ber"] == p.ber  # repr round trip is exact
            assert row["stop_reason"] == p.stop_reason

    # 6 dB stops at batch 2, mid-wave at 3 workers; 40 dB follows two
    # clean points and exits early.
    GOLDEN = (
        "ebno_db,bits,bit_errors,ber,blocks,block_errors,bler,batches,stop_reason\n"
        "0.0,3200,259,0.0809375,32,32,1.0,1,target-errors\n"
        "6.0,6400,16,0.0025,64,14,0.21875,2,target-errors\n"
        "30.0,9600,0,0.0,96,0,0.0,3,max-batches\n"
        "35.0,9600,0,0.0,96,0,0.0,3,max-batches\n"
        "40.0,0,0,0.0,0,0,0.0,0,early-exit\n"
    )

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_golden_csv_and_full_round_trip(self, tmp_path, workers):
        cfg = set_fields(base_config(), {"sweep.ebno_db": [0, 6, 30, 35, 40]})
        result = run_sweep(SimConfig.from_dict(cfg), num_workers=workers)
        text = format_csv(result)
        assert "".join(line.rsplit(",", 1)[0] + "\n"
                       for line in text.splitlines()) == self.GOLDEN
        path = tmp_path / "out.csv"
        write_csv(result, path)
        assert read_csv(path) == [{c: getattr(p, c) for c in CSV_COLUMNS}
                                  for p in result.points]

    def test_header_line(self, tmp_path):
        cfg = SimConfig.from_dict(base_config())
        text = format_csv(run_sweep(cfg))
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_read_rejects_other_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_csv(path)

    ROW = "0.0,200,3,0.015,2,1,0.5,1,max-batches,0.25"

    def test_read_rejects_row_with_extra_cell(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(f"{','.join(CSV_COLUMNS)}\n{self.ROW},0.5\n")
        with pytest.raises(ValueError, match="line 2"):
            read_csv(path)

    def test_read_rejects_row_with_missing_cell(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(f"{','.join(CSV_COLUMNS)}\n{self.ROW.rsplit(',', 1)[0]}\n")
        with pytest.raises(ValueError, match="line 2"):
            read_csv(path)



# Channel steps that no benchmark workload runs: ZF precoding, correlated
# flat fading, and TDL over a grid with guards, a DC null and pilots on
# every other subcarrier.  Every batch of both points runs.
CHANNEL_CASES = {
    "flat-zf": set_fields(base_config(**FLAT), {
        "code.k": 96, "modulation.bits_per_symbol": 4, "mimo.num_rx": 3,
        "mimo.precoder": "zf", "precision": "double"}),
    "flat-correlated": set_fields(base_config(**FLAT), {
        "mimo.num_rx": 3,
        "channel.correlation": {"r_tx": [[1, 0.5], [0.5, 1]],
                                "r_rx": [[1, 0.3, 0.1], [0.3, 1, 0.3],
                                         [0.1, 0.3, 1]]}}),
    "tdl-guards": set_fields(base_config(**TDL), {
        "code.k": 280, "ofdm.num_symbols": 3, "ofdm.guard_left": 4,
        "ofdm.guard_right": 3, "ofdm.dc_null": True,
        "ofdm.pilots": {"symbol_indices": [0], "subcarrier_step": 2, "seed": 7},
        "channel.powers": [0.6, 0.4], "channel.delays_s": [0.0, 2 / 960e3],
        "channel.doppler_hz": 50.0}),
}
for _cfg in CHANNEL_CASES.values():
    set_fields(_cfg, {"sweep.ebno_db": [0.0, 8.0], "sweep.batch_size": 16,
                      "sweep.target_block_errors": 10**6})

# CSVs without elapsed_s, frozen from the sweep engine before its channel
# steps moved into the CHANNELS table.
CHANNEL_CSVS = {
    "flat-zf": (
        "ebno_db,bits,bit_errors,ber,blocks,block_errors,bler,batches,stop_reason\n"
        "0.0,4608,875,0.1898871527777778,48,48,1.0,3,max-batches\n"
        "8.0,4608,302,0.06553819444444445,48,48,1.0,3,max-batches\n"
    ),
    "flat-correlated": (
        "ebno_db,bits,bit_errors,ber,blocks,block_errors,bler,batches,stop_reason\n"
        "0.0,4800,334,0.06958333333333333,48,47,0.9791666666666666,3,max-batches\n"
        "8.0,4800,30,0.00625,48,21,0.4375,3,max-batches\n"
    ),
    "tdl-guards": (
        "ebno_db,bits,bit_errors,ber,blocks,block_errors,bler,batches,stop_reason\n"
        "0.0,13440,3057,0.22745535714285714,48,48,1.0,3,max-batches\n"
        "8.0,13440,852,0.06339285714285714,48,41,0.8541666666666666,3,max-batches\n"
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", CHANNEL_CASES)
def test_channel_steps_match_frozen_csv(name, workers):
    cfg = SimConfig.from_dict(copy.deepcopy(CHANNEL_CASES[name]))
    result = run_sweep(cfg, num_workers=workers)
    assert csv_without_elapsed(result) == CHANNEL_CSVS[name]

class TestCli:
    def _write_config(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        path = self._write_config(tmp_path, base_config())
        assert main(["validate", "--config", path]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_validate_names_offending_field(self, tmp_path, capsys):
        cfg = base_config()
        cfg["code"]["family"] = "turbo"
        path = self._write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 2
        assert "code.family" in capsys.readouterr().err

    def test_validate_missing_file(self, capsys):
        assert main(["validate", "--config", "/no/such/file.json"]) == 2

    def test_validate_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 2

    def test_run_writes_csv(self, tmp_path):
        path = self._write_config(tmp_path, base_config())
        out = tmp_path / "result.csv"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 2

    def test_run_stdout(self, tmp_path, capsys):
        path = self._write_config(tmp_path, base_config())
        assert main(["run", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_run_seed_override(self, tmp_path, capsys):
        path = self._write_config(tmp_path, base_config())
        main(["run", "--config", path, "--seed", "1"])
        out1 = capsys.readouterr().out
        main(["run", "--config", path, "--seed", "99"])
        out2 = capsys.readouterr().out
        assert out1 != out2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_run_seed_override_out_of_range(self, tmp_path, capsys, seed):
        path = self._write_config(tmp_path, base_config())
        assert main(["run", "--config", path, "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert "seed:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_run_accepts_seed_range_ends(self, tmp_path, seed):
        cfg = set_fields(base_config(), {**TDL, "seed": seed,
                                         "ofdm.pilots.seed": seed})
        path = self._write_config(tmp_path, cfg)
        assert main(["run", "--config", path, "--out",
                     str(tmp_path / "out.csv")]) == 0

    def test_run_has_no_precision_option(self, tmp_path, capsys):
        # The config field ``precision`` is the one way to choose it.
        path = self._write_config(tmp_path, base_config())
        out = tmp_path / "out.csv"
        assert main(["run", "--config", path, "--out", str(out),
                     "--precision", "double"]) == 2
        assert not out.exists() and capsys.readouterr().out == ""

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "linksim" in out

    def test_public_names_match_all(self):
        assert all(hasattr(linksim, name) for name in linksim.__all__)
        namespace = {}
        exec("from linksim import *", namespace)
        assert set(linksim.__all__) <= namespace.keys()
        public = {name for name, value in vars(linksim).items()
                  if not name.startswith("_") and not inspect.ismodule(value)}
        assert public <= set(linksim.__all__)

    def test_missing_subcommand_exit_2(self):
        assert main([]) == 2

    def test_env_workers_override(self, tmp_path, capsys, monkeypatch):
        path = self._write_config(tmp_path, base_config())
        main(["run", "--config", path, "--workers", "1"])
        ref = capsys.readouterr().out
        monkeypatch.setenv("LINKSIM_WORKERS", "4")
        main(["run", "--config", path, "--workers", "1"])
        out = capsys.readouterr().out
        # Statistics columns identical regardless of worker count.
        strip = lambda text: [",".join(ln.split(",")[:-1])
                              for ln in text.splitlines()]
        assert strip(ref) == strip(out)

    @pytest.mark.parametrize("num_iter", [0, -3, "abc", 2.5, True])
    def test_run_rejects_bad_bp_iterations(self, tmp_path, capsys, num_iter):
        cfg = base_config(code={"family": "ldpc5g", "k": 100, "n": 300,
                                "decoder": {"num_iter": num_iter}})
        cfg["modulation"]["bits_per_symbol"] = 4
        path = self._write_config(tmp_path, cfg)
        assert main(["run", "--config", path]) == 2
        assert "code.decoder.num_iter" in capsys.readouterr().err

    @pytest.mark.parametrize("fieldname,value", [
        ("modulation.bits_per_symbol", 30),
        ("modulation.bits_per_symbol", 12),
        ("modulation.bits_per_symbol", 0),
        ("modulation.bits_per_symbol", True),
        ("modulation.bits_per_symbol", 2.0),
        ("modulation.bits_per_symbol", "2"),
        ("seed", "abc"),
        ("seed", True),
        ("seed", 1.5),
        ("sweep.target_block_errors", "x"),
        ("sweep.target_block_errors", True),
        ("sweep.target_block_errors", 0),
        ("sweep.target_block_errors", 2.5),
        ("sweep.batch_size", True),
        ("sweep.batch_size", 2.5),
        ("sweep.batch_size", -1),
        ("sweep.max_batches_per_point", True),
        ("sweep.max_batches_per_point", 2.5),
        ("sweep.max_batches_per_point", -1),
        ("seed", -1),
        ("seed", 2**64),
    ])
    def test_run_rejects_bad_integer_fields(self, tmp_path, capsys,
                                            fieldname, value):
        cfg = base_config()
        *parents, key = fieldname.split(".")
        node = cfg
        for name in parents:
            node = node[name]
        node[key] = value
        path = self._write_config(tmp_path, cfg)
        assert main(["run", "--config", path]) == 2
        assert fieldname in capsys.readouterr().err

    @pytest.mark.parametrize("updates,fieldname", [
        ({"sweep.ebno_db": [float("nan")]}, "sweep.ebno_db"),
        ({"sweep.ebno_db": [0.0, float("inf")]}, "sweep.ebno_db"),
        ({"sweep.ebno_db": [True]}, "sweep.ebno_db"),
        ({"code": []}, "code"),
        ({"channel": "awgn"}, "channel"),
        ({"sweep": 5}, "sweep"),
        ({**LDPC, "code.decoder": 3}, "code.decoder"),
        ({**POLAR, "code.decoder.list_size": 0}, "code.decoder.list_size"),
        ({**POLAR, "code.decoder.list_size": "x"}, "code.decoder.list_size"),
        ({**FLAT, "mimo.num_tx": 0}, "mimo.num_tx"),
        ({**FLAT, "channel.correlation": {"r_tx": [[1, 0], [0, 1]]}},
         "channel.correlation.r_rx"),
        ({**FLAT, "channel.correlation": {"r_tx": [[1]], "r_rx": [[1, 0], [0, 1]]}},
         "channel.correlation"),
        ({"code": {"family": "ldpc5g", "k": 9000, "n": 18000}}, "code.k"),
        ({**CONV, "code.generators": [0o5, 0o77]}, "code.generators"),
        ({**TDL, "channel.powers": [0.5]}, "channel.powers"),
        ({**CONV, "code.constraint_length": 1}, "code.constraint_length"),
        ({**CONV, "code.constraint_length": 10}, "code.constraint_length"),
        ({**TDL, "ofdm.pilots.symbol_indices": [5]}, "ofdm.pilots.symbol_indices"),
        ({**TDL, "ofdm.pilots.subcarrier_step": 0}, "ofdm.pilots.subcarrier_step"),
        # These two ids date from when the errors named the section only.
        pytest.param({**TDL, "ofdm.cp_length": 64}, "ofdm.cp_length",
                     id="updates19-ofdm"),
        pytest.param({**TDL, "ofdm.subcarrier_spacing": 0}, "ofdm.subcarrier_spacing",
                     id="updates20-ofdm"),
        ({**POLAR, "code.decoder.crc": ["x"]}, "code.decoder.crc"),
        ({"sweep.batchsize": 10}, "sweep.batchsize"),
        ({"precison": "double"}, "precison"),
        ({**CONV, "code.n": 300}, "code.n"),
        ({**POLAR, "code.decoder": {"type": "sc", "list_size": 8}},
         "code.decoder.list_size"),
        ({"ofdm": {"enabled": True}}, "ofdm.enabled"),
        ({"mimo": {"enabled": True}}, "mimo.enabled"),
        ({**FLAT, "mimo.num_tx": 4}, "mimo.num_tx"),
        ({**TDL, "ofdm.pilots.seed": -1}, "ofdm.pilots.seed"),
        ({**TDL, "ofdm.pilots.seed": 2**64}, "ofdm.pilots.seed"),
        ({**POLAR, "code.n": 96}, "code.n"),
        ({"sweep.ebno_db": [100.5]}, "sweep.ebno_db"),
        ({"sweep.ebno_db": [-100.5, 0.0]}, "sweep.ebno_db"),
        ({**CONV, "sweep.ebno_db": [4000]}, "sweep.ebno_db"),
        ({**CONV, "sweep.ebno_db": [-4000]}, "sweep.ebno_db"),
        ({**POLAR, "code.k": 6, "code.decoder.crc": "crc6"}, "code.k"),
        ({**FLAT, "mimo.num_tx": 3, "mimo.num_rx": 3}, "mimo.num_tx"),
        ({**TDL, "channel.powers": [0.5, 0.5],
          "channel.delays_s": [0.0, 5 / 960e3]}, "ofdm.cp_length"),
        ({**TDL, "channel.powers": [0.5, 0.25, 0.25],
          "channel.delays_s": [0.0, 3 / 960e3, 1 / 960e3]}, "channel.delays_s"),
        ({**TDL, "channel.powers": [0.5, 0.5],
          "channel.delays_s": [0.0, 1.5 / 960e3]}, "channel.delays_s"),
        ({**TDL, "channel.powers": [0.5, 0.5],
          "channel.delays_s": [0.0, 1e303]}, "channel.delays_s"),
        ({**TDL, "channel.powers": [0.5, 0.5],
          "channel.delays_s": [0.0, 1e20 / 960e3]}, "ofdm.cp_length"),
        ({**TDL, "channel.delays_s": [0.0, 1 / 960e3]}, "channel.delays_s"),
        ({**TDL, "ofdm.cp_length": 100}, "ofdm.cp_length"),
        ({**TDL, "ofdm.subcarrier_spacing": -15e3}, "ofdm.subcarrier_spacing"),
        ({**TDL, "ofdm.guard_left": 32, "ofdm.guard_right": 32}, "ofdm.guard_right"),
        ({**TDL, "ofdm.fft_size": 1, "ofdm.dc_null": True}, "ofdm.fft_size"),
        ({**TDL, "channel.doppler_hz": 1e308}, "channel.doppler_hz"),
        ({**FLAT, "channel.correlation": {"r_tx": [[float("inf"), 0], [0, 1]],
                                          "r_rx": [[1, 0], [0, 1]]}},
         "channel.correlation.r_tx"),
        ({**FLAT, "channel.correlation": {"r_tx": [[1, 0], [0, 1]],
                                          "r_rx": [[1, 0], [0, 1e308]]}},
         "channel.correlation.r_rx"),
        ({**FLAT, "channel.correlation": {"r_tx": [[True, False], [False, True]],
                                          "r_rx": [[1, 0], [0, 1]]}},
         "channel.correlation.r_tx"),
        ({**TDL, "channel.doppler_hz": 10**400}, "channel.doppler_hz"),
        ({**TDL, "ofdm.subcarrier_spacing": 10**400}, "ofdm.subcarrier_spacing"),
        ({"sweep.ebno_db": [0.0, 10**400]}, "sweep.ebno_db"),
        ({**FLAT, "channel.correlation": {"r_tx": [[1, 0], [0, 10**400]],
                                          "r_rx": [[1, 0], [0, 1]]}},
         "channel.correlation.r_tx"),
    ])
    def test_run_rejects_bad_config(self, tmp_path, capsys, updates, fieldname):
        cfg = set_fields(base_config(), updates)
        path = self._write_config(tmp_path, cfg)
        assert main(["run", "--config", path]) == 2
        assert f"{fieldname}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_int_literal_too_long_for_python(self, tmp_path, capsys, command):
        # Python 3.11+ refuses to parse an int literal of more than 4300
        # digits (a plain ValueError, not a JSONDecodeError); 3.10 parses
        # it, and the float field check rejects it.
        cfg = set_fields(base_config(), {**TDL, "channel.doppler_hz": 12345.5})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg).replace("12345.5", "1" + "0" * 5000))
        assert main([command, "--config", str(path)]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_doppler_at_sampling_rate_runs(self, tmp_path, capsys):
        # The TDL grid samples at 64 x 15 kHz = 960 kHz, the doppler_hz bound.
        cfg = set_fields(base_config(), {**TDL, "channel.doppler_hz": 960e3})
        assert main(["run", "--config", self._write_config(tmp_path, cfg)]) == 0

    def test_unknown_field_names_close_match(self, tmp_path, capsys):
        cfg = set_fields(base_config(), {"sweep.batchsize": 10})
        assert main(["validate", "--config", self._write_config(tmp_path, cfg)]) == 2
        assert "did you mean 'batch_size'?" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["validate"], ["run", "--seed", "3"]])
    def test_config_not_an_object(self, tmp_path, capsys, argv):
        path = self._write_config(tmp_path, [1, 2])
        assert main([*argv, "--config", path]) == 2
        assert "<root>:" in capsys.readouterr().err

    def test_disabled_section_may_keep_its_fields(self, tmp_path, capsys):
        cfg = base_config(ofdm={"enabled": False, "fft_size": 64},
                          mimo={"num_tx": 4})
        assert main(["validate", "--config", self._write_config(tmp_path, cfg)]) == 0

    def test_largest_modulation_order_accepted(self, tmp_path, capsys):
        cfg = base_config()
        cfg["modulation"] = {"kind": "qam", "bits_per_symbol": 10}
        path = self._write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 0

    def test_app_sweep_does_not_import_scipy(self, tmp_path):
        # scipy is a test dependency only: a sweep must run without it.
        cfg = base_config()
        cfg["code"] = {"family": "conv", "k": 100}
        cfg["modulation"] = {"kind": "qam", "bits_per_symbol": 4,
                             "demapper": "app"}
        script = (
            "import json, sys\n"
            "from linksim.sweep import SimConfig, run_sweep\n"
            f"run_sweep(SimConfig.from_dict(json.loads({json.dumps(cfg)!r})))\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        src = str(Path(linksim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_env_workers_invalid(self, tmp_path, monkeypatch, capsys):
        path = self._write_config(tmp_path, base_config())
        monkeypatch.setenv("LINKSIM_WORKERS", "zero")
        assert main(["run", "--config", path]) == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_flag_must_be_positive(self, tmp_path, capsys, workers):
        path = self._write_config(tmp_path, base_config())
        assert main(["run", "--config", path, "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert "--workers" in captured.err
        assert captured.out == ""

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "linksim.cli", "info"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "linksim" in proc.stdout


ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_csv_independent_of_simd_dispatch(name):
    # NumPy picks its log, exp and tanh kernels by CPU feature, and their
    # last bits differ between kernels; NPY_DISABLE_CPU_FEATURES lowers the
    # dispatch of the child process only.
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    disabled = [f for f in ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
                if f in umath.__cpu_dispatch__ and umath.__cpu_features__.get(f)]
    if not disabled:
        pytest.skip("the host dispatches no feature above the baseline")
    baseline = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    check = ("import sys\n"
             "from numpy._core._multiarray_umath import __cpu_features__\n"
             "sys.exit(any(__cpu_features__[f] for f in sys.argv[1:]))\n")
    assert subprocess.run([sys.executable, "-c", check, *disabled],
                          env=baseline, timeout=60).returncode == 0

    def sweep_csv(env):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"),
             "--workload", name, "--seed", "42", "--batch-size", "16"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        csv = json.loads(proc.stdout.splitlines()[-1])["csv"]
        return [line.rsplit(",", 1)[0] for line in csv.splitlines()]

    assert sweep_csv(baseline) == sweep_csv(dict(os.environ))


def assert_no_numpy_ma(call, cfg):
    # A 1-D np.unique imports numpy.ma: about a megabyte and tens of
    # milliseconds of every run.  ``call`` runs in a fresh interpreter on
    # the SimConfig built from ``cfg``.
    script = (
        "import json, sys\n"
        f"from linksim.sweep import SimConfig, {call}\n"
        f"{call}(SimConfig.from_dict(json.loads({json.dumps(cfg)!r})))\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Set-up alone, one case per workload, under the case ids the test has
# always had.
SETUP_CASES = {"ldpc-awgn": "listing1", "polar-scl": "polar-cascl",
               "conv-tdl": "ofdm-tdl", "ldpc-mimo": "mimo-ldpc"}


@pytest.mark.parametrize("case", SETUP_CASES)
def test_setup_does_not_import_numpy_ma(case):
    assert_no_numpy_ma("build_pipeline",
                       workloads.config(SETUP_CASES[case], 42))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_sweep_does_not_import_numpy_ma(name):
    # The sweep builds the pipeline first, then runs the per-batch code:
    # demappers, channels and decoders.
    assert_no_numpy_ma("run_sweep", workloads.config(name, 42, batch_size=4))


# Bases of the config fuzz: the benchmark workloads, flat MIMO with
# correlation and with ZF precoding, polar SC and uncoded.
FUZZ_BASES = {name: workloads.config(name, 42) for name in workloads.NAMES}
FUZZ_BASES.update({
    "mimo-correlated": set_fields(base_config(**FLAT), {
        "channel.correlation": {"r_tx": [[1, 0.5], [0.5, 1]],
                                "r_rx": [[1, 0.2], [0.2, 1]]}}),
    "mimo-zf": set_fields(base_config(**FLAT), {"mimo.precoder": "zf"}),
    "polar-sc": set_fields(base_config(**POLAR), {"code.decoder.type": "sc"}),
    "uncoded": base_config(),
})
# Wrong or edge values.  Integers stop at 64: a valid config with a far
# larger list size, iteration count, block or antenna count can take more
# memory or time than a test may.
FUZZ_VALUES = [None, True, False, -1, 0, 1, 2, 3, 64, -0.5, 0.0, 0.5, 1.5,
               1e300, float("nan"), "", "x", "sc", [], [0.0], [1.0, 0.0],
               [3, 64], {}, {"x": 1}]


def _field_paths(d, prefix=""):
    for key, value in d.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _field_paths(value, f"{prefix}{key}.")


FUZZ_CASES = [(base, path, i) for base, cfg in FUZZ_BASES.items()
              for path in _field_paths(cfg) for i in range(len(FUZZ_VALUES))]


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis is not installed")
def test_config_fuzz_raises_only_config_error():
    # A bad field must exit 2 (ConfigError), never 1: from_dict raises
    # nothing else, and a config it accepts runs.
    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(FUZZ_CASES))
    def check(case):
        base, path, i = case
        raw = set_fields(copy.deepcopy(FUZZ_BASES[base]), {path: FUZZ_VALUES[i]})
        try:
            cfg = SimConfig.from_dict(raw)
        except ConfigError:
            return
        short = set_fields(raw, {"sweep.batch_size": 4, "sweep.max_batches_per_point":
                                 min(cfg.max_batches_per_point, 2)})
        run_sweep(SimConfig.from_dict(short))

    check()
