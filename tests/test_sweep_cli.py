import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import linksim
from linksim.cli import main
from linksim.sweep import (CSV_COLUMNS, ConfigError, SimConfig, format_csv,
                           read_csv, run_sweep, write_csv)


def base_config(**overrides):
    cfg = {
        "code": {"family": "none", "k": 100},
        "modulation": {"kind": "qam", "bits_per_symbol": 2},
        "channel": {"kind": "awgn"},
        "sweep": {"ebno_db": [0.0, 6.0], "batch_size": 32,
                  "target_block_errors": 10, "max_batches_per_point": 3},
        "seed": 1,
    }
    cfg.update(overrides)
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


class TestRunSweep:
    def test_deterministic_across_worker_counts(self):
        cfg = SimConfig.from_dict(base_config())
        results = [run_sweep(cfg, num_workers=w) for w in (1, 2, 5)]
        assert stats(results[0]) == stats(results[1]) == stats(results[2])

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

    def test_header_line(self, tmp_path):
        cfg = SimConfig.from_dict(base_config())
        text = format_csv(run_sweep(cfg))
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_read_rejects_other_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_csv(path)


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

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "linksim" in out

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
        ({**TDL, "ofdm.cp_length": 64}, "ofdm"),
        ({**TDL, "ofdm.subcarrier_spacing": 0}, "ofdm"),
        ({**POLAR, "code.decoder.crc": ["x"]}, "code.decoder.crc"),
        ({"sweep.batchsize": 10}, "sweep.batchsize"),
        ({"precison": "double"}, "precison"),
        ({**CONV, "code.n": 300}, "code.n"),
        ({**POLAR, "code.decoder": {"type": "sc", "list_size": 8}},
         "code.decoder.list_size"),
        ({"ofdm": {"enabled": True}}, "ofdm.enabled"),
        ({"mimo": {"enabled": True}}, "mimo.enabled"),
    ])
    def test_run_rejects_bad_config(self, tmp_path, capsys, updates, fieldname):
        cfg = set_fields(base_config(), updates)
        path = self._write_config(tmp_path, cfg)
        assert main(["run", "--config", path]) == 2
        assert f"{fieldname}:" in capsys.readouterr().err

    def test_unknown_field_names_close_match(self, tmp_path, capsys):
        cfg = set_fields(base_config(), {"sweep.batchsize": 10})
        assert main(["validate", "--config", self._write_config(tmp_path, cfg)]) == 2
        assert "did you mean 'batch_size'?" in capsys.readouterr().err

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

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "linksim.cli", "info"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "linksim" in proc.stdout
