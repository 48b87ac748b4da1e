"""End-to-end acceptance checks at stated tolerances.

Each test prints a PASS line with the measured figure so a plain
``pytest -s tests/test_acceptance.py`` doubles as an acceptance report.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc

from linksim.alist import parse_alist
from linksim.channel import (Cir, CorrelationPair, TdlProfile,
                             apply_time_domain, awgn, cir_to_ofdm_channel,
                             complex_gaussian, flat_fading, generate_tdl_cir)
from linksim.cli import main
from linksim.convcode import ConvCode, conv_encode, viterbi_decode
from linksim.core import RngStream, binary_source, compute_ber, ebnodb2no
from linksim.ldpc import LdpcCode5G, bp_decode
from linksim.mapping import Constellation, demap_app, map_bits
from linksim.mimo import lmmse_equalize, zf_precode
from linksim.ofdm import ofdm_demodulate, ofdm_modulate
from linksim.polar import polar5g_construct, polar_encode, polar_scl_decode


def qfunc(x):
    return 0.5 * erfc(x / np.sqrt(2.0))


class Timer:
    def __init__(self, limit_s):
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit_s, (
                f"runtime {self.elapsed:.1f}s exceeds {self.limit_s}s")


def test_criterion_1_uncoded_ber_matches_qfunction():
    with Timer(30) as t:
        rng = RngStream(1001, 0)
        num_bits = 400_000
        for kind, m in (("psk", 1), ("qam", 2)):
            const = Constellation(kind, m)
            for i, ebno_db in enumerate((0.0, 2.0, 4.0)):
                sub = rng.child(10 * m + i)
                bits = binary_source([1, num_bits], sub.child(0))
                x = map_bits(bits, const)
                no = ebnodb2no(ebno_db, m, 1.0)
                y = awgn(x, no, sub.child(1))
                llr = demap_app(y, no, const)
                ber = compute_ber(bits, (llr > 0).astype(np.uint8))
                target = qfunc(np.sqrt(2.0 * 10 ** (ebno_db / 10.0)))
                assert ber * num_bits >= 100
                assert ber == pytest.approx(target, rel=0.05)
    print(f"\nPASS criterion 1: BPSK/QPSK BER within 5% of Q-function "
          f"({t.elapsed:.1f}s)")


def test_criterion_2_demapper_equals_brute_force():
    with Timer(10) as t:
        g = RngStream(1002, 0).generator()
        total = 0
        worst = 0.0
        for m in (2, 4, 6):
            const = Constellation("qam", m)
            n = 4000
            y = (g.standard_normal(n) + 1j * g.standard_normal(n)) * 1.2
            no = g.uniform(0.1, 2.0, size=n)
            prior = g.normal(size=(n, m)) * 0.5
            llr = demap_app(y[None, :], no[None, :], const,
                            prior=prior[None, :, :])
            # Independent oracle: stable log-sum-exp over the hypotheses.
            pts = const.points
            bits = const.bit_table.astype(float)
            logits = (-np.abs(y[:, None] - pts) ** 2 / no[:, None]
                      + prior @ bits.T)
            shift = logits.max(axis=1, keepdims=True)
            w = np.exp(logits - shift)
            ref = np.empty((n, m))
            for i in range(m):
                one = bits[:, i] == 1
                ref[:, i] = (np.log(w[:, one].sum(axis=1))
                             - np.log(w[:, ~one].sum(axis=1)))
            err = np.abs(llr.reshape(n, m) - ref).max()
            worst = max(worst, err)
            total += n
            assert err < 1e-5
        assert total >= 10_000
    print(f"PASS criterion 2: demap_app within {worst:.2e} of brute force "
          f"on {total} draws ({t.elapsed:.1f}s)")


def test_criterion_3_viterbi_is_maximum_likelihood():
    with Timer(10) as t:
        code = ConvCode(constraint_length=3, generators=(0o5, 0o7))
        k = 10
        msgs = np.array(list(itertools.product([0, 1], repeat=k)),
                        dtype=np.uint8)
        words = conv_encode(msgs, code)
        g = RngStream(1003, 0).generator()
        llr = g.normal(size=(1000, words.shape[1])) * 2.0
        dec = viterbi_decode(llr, code)
        metrics = llr @ (2.0 * words - 1.0).T
        ml = msgs[np.argmax(metrics, axis=1)]
        # Continuous LLRs make metric ties a null event; require them
        # absent and then demand exact agreement.
        top2 = np.sort(metrics, axis=1)[:, -2:]
        assert np.all(top2[:, 1] - top2[:, 0] > 1e-9)
        agreement = np.mean(np.all(dec == ml, axis=1))
        assert agreement == 1.0
        # Tie rule: all-zero LLRs tie every path and must yield message 0.
        assert not viterbi_decode(np.zeros((1, words.shape[1])), code).any()
    print(f"PASS criterion 3: Viterbi = exhaustive ML on 1000/1000 "
          f"instances ({t.elapsed:.1f}s)")


def test_criterion_4_scl_full_list_is_ml():
    with Timer(20) as t:
        code = polar5g_construct(4, 8)
        msgs = np.array(list(itertools.product([0, 1], repeat=4)),
                        dtype=np.uint8)
        words = polar_encode(msgs, code)
        g = RngStream(1004, 0).generator()
        trials = 10_000
        llr = g.normal(size=(trials, 8)) * 2.0
        dec = polar_scl_decode(llr, code, list_size=16)
        metrics = llr @ words.T.astype(float)
        order = np.sort(metrics, axis=1)
        untied = order[:, -1] - order[:, -2] > 1e-9
        ml = msgs[np.argmax(metrics, axis=1)]
        agree = np.all(dec[untied] == ml[untied], axis=1)
        assert agree.all()
        assert untied.sum() > trials * 0.95
    print(f"PASS criterion 4: SCL(L=16) = ML on {int(untied.sum())} untied "
          f"trials ({t.elapsed:.1f}s)")


HAMMING_ALIST = """\
7 3
3 4
2 2 2 3 1 1 1
4 4 4
1 2
1 3
2 3
1 2 3
1
2
3
1 2 4 5
1 3 4 6
2 3 4 7
"""


def test_criterion_5_ldpc_structure_and_hamming_bp():
    with Timer(30) as t:
        for k, n in ((500, 1000), (100, 300)):
            code = LdpcCode5G(k, n)
            bits = binary_source([1000, k], RngStream(1005 + k))
            full = code.encode_full(bits)
            assert not code.pcm.syndrome(full).any()

        pcm = parse_alist(HAMMING_ALIST)
        h = pcm.to_dense()
        codebook = []
        for msg in range(16):
            u = np.array([(msg >> i) & 1 for i in range(4)], dtype=np.uint8)
            parity = (h[:, :4] @ u) % 2
            codebook.append(np.concatenate([u, parity]))
        codebook = np.array(codebook, dtype=np.uint8)
        rng = RngStream(1006, 0)
        tx = codebook[rng.child(0).generator().integers(0, 16, size=5000)]
        no = ebnodb2no(6.0, 1, 4.0 / 7.0)
        y = awgn((1.0 - 2.0 * tx).astype(np.complex128), no, rng.child(1))
        llr = -4.0 * np.real(y) / no
        _, hard = bp_decode(llr, pcm, num_iter=20)
        ml = codebook[np.argmax(llr @ codebook.T.astype(float), axis=1)]
        agreement = np.mean(np.all(hard == ml, axis=1))
        assert agreement >= 0.99
    print(f"PASS criterion 5: H.c=0 on 1000 frames both sizes; Hamming BP "
          f"= ML on {agreement:.3f} of trials ({t.elapsed:.1f}s)")


def test_criterion_6_ofdm_and_channel_consistency():
    with Timer(10) as t:
        g = RngStream(1007, 0).generator()
        vals = (g.standard_normal((4, 6, 64))
                + 1j * g.standard_normal((4, 6, 64)))
        tx = ofdm_modulate(vals, cp_length=16)
        back = ofdm_demodulate(tx, 64, 16, 6)
        assert np.abs(back - vals).max() < 1e-6

        fs = 64 * 15e3
        profile = TdlProfile(powers=[0.5, 0.3, 0.2],
                             delays=[0.0, 3 / fs, 9 / fs], doppler_hz=0.0)
        cir = generate_tdl_cir(profile, 4, 6, 80 / fs, fs, RngStream(1008))
        y = apply_time_domain(tx, cir)
        rx = ofdm_demodulate(y, 64, 16, 6)
        h = cir_to_ofdm_channel(cir, 64, 15e3)
        ref = h * vals
        rel = np.abs(rx - ref).max() / np.abs(ref).max()
        assert rel < 1e-4
    print(f"PASS criterion 6: modem identity and TD/FD agreement "
          f"(rel err {rel:.1e}) ({t.elapsed:.1f}s)")


def test_criterion_7_mimo_precoding_and_equalization():
    with Timer(10) as t:
        rng = RngStream(1009, 0)
        h = complex_gaussian((10_000, 2, 4), rng.child(0))
        # Keep the well-conditioned draws (cond of H H^H moderate).
        cond = np.linalg.cond(h @ h.conj().swapaxes(-1, -2))
        h = h[cond < 1e3]
        assert len(h) > 9000
        x = complex_gaussian((len(h), 2), rng.child(1))
        xp, g_eff = zf_precode(x, h)
        y = np.einsum("brt,bt->br", h, xp)
        offdiag = np.abs(y - g_eff * x).max()
        assert offdiag < 1e-6

        h2 = complex_gaussian((5000, 3, 2), rng.child(2))
        y2 = complex_gaussian((5000, 3), rng.child(3))
        x_lmmse, _ = lmmse_equalize(y2, h2, 1e-9)
        x_zf = np.einsum("bts,bs->bt", np.linalg.pinv(h2), y2)
        assert np.abs(x_lmmse - x_zf).max() < 1e-4
    print(f"PASS criterion 7: ZF residual {offdiag:.1e}; LMMSE -> ZF at "
          f"vanishing noise ({t.elapsed:.1f}s)")


def test_criterion_8_fading_statistics():
    with Timer(60) as t:
        r_tx = np.array([[1.0, 0.5], [0.5, 1.0]])
        r_rx = np.array([[1.0, -0.4j], [0.4j, 1.0]])
        corr = CorrelationPair(r_tx, r_rx)
        x = np.ones((100_000, 2), dtype=complex)
        _, h = flat_fading(x, corr, 2, RngStream(1010))
        emp = np.einsum("bij,bkl->ijkl", h, h.conj()) / len(h)
        target = np.einsum("ik,lj->ijkl", r_rx, r_tx)
        frob = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert frob < 0.05

        fd = 60.0
        dt = 1e-3
        profile = TdlProfile(powers=[1.0], delays=[0.0], doppler_hz=fd)
        cir = generate_tdl_cir(profile, 5000, 40, dt, 1e6, RngStream(1011))
        gains = cir.gains[:, 0, :]
        worst = 0.0
        for lag in (1, 2, 4, 8):
            corr_emp = np.mean(gains[:, :-lag].conj() * gains[:, lag:]).real
            from scipy.special import j0
            target_j0 = j0(2 * np.pi * fd * lag * dt)
            worst = max(worst, abs(corr_emp - target_j0))
        assert worst < 0.03
    print(f"PASS criterion 8: covariance Frobenius err {frob:.3f}; J0 "
          f"autocorr err {worst:.3f} ({t.elapsed:.1f}s)")


LISTING1_CONFIG = {
    "code": {"family": "ldpc5g", "k": 500, "n": 1000,
             "decoder": {"variant": "sum-product", "num_iter": 20}},
    "modulation": {"kind": "qam", "bits_per_symbol": 4, "demapper": "maxlog"},
    "channel": {"kind": "awgn"},
    "sweep": {"ebno_db": [3.0, 4.0, 5.0, 6.0, 7.0], "batch_size": 1024,
              "target_block_errors": 100, "max_batches_per_point": 2},
    "seed": 42,
    "precision": "single",
}


def run_cli_sweep(tmp_path, name, workers):
    cfg_path = tmp_path / "listing1.json"
    cfg_path.write_text(json.dumps(LISTING1_CONFIG))
    out = tmp_path / name
    env = dict(os.environ, LINKSIM_WORKERS=str(workers))
    proc = subprocess.run(
        [sys.executable, "-m", "linksim.cli", "run",
         "--config", str(cfg_path), "--out", str(out)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return out.read_text()


def strip_elapsed(csv_text):
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in csv_text.splitlines())


@pytest.fixture(scope="module")
def listing1_runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("listing1")
    runs = {}
    for workers in (1, 4, 8):
        t0 = time.perf_counter()
        runs[workers] = run_cli_sweep(tmp_path, f"w{workers}.csv", workers)
        runs[f"t{workers}"] = time.perf_counter() - t0
    return runs


def test_criterion_9_listing1_pipeline(listing1_runs):
    csv_text = listing1_runs[4]
    assert listing1_runs["t4"] < 300
    lines = csv_text.strip().splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    bers = [float(r["ber"]) for r in rows]
    nonzero = [b for b in bers if b > 0]
    assert nonzero == sorted(nonzero, reverse=True)
    assert all(a > b for a, b in zip(nonzero, nonzero[1:]))
    top = rows[-1]
    assert float(top["ber"]) == 0.0
    assert int(top["bit_errors"]) == 0
    assert int(top["bits"]) >= 1_000_000
    print(f"\nPASS criterion 9: BER {bers} strictly decreasing, top point "
          f"0 errors in {top['bits']} bits ({listing1_runs['t4']:.0f}s)")


def test_criterion_10_worker_count_determinism(listing1_runs):
    total = sum(listing1_runs[f"t{w}"] for w in (1, 4, 8))
    assert total < 900
    a = strip_elapsed(listing1_runs[1])
    b = strip_elapsed(listing1_runs[4])
    c = strip_elapsed(listing1_runs[8])
    assert a == b == c
    print(f"PASS criterion 10: byte-identical CSV for 1/4/8 workers "
          f"({total:.0f}s total)")


def test_readme_and_listing1_configs_validate(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Command line", 1)[1]
    example = example.split("```json\n", 1)[1].split("```", 1)[0]
    for name, text in (("readme.json", example),
                       ("listing1.json", json.dumps(LISTING1_CONFIG))):
        path = tmp_path / name
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 0, \
            capsys.readouterr().err
