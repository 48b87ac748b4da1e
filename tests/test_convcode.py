import itertools
import tracemalloc

import numpy as np
import pytest

from linksim import convcode
from linksim.channel import awgn
from linksim.convcode import ConvCode, conv_encode, viterbi_decode
from linksim.core import RngStream, binary_source, ebnodb2no


def seed_conv_encode(bits, code):
    """Frozen copy of the original step-by-step encoder: the equivalence
    oracle."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    batch, k = bits.shape
    ng = code.num_outputs
    kk = code.constraint_length
    table = np.array([[bin(v & g).count("1") & 1 for g in code.generators]
                      for v in range(1 << kk)], dtype=np.uint8)
    total = k + code.tail_bits
    out = np.empty((batch, total, ng), dtype=np.uint8)
    state = np.zeros(batch, dtype=np.int64)
    for t in range(total):
        u = bits[:, t].astype(np.int64) if t < k else np.zeros(batch, dtype=np.int64)
        reg = (u << (kk - 1)) | state
        out[:, t, :] = table[reg]
        state = reg >> 1
    return out.reshape(batch, total * ng)


def seed_viterbi_decode(llr, code):
    """Frozen copy of the original predecessor-table decoder: the
    equivalence oracle, ties and the end-state argmax included."""
    llr = np.atleast_2d(np.asarray(llr, dtype=np.float64))
    ng = code.num_outputs
    total = llr.shape[1] // ng
    k = total - code.tail_bits
    batch = llr.shape[0]
    num_states = code.num_states
    kk = code.constraint_length

    reg = (np.arange(2)[:, None] << (kk - 1)) | np.arange(num_states)[None, :]
    next_state = reg >> 1  # [2, S]
    table = np.array([[bin(v & g).count("1") & 1 for g in code.generators]
                      for v in range(1 << kk)], dtype=np.int8)
    out_pm = 2.0 * table[reg] - 1.0  # [2, S, ng], +/-1 symbols

    preds = [[] for _ in range(num_states)]
    for u in range(2):
        for s in range(num_states):
            preds[next_state[u, s]].append((s, u))
    for p in preds:
        p.sort()
    pred_state = np.array([[p[i][0] for i in range(len(preds[0]))] for p in preds])
    pred_input = np.array([[p[i][1] for i in range(len(preds[0]))] for p in preds])

    metrics = np.full((batch, num_states), -np.inf)
    metrics[:, 0] = 0.0
    backptr = np.zeros((batch, total, num_states), dtype=np.int8)

    llr_steps = llr.reshape(batch, total, ng)
    for t in range(total):
        bm = np.einsum("usg,bg->bus", out_pm, llr_steps[:, t, :])
        cand = metrics[:, None, :] + bm  # [batch, 2, S] indexed (u, from)
        if t >= k:  # tail: only u = 0 allowed
            cand[:, 1, :] = -np.inf
        gathered = cand[:, pred_input.T, pred_state.T]  # [batch, P, S_dest]
        choice = np.argmax(gathered, axis=1)  # first max -> lower pred state
        metrics = np.take_along_axis(gathered, choice[:, None, :], axis=1)[:, 0, :]
        backptr[:, t, :] = choice

    if code.termination == "zero-tail":
        end_state = np.zeros(batch, dtype=np.int64)
    else:
        end_state = np.argmax(metrics, axis=1)
    decisions = np.empty((batch, total), dtype=np.uint8)
    rows = np.arange(batch)
    state = end_state
    for t in range(total - 1, -1, -1):
        choice = backptr[rows, t, state]
        decisions[:, t] = pred_input[state, choice]
        state = pred_state[state, choice]
    return decisions[:, :k]


def exhaustive_ml(llr, code, k):
    """Brute-force maximum-likelihood oracle over all 2^k messages.

    Ties resolve to the message whose trellis path takes the lower
    predecessor state at the latest differing step; for this code family
    that coincides with the smaller message read as a binary number with
    the first bit most significant (checked empirically in the tie test).
    """
    msgs = np.array(list(itertools.product([0, 1], repeat=k)), dtype=np.uint8)
    words = conv_encode(msgs, code)
    metrics = llr @ (2.0 * words - 1.0).T
    return msgs, words, metrics


class TestConvCode:
    def test_defaults(self):
        code = ConvCode()
        assert code.num_outputs == 2
        assert code.num_states == 4
        assert code.tail_bits == 2

    def test_invalid_generators(self):
        with pytest.raises(ValueError):
            ConvCode(constraint_length=3, generators=(0o5,))
        with pytest.raises(ValueError):
            ConvCode(constraint_length=3, generators=(0o5, 0o10))

    def test_invalid_termination(self):
        with pytest.raises(ValueError):
            ConvCode(termination="tail-biting")


class TestConvEncode:
    def test_hand_traced_5_7(self):
        # K=3 (5,7): g0 = 101, g1 = 111, MSB on the current input.
        # Input 1 0 1 1 with zero tail 0 0, register u s1 s0:
        #  t=0 reg=100: c=(1,1); t=1 reg=010: c=(0,1); t=2 reg=101: c=(0,0)
        #  t=3 reg=110: c=(1,0); t=4 reg=011: c=(1,0); t=5 reg=001: c=(1,1)
        code = ConvCode()
        out = conv_encode(np.array([[1, 0, 1, 1]]), code)
        assert out.tolist() == [[1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1]]

    def test_all_zero_input(self):
        code = ConvCode()
        out = conv_encode(np.zeros((1, 6), dtype=np.uint8), code)
        assert not out.any()

    def test_linearity(self):
        code = ConvCode()
        rng = RngStream(40, 0)
        a = binary_source([20, 12], rng.child(0))
        b = binary_source([20, 12], rng.child(1))
        assert np.array_equal(
            conv_encode(a ^ b, code),
            conv_encode(a, code) ^ conv_encode(b, code),
        )

    def test_output_length(self):
        code = ConvCode(constraint_length=4, generators=(0o13, 0o15, 0o17))
        out = conv_encode(binary_source([2, 10], RngStream(41)), code)
        assert out.shape == (2, 3 * (10 + 3))

    @pytest.mark.parametrize("termination", ["zero-tail", "none"])
    @pytest.mark.parametrize("constraint_length", range(2, 10))
    def test_matches_loop_encoder(self, constraint_length, termination):
        g = RngStream(47, constraint_length).generator()
        for num_outputs in (2, 3, 4):
            gens = tuple(int(v) for v in g.integers(
                1, 1 << constraint_length, size=num_outputs))
            code = ConvCode(constraint_length, gens, termination)
            for batch in (1, 3, 64):
                bits = g.integers(0, 2, size=(batch, 37), dtype=np.uint8)
                assert np.array_equal(conv_encode(bits, code),
                                      seed_conv_encode(bits, code)), \
                    (gens, batch)

    def test_terminated_path_returns_to_zero(self):
        # Re-encoding the decoded bits of the tail section must emit the
        # all-zero continuation: verify state closure through the decoder.
        code = ConvCode()
        bits = binary_source([50, 8], RngStream(42))
        out = conv_encode(bits, code)
        llr = (2.0 * out - 1.0) * 5.0
        assert np.array_equal(viterbi_decode(llr, code), bits)


class TestViterbi:
    def test_matches_exhaustive_ml(self):
        code = ConvCode()
        k = 8
        g = RngStream(43, 0).generator()
        llr = g.normal(size=(1000, code.num_outputs * (k + code.tail_bits)))
        dec = viterbi_decode(llr, code)
        msgs, _, metrics = exhaustive_ml(llr, code, k)
        best = metrics.max(axis=1)
        got = metrics[np.arange(len(llr)),
                      (msgs[None] == dec[:, None]).all(-1).argmax(1)]
        # The decoded message always achieves the ML metric.
        assert np.allclose(got, best, atol=1e-9)

    def test_matches_ml_other_code(self):
        code = ConvCode(constraint_length=4, generators=(0o13, 0o17))
        k = 6
        g = RngStream(44, 0).generator()
        llr = g.normal(size=(300, code.num_outputs * (k + code.tail_bits)))
        dec = viterbi_decode(llr, code)
        msgs, _, metrics = exhaustive_ml(llr, code, k)
        got = metrics[np.arange(len(llr)),
                      (msgs[None] == dec[:, None]).all(-1).argmax(1)]
        assert np.allclose(got, metrics.max(axis=1), atol=1e-9)

    def test_awgn_decoding(self):
        code = ConvCode()
        rng = RngStream(45, 0)
        bits = binary_source([200, 100], rng.child(0))
        out = conv_encode(bits, code)
        no = ebnodb2no(4.0, 1, 100.0 / out.shape[1])
        x = (1.0 - 2.0 * out).astype(np.complex128)
        y = awgn(x, no, rng.child(1))
        llr = -4.0 * np.real(y) / no
        dec = viterbi_decode(llr, code)
        assert np.mean(dec != bits) < 0.01

    def test_all_zero_llr_decodes_to_zero(self):
        # Every path metric ties at 0; the stated rule (prefer the lower
        # predecessor state on ties) yields the all-zero message.
        code = ConvCode()
        llr = np.zeros((3, 2 * 12))
        assert not viterbi_decode(llr, code).any()

    def test_untermination_mode(self):
        code = ConvCode(termination="none")
        bits = binary_source([50, 20], RngStream(46))
        out = conv_encode(bits, code)
        assert out.shape == (50, 40)
        llr = (2.0 * out - 1.0) * 5.0
        assert np.array_equal(viterbi_decode(llr, code), bits)

    @pytest.mark.parametrize("termination", ["zero-tail", "none"])
    @pytest.mark.parametrize("constraint_length", range(2, 10))
    def test_matches_seed_decoder(self, constraint_length, termination):
        # Gaussian LLRs, 0.5-grid LLRs (metric ties) and all-zero LLRs
        # (every metric ties, the end-state argmax under "none" included).
        g = RngStream(48, constraint_length).generator()
        for num_outputs in (2, 3, 4, 6):
            gens = tuple(int(v) for v in g.integers(
                1, 1 << constraint_length, size=num_outputs))
            code = ConvCode(constraint_length, gens, termination)
            length = num_outputs * (30 + code.tail_bits)
            for batch in (1, 200):
                for llr in (g.normal(size=(batch, length)),
                            0.5 * g.integers(-3, 4, size=(batch, length)),
                            np.zeros((batch, length))):
                    for dtype in (np.float32, np.float64):
                        x = llr.astype(dtype)
                        assert np.array_equal(viterbi_decode(x, code),
                                              seed_viterbi_decode(x, code)), \
                            (gens, batch, dtype)

    @pytest.mark.parametrize("termination", ["zero-tail", "none"])
    @pytest.mark.parametrize("constraint_length, generators", [
        (7, (0o133, 0o171)),
        (7, (0o117, 0o127, 0o155, 0o171, 0o133, 0o165)),
        (9, (0o561, 0o753)),
        (9, (0o557, 0o663, 0o711, 0o561, 0o753, 0o715)),
    ])
    def test_chunk_boundaries_match_seed_decoder(
            self, constraint_length, generators, termination):
        # Branch metrics are computed per chunk of steps; step counts
        # around and across the chunk length must not change a decision.
        code = ConvCode(constraint_length, generators, termination)
        batch = 128
        labels = len({tuple(bin(reg & g).count("1") & 1 for g in generators)
                      for reg in range(2 * code.num_states)})
        chunk = max(1, convcode._TILE_BYTES // (8 * labels * batch))
        g = RngStream(49, constraint_length).generator()
        for steps in (chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            if steps <= code.tail_bits:
                continue
            length = code.num_outputs * steps
            for llr in (g.normal(size=(batch, length)),
                        0.5 * g.integers(-3, 4, size=(batch, length)),
                        np.zeros((batch, length))):
                assert np.array_equal(viterbi_decode(llr, code),
                                      seed_viterbi_decode(llr, code)), \
                    (steps, chunk)

    def test_memory_bounded_by_back_pointers(self):
        # K=9 with 6 independent generators: all 64 labels are distinct, so
        # branch metrics of every step at once would take 150 MB.
        code = ConvCode(9, (0o557, 0o663, 0o711, 0o561, 0o753, 0o715))
        batch, steps = 128, 2298
        llr = RngStream(50, 0).generator().normal(
            size=(batch, code.num_outputs * steps))  # float64: no cast copy
        k = steps - code.tail_bits
        tracemalloc.start()
        try:
            out = viterbi_decode(llr, code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (batch, k)
        assert peak < steps * code.num_states * batch + out.nbytes + (8 << 20)

    def test_length_validation(self):
        code = ConvCode()
        with pytest.raises(ValueError):
            viterbi_decode(np.zeros((1, 7)), code)


def traced_peak(call):
    """The result of call() and the tracemalloc peak it reached."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPackedSurvivors:
    """One bit per trellis decision, and the LLRs used as given."""

    def test_memory_k7_float32(self):
        # ofdm-tdl's decode: the K=7 code on 128 rows of k=2298, float32
        # LLRs as the demapper hands them over at precision single.
        code = ConvCode(7, (0o133, 0o171))
        batch, steps = 128, 2298 + code.tail_bits
        llr = RngStream(51, 0).generator().normal(
            size=(batch, code.num_outputs * steps)).astype(np.float32)
        out, peak = traced_peak(lambda: viterbi_decode(llr, code))
        assert out.shape == (batch, 2298)
        assert peak < 12 << 20

    def test_memory_bounded_by_packed_survivors(self):
        # The six-generator K=9 case of test_memory_bounded_by_back_pointers,
        # bounded by one bit per state and step.
        code = ConvCode(9, (0o557, 0o663, 0o711, 0o561, 0o753, 0o715))
        batch, steps = 128, 2298
        llr = RngStream(50, 0).generator().normal(
            size=(batch, code.num_outputs * steps))
        out, peak = traced_peak(lambda: viterbi_decode(llr, code))
        assert out.shape == (batch, steps - code.tail_bits)
        assert peak < steps * code.num_states * batch / 8 + (8 << 20)

    @pytest.mark.parametrize("termination", ["zero-tail", "none"])
    @pytest.mark.parametrize("constraint_length, generators", [
        (7, (0o133, 0o171)),
        (7, (0o117, 0o127, 0o155, 0o171, 0o133, 0o165)),
        (9, (0o561, 0o753)),
        (9, (0o557, 0o663, 0o711, 0o561, 0o753, 0o715)),
    ])
    def test_float32_chunk_boundaries_match_seed_decoder(
            self, constraint_length, generators, termination):
        # float32 LLRs reach the float64 branch metrics uncast; magnitudes
        # from 1e-6 to 1e6 must give the decisions of a float64 copy.
        code = ConvCode(constraint_length, generators, termination)
        batch = 128
        labels = len({tuple(bin(reg & g).count("1") & 1 for g in generators)
                      for reg in range(2 * code.num_states)})
        chunk = max(1, convcode._TILE_BYTES // (8 * labels * batch))
        g = RngStream(52, constraint_length).generator()
        for steps in (chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            if steps <= code.tail_bits:
                continue
            size = (batch, code.num_outputs * steps)
            llr = (g.choice([-1.0, 1.0], size=size)
                   * 10.0 ** g.uniform(-6, 6, size=size)).astype(np.float32)
            assert np.array_equal(viterbi_decode(llr, code),
                                  seed_viterbi_decode(llr, code)), \
                (steps, chunk)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_input_unchanged(self, dtype):
        code = ConvCode(7, (0o133, 0o171))
        llr = RngStream(53, 0).generator().integers(
            -4, 5, size=(16, 2 * 40)).astype(dtype)
        before = llr.copy()
        viterbi_decode(llr, code)
        assert llr.dtype == dtype
        assert np.array_equal(llr, before)
