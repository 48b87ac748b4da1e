import numpy as np
import pytest

from linksim.alist import (AlistParseError, ParityCheckMatrix, parse_alist,
                           to_alist)

# (7,4) Hamming code parity-check matrix.
HAMMING_H = np.array([
    [1, 1, 0, 1, 1, 0, 0],
    [1, 0, 1, 1, 0, 1, 0],
    [0, 1, 1, 1, 0, 0, 1],
], dtype=np.uint8)

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


class TestParityCheckMatrix:
    def test_from_dense_round_trip(self):
        pcm = ParityCheckMatrix.from_dense(HAMMING_H)
        assert np.array_equal(pcm.to_dense(), HAMMING_H)
        assert pcm.n == 7 and pcm.m == 3

    def test_hamming_edge_count(self):
        pcm = ParityCheckMatrix.from_dense(HAMMING_H)
        assert pcm.num_edges == 12

    def test_syndrome_of_codewords(self):
        pcm = ParityCheckMatrix.from_dense(HAMMING_H)
        # Generator rows in systematic form matching H = [A | I].
        codewords = []
        for msg in range(16):
            u = np.array([(msg >> i) & 1 for i in range(4)], dtype=np.uint8)
            parity = (HAMMING_H[:, :4] @ u) % 2
            codewords.append(np.concatenate([u, parity]))
        codewords = np.array(codewords, dtype=np.uint8)
        assert not pcm.syndrome(codewords).any()

    def test_syndrome_flags_single_errors(self):
        pcm = ParityCheckMatrix.from_dense(HAMMING_H)
        for pos in range(7):
            word = np.zeros((1, 7), dtype=np.uint8)
            word[0, pos] = 1
            assert pcm.syndrome(word).any()

    def test_inconsistent_adjacency_rejected(self):
        with pytest.raises(ValueError):
            ParityCheckMatrix(n=2, m=1, col_adj=[[0], []], row_adj=[[0, 1]])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            ParityCheckMatrix(n=2, m=1, col_adj=[[0, 0], []], row_adj=[[0]])

    def test_duplicate_edge_in_check_rejected(self):
        with pytest.raises(ValueError, match="duplicate edges at check 0"):
            ParityCheckMatrix(n=2, m=1, col_adj=[[0], []], row_adj=[[0, 0]])


class TestParseAlist:
    def test_parses_hamming(self):
        pcm = parse_alist(HAMMING_ALIST)
        assert np.array_equal(pcm.to_dense(), HAMMING_H)

    def test_round_trip(self):
        pcm = parse_alist(HAMMING_ALIST)
        again = parse_alist(to_alist(pcm))
        assert np.array_equal(pcm.to_dense(), again.to_dense())

    def test_padding_zeros_ignored(self):
        padded = HAMMING_ALIST.replace("1 2\n", "1 2 0\n", 1)
        pcm = parse_alist(padded)
        assert np.array_equal(pcm.to_dense(), HAMMING_H)

    def test_truncated_raises_with_line(self):
        text = "\n".join(HAMMING_ALIST.splitlines()[:6]) + "\n"
        with pytest.raises(AlistParseError):
            parse_alist(text)

    def test_degree_mismatch_raises(self):
        bad = HAMMING_ALIST.replace("1 2\n", "1 2 3\n", 1)
        with pytest.raises(AlistParseError) as exc:
            parse_alist(bad)
        assert "degree" in str(exc.value)

    def test_out_of_range_index(self):
        bad = HAMMING_ALIST.replace("1 2\n", "1 9\n", 1)
        with pytest.raises(AlistParseError):
            parse_alist(bad)

    def test_non_integer_token(self):
        bad = HAMMING_ALIST.replace("7 3", "7 x")
        with pytest.raises(AlistParseError) as exc:
            parse_alist(bad)
        assert exc.value.line == 1

    def test_bad_header_shape(self):
        with pytest.raises(AlistParseError):
            parse_alist("7\n3 4\n")

    def test_row_column_mismatch_detected(self):
        # Remove variable 5 from check 2's row list only.
        bad = HAMMING_ALIST.replace("1 2 4 5", "1 2 4")
        bad = bad.replace("4 4 4", "3 4 4")
        with pytest.raises(AlistParseError):
            parse_alist(bad)
