"""Sparse parity-check matrices and the alist text interchange format.

The alist layout is: line 1 ``n m``; line 2 ``max_col_degree
max_row_degree``; line 3 the n column degrees; line 4 the m row degrees;
then n lines of 1-indexed check neighbors per variable and m lines of
1-indexed variable neighbors per check.  Neighbor lines may be zero-padded
to the maximum degree; padding zeros are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class AlistParseError(ValueError):
    """Malformed alist input; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _has_repeats(a: np.ndarray) -> bool:
    """Whether a value occurs twice in ``a``; by sorting, because
    np.unique would import numpy.ma, tens of milliseconds of set-up."""
    a = np.sort(a, axis=None)
    return bool(np.any(a[1:] == a[:-1]))


@dataclass
class ParityCheckMatrix:
    """Bipartite adjacency of an (m x n) binary parity-check matrix."""

    n: int
    m: int
    col_adj: list  # per-variable sorted array of check indices
    row_adj: list  # per-check sorted array of variable indices

    def __post_init__(self):
        self.col_adj = [np.asarray(a, dtype=np.int64) for a in self.col_adj]
        self.row_adj = [np.asarray(a, dtype=np.int64) for a in self.row_adj]
        if len(self.col_adj) != self.n or len(self.row_adj) != self.m:
            raise ValueError("adjacency list lengths do not match n, m")
        edges = set()
        for v, checks in enumerate(self.col_adj):
            if _has_repeats(checks):
                raise ValueError(f"duplicate edges at variable {v}")
            for c in checks:
                if not 0 <= c < self.m:
                    raise ValueError(f"check index {c} out of range")
                edges.add((v, int(c)))
        count = 0
        for c, variables in enumerate(self.row_adj):
            if _has_repeats(variables):
                raise ValueError(f"duplicate edges at check {c}")
            for v in variables:
                if not 0 <= v < self.n:
                    raise ValueError(f"variable index {v} out of range")
                if (int(v), c) not in edges:
                    raise ValueError(f"edge ({v},{c}) missing from column lists")
                count += 1
        if count != len(edges):
            raise ValueError("row and column adjacency are inconsistent")

    @property
    def num_edges(self) -> int:
        return int(sum(len(a) for a in self.col_adj))

    @classmethod
    def from_dense(cls, h: np.ndarray) -> "ParityCheckMatrix":
        h = np.asarray(h)
        m, n = h.shape
        col_adj = [np.nonzero(h[:, v])[0] for v in range(n)]
        row_adj = [np.nonzero(h[c, :])[0] for c in range(m)]
        return cls(n=n, m=m, col_adj=col_adj, row_adj=row_adj)

    def to_dense(self) -> np.ndarray:
        h = np.zeros((self.m, self.n), dtype=np.uint8)
        for c, variables in enumerate(self.row_adj):
            h[c, variables] = 1
        return h

    def syndrome(self, bits: np.ndarray) -> np.ndarray:
        """H @ bits.T over GF(2); bits has shape [batch, n]."""
        bits = np.atleast_2d(np.asarray(bits))
        syn = np.empty((bits.shape[0], self.m), dtype=np.uint8)
        for c, variables in enumerate(self.row_adj):
            syn[:, c] = np.bitwise_xor.reduce(bits[:, variables], axis=1)
        return syn


def _ints(tokens, line_no):
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise AlistParseError(line_no, f"non-integer token: {exc}") from None


def parse_alist(text: str) -> ParityCheckMatrix:
    """Parse alist text into a :class:`ParityCheckMatrix`.

    Degree headers are verified against the neighbor lists; any mismatch,
    truncation or out-of-range index raises :class:`AlistParseError` with
    the offending line number.
    """
    lines = text.splitlines()
    rows = [(i + 1, ln.split()) for i, ln in enumerate(lines) if ln.strip()]
    if len(rows) < 4:
        raise AlistParseError(len(lines), "truncated file: missing header")

    line_no, tok = rows[0]
    if len(tok) != 2:
        raise AlistParseError(line_no, "expected 'n m'")
    n, m = _ints(tok, line_no)
    if n < 1 or m < 1:
        raise AlistParseError(line_no, f"invalid dimensions n={n} m={m}")

    line_no, tok = rows[1]
    if len(tok) != 2:
        raise AlistParseError(line_no, "expected 'max_col_degree max_row_degree'")
    max_col, max_row = _ints(tok, line_no)

    line_no, tok = rows[2]
    col_deg = _ints(tok, line_no)
    if len(col_deg) != n:
        raise AlistParseError(line_no, f"expected {n} column degrees, got {len(col_deg)}")
    line_no, tok = rows[3]
    row_deg = _ints(tok, line_no)
    if len(row_deg) != m:
        raise AlistParseError(line_no, f"expected {m} row degrees, got {len(row_deg)}")
    if max(col_deg) > max_col or max(row_deg) > max_row:
        raise AlistParseError(line_no, "degree exceeds declared maximum")

    if len(rows) < 4 + n + m:
        raise AlistParseError(len(lines), f"truncated file: expected {4 + n + m} lines")

    # Variables list check neighbors, then checks list variable neighbors.
    col_adj, row_adj = [], []
    for adj, section, degrees, node, other, bound in (
            (col_adj, rows[4:4 + n], col_deg, "variable", "check", m),
            (row_adj, rows[4 + n:4 + n + m], row_deg, "check", "variable", n)):
        for i, ((line_no, tok), degree) in enumerate(zip(section, degrees)):
            entries = [x for x in _ints(tok, line_no) if x != 0]
            if len(entries) != degree:
                raise AlistParseError(
                    line_no,
                    f"{node} {i}: header says degree {degree}, found {len(entries)}",
                )
            if any(not 1 <= x <= bound for x in entries):
                raise AlistParseError(line_no, f"{other} index out of range 1..{bound}")
            adj.append(np.asarray(sorted(x - 1 for x in entries), dtype=np.int64))

    try:
        return ParityCheckMatrix(n=n, m=m, col_adj=col_adj, row_adj=row_adj)
    except ValueError as exc:
        raise AlistParseError(4 + n + m, str(exc)) from None


def to_alist(pcm: ParityCheckMatrix) -> str:
    """Serialize to alist text, neighbor lines zero-padded to the maximum
    degree (the canonical layout; the parser ignores the padding)."""
    max_col = max((len(a) for a in pcm.col_adj), default=0)
    max_row = max((len(a) for a in pcm.row_adj), default=0)
    out = [
        f"{pcm.n} {pcm.m}",
        f"{max_col} {max_row}",
        " ".join(str(len(a)) for a in pcm.col_adj),
        " ".join(str(len(a)) for a in pcm.row_adj),
    ]
    for adj, width in ((pcm.col_adj, max_col), (pcm.row_adj, max_row)):
        for a in adj:
            entries = [int(x) + 1 for x in a] + [0] * (width - len(a))
            out.append(" ".join(str(x) for x in entries))
    return "\n".join(out) + "\n"
