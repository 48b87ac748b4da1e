"""Regenerate the bundled LDPC base graphs under src/linksim/data/.

``ldpc_bg1.txt`` / ``ldpc_bg2.txt`` are quasi-cyclic LDPC base graphs (46x68
with 22 systematic columns, 42x52 with 10), one ``row col shift`` entry per
line; the library reads the sizes off the entries.  The four core parity
columns use the classic accumulate structure whose row sum isolates the
first parity block through a single shift-1 circulant, so encoding is a
cheap structured solve.  Connection patterns and circulant shifts are drawn
from a fixed seed with short-cycle avoidance for the lifting sizes exercised
in the tests.  Both files are produced deterministically.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "linksim" / "data"
MAX_LIFT = 384
# Lifting sizes whose lifted graphs should stay free of length-4 cycles.
CYCLE_MODULI = (384, 192, 96, 48, 24, 16, 10, 20, 40)


def _core_entries(kb: int) -> dict:
    # Accumulate core over parity columns kb..kb+3; the sum of the four
    # core rows reduces to a single shift-1 circulant on column kb.
    return {
        (0, kb): 1,
        (1, kb): 0,
        (3, kb): 0,
        (0, kb + 1): 0,
        (1, kb + 1): 0,
        (1, kb + 2): 0,
        (2, kb + 2): 0,
        (2, kb + 3): 0,
        (3, kb + 3): 0,
    }


def _has_short_cycle(entries: dict, r: int, c: int, s: int) -> bool:
    """Would adding (r, c, s) close a length-4 cycle in a lifted graph?"""
    rows_in_c = [(r2, s2) for (r2, c2), s2 in entries.items() if c2 == c and r2 != r]
    cols_in_r = {c2: s2 for (r2, c2), s2 in entries.items() if r2 == r and c2 != c}
    for r2, s_r2c in rows_in_c:
        for c2, s_rc2 in cols_in_r.items():
            s_r2c2 = entries.get((r2, c2))
            if s_r2c2 is None:
                continue
            alt = s - s_rc2 + s_r2c2 - s_r2c
            if any(alt % z == 0 for z in CYCLE_MODULI):
                return True
    return False


def _add_entry(entries: dict, rng: np.random.Generator, r: int, c: int) -> None:
    if (r, c) in entries:
        return
    for _ in range(400):
        s = int(rng.integers(0, MAX_LIFT))
        if not _has_short_cycle(entries, r, c, s):
            entries[(r, c)] = s
            return
    entries[(r, c)] = int(rng.integers(0, MAX_LIFT))


def make_base_graph(seed: int, m_b: int, n_b: int, kb: int,
                    core_row_deg: int, ext_degrees) -> dict:
    rng = np.random.default_rng(seed)
    entries = _core_entries(kb)

    # Extension parity columns carry a single identity block each.
    for r in range(4, m_b):
        entries[(r, kb + 4 + (r - 4))] = 0

    # Core rows: dense connections into the systematic columns, always
    # including the two punctured columns 0 and 1.
    for r in range(4):
        deg = core_row_deg if r < 2 else core_row_deg - 2
        cols = rng.choice(np.arange(2, kb), size=deg - 2, replace=False)
        for c in [0, 1, *cols.tolist()]:
            _add_entry(entries, rng, r, int(c))

    # Extension rows: a few connections into systematic + core parity
    # columns, denser near the top (higher-rate checks) and sparser below.
    for i, r in enumerate(range(4, m_b)):
        deg = ext_degrees[min(i * len(ext_degrees) // (m_b - 4), len(ext_degrees) - 1)]
        weights = np.ones(kb + 4)
        weights[0] = weights[1] = 3.0  # punctured columns need protection
        weights /= weights.sum()
        cols = rng.choice(np.arange(kb + 4), size=deg, replace=False, p=weights)
        for c in cols:
            _add_entry(entries, rng, r, int(c))

    # Every systematic column must reach at least three checks.
    for c in range(kb):
        deg = sum(1 for (r2, c2) in entries if c2 == c)
        while deg < 3:
            r = int(rng.integers(4, m_b))
            if (r, c) not in entries:
                _add_entry(entries, rng, r, c)
                deg += 1
    return entries


def write_base_graph(path: pathlib.Path, entries: dict, m_b: int, n_b: int, kb: int):
    lines = [f"# base graph: {m_b} rows, {n_b} cols, {kb} systematic cols"]
    for (r, c) in sorted(entries):
        lines.append(f"{r} {c} {entries[(r, c)]}")
    path.write_text("\n".join(lines) + "\n")


def main(argv=()):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    DATA_DIR.mkdir(parents=True, exist_ok=True)

    bg1 = make_base_graph(seed=20240817, m_b=46, n_b=68, kb=22,
                          core_row_deg=16, ext_degrees=[8, 6, 5, 4, 3])
    write_base_graph(DATA_DIR / "ldpc_bg1.txt", bg1, 46, 68, 22)

    bg2 = make_base_graph(seed=20240818, m_b=42, n_b=52, kb=10,
                          core_row_deg=8, ext_degrees=[6, 5, 4, 3, 3])
    write_base_graph(DATA_DIR / "ldpc_bg2.txt", bg2, 42, 52, 10)
    print("assets written to", DATA_DIR)


if __name__ == "__main__":
    main(sys.argv[1:])
