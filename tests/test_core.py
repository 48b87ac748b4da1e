import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from linksim import core
from linksim.core import (LLR_MAX, RngStream, binary_source, compute_ber,
                          compute_bler, count_errors, ebnodb2no, hard_decide,
                          map_tiles)


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(42, 7).generator().random(100)
        b = RngStream(42, 7).generator().random(100)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = RngStream(42, 0).generator().random(100)
        b = RngStream(42, 1).generator().random(100)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(1, 0).generator().random(100)
        b = RngStream(2, 0).generator().random(100)
        assert not np.array_equal(a, b)

    def test_children_distinct_and_reproducible(self):
        parent = RngStream(5, 3)
        kids = [parent.child(i) for i in range(16)]
        ids = {k.stream_id for k in kids}
        assert len(ids) == 16
        assert parent.child(4) == kids[4]

    def test_child_differs_from_parent(self):
        parent = RngStream(5, 3)
        assert parent.child(0).stream_id != parent.stream_id

    def test_grandchildren_do_not_collide(self):
        root = RngStream(0, 0)
        ids = set()
        for i in range(8):
            for j in range(8):
                ids.add(root.child(i).child(j).stream_id)
        assert len(ids) == 64


class TestBinarySource:
    def test_values_are_bits(self):
        bits = binary_source([100, 50], RngStream(0))
        assert bits.dtype == np.uint8
        assert set(np.unique(bits)) <= {0, 1}

    def test_roughly_balanced(self):
        bits = binary_source([1000, 100], RngStream(1))
        assert abs(bits.mean() - 0.5) < 0.01

    def test_shape(self):
        assert binary_source([3, 4, 5], RngStream(0)).shape == (3, 4, 5)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            binary_source([], RngStream(0))
        with pytest.raises(ValueError):
            binary_source([0, 5], RngStream(0))


class TestEbnodb2no:
    def test_known_value(self):
        # 10 dB, 4 bits/symbol, rate 1/2: N0 = 1 / (10 * 4 * 0.5) = 0.05
        assert ebnodb2no(10.0, 4, 0.5) == pytest.approx(0.05)

    def test_zero_db_uncoded_bpsk(self):
        assert ebnodb2no(0.0, 1, 1.0) == pytest.approx(1.0)

    def test_monotone_in_ebno(self):
        nos = [ebnodb2no(d, 2, 0.5) for d in range(-5, 15)]
        assert all(a > b for a, b in zip(nos, nos[1:]))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ebnodb2no(0.0, 0, 0.5)
        with pytest.raises(ValueError):
            ebnodb2no(0.0, 2, 0.0)
        with pytest.raises(ValueError):
            ebnodb2no(0.0, 2, 1.5)


class TestErrorMetrics:
    def test_ber_counts_positions(self):
        b = np.array([[0, 1, 0, 1]], dtype=np.uint8)
        bh = np.array([[0, 1, 1, 1]], dtype=np.uint8)
        assert compute_ber(b, bh) == pytest.approx(0.25)

    def test_bler_counts_rows(self):
        b = np.zeros((4, 8), dtype=np.uint8)
        bh = b.copy()
        bh[1, 3] = 1
        bh[2, :] = 1
        assert compute_bler(b, bh) == pytest.approx(0.5)

    def test_count_errors(self):
        b = np.zeros((3, 5), dtype=np.uint8)
        bh = b.copy()
        bh[0, 0] = 1
        bh[0, 1] = 1
        bh[2, 4] = 1
        assert count_errors(b, bh) == (3, 2)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            compute_ber(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            count_errors(np.zeros((2, 3)), np.zeros((3, 2)))


class TestHardDecide:
    def test_convention(self):
        # 1 iff L > 0; the tie L == 0 decides 0.
        llr = np.array([-2.0, -1e-12, 0.0, 1e-12, LLR_MAX])
        assert np.array_equal(hard_decide(llr), [0, 0, 0, 1, 1])


class TestPairwiseSum:
    def test_order_of_a_contiguous_axis_sum(self):
        # Magnitudes 1e16 apart: the rounding of a sum, and so its bytes,
        # depend on the order of the additions.
        g = np.random.default_rng(17)
        values = [1e16, -1e16, 1.0, -1.0, 3.0, -3.0, 0.5]
        for n in range(1, 1025):
            for paths in (1, 8):
                x = g.choice(values, size=(n, 3, paths))
                want = np.ascontiguousarray(x.transpose(1, 2, 0)).sum(axis=-1)
                got = core._pairwise_sum(x)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (n, paths)


def run_with_timeout(fn, seconds=60):
    """Run ``fn`` on a daemon thread; fail instead of hanging on a deadlock."""
    done = []

    def target():
        try:
            done.append((fn(), None))
        except BaseException as error:
            done.append((None, error))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert done, f"no result within {seconds} s"
    result, error = done[0]
    if error is not None:
        raise error
    return result


class TestMapTiles:
    @pytest.mark.parametrize("helpers", [0, 1, 3])
    @pytest.mark.parametrize("count", [0, 1, 2, 5, 100])
    def test_each_start_once(self, monkeypatch, helpers, count):
        monkeypatch.setattr(core, "_HELPERS", helpers)
        seen = []
        lock = threading.Lock()

        def fn(start):
            with lock:
                seen.append(start)

        map_tiles(fn, range(0, 7 * count, 7))
        assert sorted(seen) == list(range(0, 7 * count, 7))

    def test_without_helpers_runs_inline(self, monkeypatch):
        monkeypatch.setattr(core, "_HELPERS", 0)
        threads = set()
        map_tiles(lambda start: threads.add(threading.get_ident()), range(9))
        assert threads == {threading.get_ident()}

    def test_helper_count_follows_affinity(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity mask on this platform")
        assert core._HELPERS == len(os.sched_getaffinity(0)) - 1

    def test_helper_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(core, "_HELPERS", 1)
        helper_ran = threading.Event()
        calls = []

        def fn(start):
            calls.append(start)
            if threading.current_thread().name.startswith("linksim-tile"):
                helper_ran.set()
                raise KeyError(f"tile {start}")
            # The caller waits, so the helper gets a tile.
            assert helper_ran.wait(30)

        with pytest.raises(KeyError, match="tile"):
            run_with_timeout(lambda: map_tiles(fn, range(50)))
        # The other threads stop at their next tile.
        assert len(calls) < 50

    def test_caller_exception_propagates(self, monkeypatch):
        monkeypatch.setattr(core, "_HELPERS", 2)

        def fn(start):
            if start == 3:
                raise ZeroDivisionError
        with pytest.raises(ZeroDivisionError):
            run_with_timeout(lambda: map_tiles(fn, range(8)))

    def test_nested_calls_do_not_deadlock(self, monkeypatch):
        # Tiles that themselves call map_tiles, from several threads of
        # another pool at once; a helper task waiting behind busy helpers is
        # cancelled, not waited for.
        monkeypatch.setattr(core, "_HELPERS", 1)
        totals = []
        lock = threading.Lock()

        def inner(start):
            with lock:
                totals.append(start)

        def outer(start):
            map_tiles(inner, range(start * 10, start * 10 + 10))

        def sweep_worker():
            map_tiles(outer, range(6))

        def run():
            workers = [threading.Thread(target=sweep_worker) for _ in range(3)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            return sorted(totals)

        assert run_with_timeout(run) == sorted(list(range(60)) * 3)

    def test_nested_calls_stay_within_helper_count(self, monkeypatch):
        # The nested calls of test_nested_calls_do_not_deadlock share one
        # process-wide count: at no time are more than _HELPERS helpers
        # alive, and once they return a call can start a helper again.
        monkeypatch.setattr(core, "_HELPERS", 1)
        alive = []

        def tile(start):
            alive.append(sum(t.name.startswith("linksim-tile")
                             for t in threading.enumerate()))

        def sweep_worker():
            map_tiles(lambda start: map_tiles(tile, range(10)), range(6))

        def run():
            workers = [threading.Thread(target=sweep_worker) for _ in range(3)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_with_timeout(run)
        finally:
            sys.setswitchinterval(interval)
        assert len(alive) == 180 and max(alive) <= 1, max(alive)
        helper_ran = threading.Event()

        def probe(start):
            if threading.current_thread().name.startswith("linksim-tile"):
                helper_ran.set()
            assert helper_ran.wait(5)
        run_with_timeout(lambda: map_tiles(probe, range(4)))

    def test_one_cpu_starts_no_thread(self):
        # Under a one-CPU affinity mask a multi-tile BP decode runs on the
        # calling thread alone.
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no affinity mask on this platform")
        run_script(
            "import os, threading\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import numpy as np\n"
            "from linksim import core\n"
            "from linksim.ldpc import LdpcCode5G, ldpc5g_decode\n"
            "code = LdpcCode5G(100, 300)\n"
            "rows = 3 * code._graph.tile_rows + 1\n"
            "llr = np.random.default_rng(0).standard_normal((rows, 300))\n"
            "ldpc5g_decode(llr, code)\n"
            "assert core._HELPERS == 0, core._HELPERS\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
        )

    def test_no_thread_outlives_the_call(self):
        run_script(
            USES_HELPER +
            "before = threading.active_count()\n"
            "assert uses_helper(), 'no tile ran on a helper'\n"
            "assert threading.active_count() == before, threading.enumerate()\n"
        )

    def test_forked_child_still_uses_helpers(self):
        # A process forked after a call starts helpers of its own.
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork on this platform")
        run_script(
            USES_HELPER +
            "assert uses_helper(), 'no tile ran on a helper'\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    try:\n"
            "        os._exit(0 if uses_helper() else 3)\n"
            "    except BaseException:\n"
            "        os._exit(4)\n"
            "status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])\n"
            "assert status == 0, f'child exited {status}'\n"
        )


# Script prelude: uses_helper() runs four tiles with one helper allowed and
# says whether a linksim-tile thread ran one; the caller's tiles wait (at
# most 5 s) for the helper to start, and the helper's tiles end late, so
# the call returns before the helper only if it does not join it.
USES_HELPER = (
    "import os, threading, time\n"
    "from linksim import core\n"
    "core._HELPERS = 1\n"
    "def uses_helper():\n"
    "    ran = threading.Event()\n"
    "    def fn(start):\n"
    "        if threading.current_thread().name.startswith('linksim-tile'):\n"
    "            ran.set()\n"
    "            time.sleep(0.1)\n"
    "        else:\n"
    "            ran.wait(5)\n"
    "    core.map_tiles(fn, range(4))\n"
    "    return ran.is_set()\n"
)


def run_script(script):
    """Run ``script`` in a new interpreter with linksim on its path; fail
    with its stderr unless it exits 0."""
    src = str(Path(core.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
