"""Property tests for the reuse-distance sufficient statistics.

The fast path of the performance model rests on three identities; each
is checked here against the brute-force definition on random streams:

* ``thread_window_loads`` must equal the per-thread, per-window
  ``np.unique`` working-set loads exactly (the model's predictions are
  asserted bit-identical downstream, so these must be too);
* ``stack_distances`` must equal the O(n²) distinct-values-between
  definition;
* :class:`ReuseStats` must memoise per matrix object and report its
  build/hit counters faithfully; its per-thread x-loads memo must be
  keyed on everything the loads depend on.
"""

import numpy as np
import pytest

from repro.machine.reuse import (
    LOCALITY_WEIGHT,
    ReuseStats,
    prev_occurrence,
    stack_distances,
    thread_window_loads,
)
from repro.matrix.csr import CSRMatrix
from repro.obs.metrics import REGISTRY
from repro.spmv.schedule import Schedule, schedule_1d, schedule_2d
from ..conftest import random_csr


def brute_prev(stream):
    out = np.full(len(stream), -1, dtype=np.int64)
    last = {}
    for i, v in enumerate(stream):
        if v in last:
            out[i] = last[v]
        last[v] = i
    return out


def random_streams(rng):
    """A spread of stream shapes: empty, constant, short, long, narrow
    and wide alphabets."""
    yield np.array([], dtype=np.int64)
    yield np.zeros(17, dtype=np.int64)
    yield np.arange(23, dtype=np.int64)
    for n, hi in [(1, 1), (2, 1), (50, 4), (200, 13), (1000, 50),
                  (1000, 700), (3000, 3)]:
        yield rng.integers(0, hi, n)


def test_prev_occurrence_matches_brute_force(rng):
    for stream in random_streams(rng):
        assert np.array_equal(prev_occurrence(stream), brute_prev(stream))


def brute_window_loads(lines, capacity_lines):
    """The windowed working-set model of one stream, with np.unique."""
    distinct = int(np.unique(lines).size)
    if distinct <= capacity_lines:
        return distinct
    window = max(int(capacity_lines / max(distinct / lines.size, 0.05)),
                 capacity_lines)
    loads = sum(int(np.unique(lines[k:k + window]).size)
                for k in range(0, lines.size, window))
    return int(distinct + LOCALITY_WEIGHT * (loads - distinct))


def window_loads(stream, bounds, capacity_lines):
    return thread_window_loads(prev_occurrence(stream), np.array(bounds),
                               capacity_lines,
                               np.arange(stream.size, dtype=np.int64))


def test_thread_window_loads_fit_regime_matches_np_unique(rng):
    """A window that holds every line charges each thread its distinct
    line count, i.e. ``np.unique`` of its slice."""
    for stream in random_streams(rng):
        n = stream.size
        for lo, hi in [(0, n), (0, n // 2), (n // 3, n), (n // 4, 3 * n // 4)]:
            bounds = [0, lo, hi, n]
            got = window_loads(stream, bounds, max(n, 1))
            expect = [np.unique(stream[s:e]).size
                      for s, e in zip(bounds[:-1], bounds[1:])]
            assert got.tolist() == expect, (n, lo, hi)


def test_thread_window_loads_matches_np_unique_loop(rng):
    for stream in random_streams(rng):
        n = stream.size
        for capacity in (1, 3, 7, 64, max(n, 1)):
            for bounds in ([0, n], [0, n // 3, n]):
                got = window_loads(stream, bounds, capacity)
                expect = [brute_window_loads(stream[s:e], capacity)
                          for s, e in zip(bounds[:-1], bounds[1:])]
                assert got.tolist() == expect, (n, capacity, bounds)


def brute_stack_distances(stream):
    out = np.full(len(stream), -1, dtype=np.int64)
    last = {}
    for i, v in enumerate(stream):
        if v in last:
            out[i] = len(set(stream[last[v] + 1:i]))
        last[v] = i
    return out


def test_stack_distances_match_brute_force(rng):
    for stream in random_streams(rng):
        got = stack_distances(prev_occurrence(stream))
        assert np.array_equal(got, brute_stack_distances(stream))


def test_reuse_stats_memoised_per_matrix(rng):
    a = random_csr(60, 300, rng)
    stats = ReuseStats.for_matrix(a)
    assert ReuseStats.for_matrix(a) is stats
    assert ReuseStats.for_matrix(random_csr(60, 300, rng)) is not stats


def test_reuse_stats_counters_track_builds_and_hits(rng):
    a = random_csr(60, 300, rng)
    stats = ReuseStats.for_matrix(a)
    before = REGISTRY.values()
    p1 = stats.prev(8)
    mid = REGISTRY.values()
    assert mid["reuse.builds"] == before["reuse.builds"] + 1
    assert mid["reuse.hits"] == before["reuse.hits"]
    p2 = stats.prev(8)
    after = REGISTRY.values()
    assert p2 is p1
    assert after["reuse.builds"] == mid["reuse.builds"]
    assert after["reuse.hits"] == mid["reuse.hits"] + 1
    # a different line size is its own statistic, not a hit
    stats.prev(4)
    assert REGISTRY.values()["reuse.builds"] == after["reuse.builds"] + 1


def test_reuse_stats_values(rng):
    a = random_csr(50, 400, rng)
    stats = ReuseStats.for_matrix(a)
    assert np.array_equal(stats.lines(8), a.colidx // 8)
    assert np.array_equal(stats.prev(8), brute_prev(a.colidx // 8))
    lengths = np.diff(a.rowptr)
    prefix = stats.row_change_prefix()
    for lo, hi in [(0, a.nrows), (5, 20), (7, 8)]:
        expect = int(np.count_nonzero(np.diff(lengths[lo:hi])))
        assert prefix[hi - 1] - prefix[lo] == expect


def test_reuse_stats_dropped_on_pickle(rng):
    import pickle

    a = random_csr(30, 120, rng)
    ReuseStats.for_matrix(a).prepare()
    b = pickle.loads(pickle.dumps(a))
    assert getattr(b, ReuseStats._ATTR, None) is None
    assert np.array_equal(b.colidx, a.colidx)


def test_prepare_materialises_lazily_built_arrays(rng):
    a = random_csr(30, 120, rng)
    stats = ReuseStats.for_matrix(a).prepare(words_per_lines=(8, 4))
    assert set(stats._prev) == {8, 4}
    assert stats._row_change_prefix is not None


# ----------------------------------------------------------------------
# per-thread x-loads memo
# ----------------------------------------------------------------------
def brute_thread_x_loads(a, words_per_line, capacity_lines, schedule):
    """The windowed working-set model per thread, with np.unique."""
    out = []
    for t in range(schedule.nthreads):
        lo, hi = schedule.thread_entry_range(t)
        out.append(brute_window_loads(a.colidx[lo:hi] // words_per_line,
                                      capacity_lines))
    return np.array(out, dtype=np.int64)


def _xloads_counts():
    values = REGISTRY.values()
    return (values.get("reuse.xloads.builds", 0),
            values.get("reuse.xloads.hits", 0))


def test_thread_x_loads_warm_equals_cold(rng):
    a = random_csr(80, 900, rng, ncols=400)
    stats = ReuseStats.for_matrix(a)
    for schedule in (schedule_1d(a, 4), schedule_2d(a, 7)):
        for cap in (8, 10):
            cold = stats.thread_x_loads(8, cap, schedule)
            warm = stats.thread_x_loads(8, cap, schedule)
            assert warm is cold
            fresh = CSRMatrix(a.nrows, a.ncols, a.rowptr.copy(),
                              a.colidx.copy(), a.values.copy())
            rebuilt = ReuseStats(fresh).thread_x_loads(8, cap, schedule)
            assert np.array_equal(cold, rebuilt)
            assert np.array_equal(
                cold, brute_thread_x_loads(a, 8, cap, schedule))


def test_thread_x_loads_is_read_only(rng):
    a = random_csr(40, 300, rng, ncols=200)
    loads = ReuseStats.for_matrix(a).thread_x_loads(8, 8, schedule_1d(a, 4))
    assert loads.dtype == np.int64 and loads.shape == (4,)
    assert not loads.flags.writeable
    with pytest.raises(ValueError):
        loads[0] = 0


def test_thread_x_loads_keys_capacity_kind_and_threads(rng):
    a = random_csr(80, 900, rng, ncols=400)
    stats = ReuseStats.for_matrix(a)
    cells = [(8, 8, schedule_1d(a, 4)), (8, 10, schedule_1d(a, 4)),
             (8, 8, schedule_2d(a, 4)), (8, 8, schedule_1d(a, 8)),
             (4, 8, schedule_1d(a, 4))]
    builds, hits = _xloads_counts()
    first = [stats.thread_x_loads(*cell) for cell in cells]
    assert _xloads_counts() == (builds + len(cells), hits)
    assert len({id(loads) for loads in first}) == len(cells)
    for cell, loads in zip(cells, first):
        assert np.array_equal(loads, brute_thread_x_loads(a, *cell))
    # an equal but separately built schedule is served from the memo
    again = [stats.thread_x_loads(wpl, cap, Schedule(
                 s.kind, s.nthreads, s.entry_start.copy(),
                 s.row_start.copy()))
             for wpl, cap, s in cells]
    assert all(x is y for x, y in zip(again, first))
    assert _xloads_counts() == (builds + len(cells), hits + len(cells))
    # a window change must matter on this matrix, or the key is untested
    assert not np.array_equal(first[0], first[1])


def test_thread_x_loads_keys_hand_built_entry_ranges(rng):
    a = random_csr(60, 700, rng, ncols=400)
    stats = ReuseStats.for_matrix(a)
    split = [Schedule("1d", 2, np.array([0, a.rowptr[r], a.nnz]),
                      np.array([0, r, a.nrows])) for r in (20, 40)]
    builds, _ = _xloads_counts()
    first = stats.thread_x_loads(8, 8, split[0])
    second = stats.thread_x_loads(8, 8, split[1])
    assert _xloads_counts()[0] == builds + 2
    assert np.array_equal(first, brute_thread_x_loads(a, 8, 8, split[0]))
    assert np.array_equal(second, brute_thread_x_loads(a, 8, 8, split[1]))
    assert not np.array_equal(first, second)
