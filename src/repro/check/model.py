"""Differential checks of the performance model's fast paths.

The model has two layers of "clever" code that must stay bit-identical
to their naive definitions:

* the **reuse primitives** (:mod:`repro.machine.reuse`) — one-argsort
  previous-occurrence arrays, the vectorised all-threads windowed
  working-set loads and merge-counted LRU stack distances.  Each is
  cross-validated against a naive per-element Python oracle (dict of
  last positions, per-window sets, an explicit LRU stack);
* the **batched fast path** — ``predict_many`` shares one
  :class:`ReuseStats` pass and memoised schedules; its output must
  equal naive per-cell evaluation on the reference loop
  (:func:`repro.util.fastpath.reference_mode`), cell by cell, bit for
  bit.

The memoised :class:`ReuseStats` container is additionally checked
against a from-scratch rebuild on an equal-but-distinct matrix object,
so a stale or cross-wired memo entry cannot hide behind its own
consistency.
"""

from __future__ import annotations

import numpy as np

from ..machine import model as model_mod
from ..machine import reuse as reuse_mod
from ..machine.arch import get_architecture
from ..matrix.csr import CSRMatrix
from ..obs.trace import span
from ..spmv import schedule_1d, schedule_2d
from ..util.fastpath import reference_mode
from .findings import CheckReport

SUITE = "model"

#: architectures the differential pass evaluates (one Intel, one AMD,
#: one ARM keeps the pass cheap while covering distinct cache shapes)
CHECK_ARCHS = ("Skylake", "Rome", "TX2")

#: two machines whose L2 windows differ (8 vs 10 lines), evaluated at
#: one shared thread count: equal schedules, so only the window tells
#: their memoised per-thread x-loads apart
WINDOW_ARCHS = ("Skylake", "Ice Lake")
WINDOW_THREADS = 16


def _naive_prev(stream) -> np.ndarray:
    last: dict = {}
    prev = np.full(len(stream), -1, dtype=np.int64)
    for i, v in enumerate(stream):
        prev[i] = last.get(int(v), -1)
        last[int(v)] = i
    return prev


def _naive_window_loads(stream, bounds, capacity: int) -> list:
    """The model's windowed working-set loads of each thread's slice
    ``stream[bounds[t]:bounds[t+1]]``, by per-window sets."""
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = [int(v) for v in stream[lo:hi]]
        distinct = len(set(part))
        if distinct <= capacity:
            out.append(distinct)
            continue
        density = distinct / len(part)
        window = max(int(capacity / max(density, 0.05)), capacity)
        loads = sum(len(set(part[s:s + window]))
                    for s in range(0, len(part), window))
        out.append(int(distinct
                       + reuse_mod.LOCALITY_WEIGHT * (loads - distinct)))
    return out


def _naive_stack_distances(stream) -> np.ndarray:
    stack: list = []
    dist = np.full(len(stream), -1, dtype=np.int64)
    for i, v in enumerate(stream):
        v = int(v)
        if v in stack:
            dist[i] = stack[::-1].index(v)  # distinct values above v
            stack.remove(v)
        stack.append(v)  # top of stack = end of list
    return dist


def _fresh_copy(a: CSRMatrix) -> CSRMatrix:
    """An equal matrix sharing no object identity with ``a`` — a memo
    keyed or cached on the original object cannot serve it."""
    return CSRMatrix(a.nrows, a.ncols, a.rowptr.copy(),
                     a.colidx.copy(), a.values.copy())


def check_reuse_primitives(matrices, words_per_line: int = 8) -> CheckReport:
    """Reuse-statistic primitives vs naive per-element oracles."""
    report = CheckReport(suites=[SUITE])
    with span("check.model.reuse"):
        for name, a in matrices:
            subject = f"matrix={name}"
            lines = a.colidx // words_per_line
            small = lines[:512]  # the list-based oracles are O(n^2)

            prev = reuse_mod.prev_occurrence(small)
            want = _naive_prev(small)
            report.check(
                bool(np.array_equal(prev, want)), SUITE,
                "prev-occurrence-matches-naive", subject,
                "argsort-based previous-occurrence differs from the "
                "dict-of-last-positions oracle")

            positions = np.arange(small.size, dtype=np.int64)
            for bounds in ((0, small.size),
                           (0, small.size // 3, small.size // 2,
                            small.size)):
                for capacity in (1, 7, 64):
                    got = reuse_mod.thread_window_loads(
                        prev, np.array(bounds), capacity, positions)
                    naive = _naive_window_loads(small, bounds, capacity)
                    report.check(
                        got.tolist() == naive, SUITE,
                        "windowed-distinct-matches-naive",
                        f"{subject} threads={len(bounds) - 1} "
                        f"capacity={capacity}",
                        f"vectorised loads {got.tolist()} != per-window "
                        f"set oracle {naive}")

            got = reuse_mod.stack_distances(prev)
            naive = _naive_stack_distances(small)
            report.check(
                bool(np.array_equal(got, naive)), SUITE,
                "stack-distance-matches-naive", subject,
                "merge-counted stack distances differ from the "
                "explicit-LRU-stack oracle")

            # the memo must serve statistics of *this* matrix: compare
            # against a from-scratch rebuild on an equal fresh object
            stats = reuse_mod.ReuseStats.for_matrix(a)
            served = stats.prev(words_per_line)
            rebuilt = reuse_mod.ReuseStats(
                _fresh_copy(a)).prev(words_per_line)
            report.check(
                bool(np.array_equal(served, rebuilt)), SUITE,
                "reuse-memo-matches-rebuild", subject,
                "memoised previous-occurrence array differs from a "
                "from-scratch rebuild (stale or cross-wired memo)")
            report.check(
                served is stats.prev(words_per_line), SUITE,
                "reuse-memo-is-stable", subject,
                "repeated memo reads returned different objects")
    return report


def _check_cells(report, name, a, archs, nthreads=None) -> None:
    """``predict_many`` on ``a`` vs the reference loop on a fresh copy,
    cell by cell, bit for bit (at each architecture's own thread count
    unless ``nthreads`` is given)."""
    preds = model_mod.predict_many(
        a, archs, kernels=("1d", "2d"),
        nthreads=None if nthreads is None else (nthreads,))
    for arch in archs:
        nt = nthreads or arch.threads
        for kernel in ("1d", "2d"):
            subject = (f"matrix={name} arch={arch.name} "
                       f"kernel={kernel} nthreads={nt}")
            schedule = (schedule_1d(a, nt) if kernel == "1d"
                        else schedule_2d(a, nt))
            with reference_mode():
                want = model_mod.PerfModel(arch).predict(
                    _fresh_copy(a), schedule)
            got = preds[(arch.name, kernel, nt)]
            report.check(
                got.seconds == want.seconds
                and got.x_line_loads == want.x_line_loads
                and bool(np.array_equal(got.thread_seconds,
                                        want.thread_seconds)),
                SUITE, "fastpath-matches-naive-model", subject,
                f"fastpath seconds={got.seconds!r} "
                f"x_line_loads={got.x_line_loads} vs naive "
                f"{want.seconds!r}/{want.x_line_loads}")


def check_model_fastpath(matrices, architectures=CHECK_ARCHS) -> CheckReport:
    """Batched fast-path evaluation vs naive per-cell reference.

    Besides the requested architectures, every matrix is also scored
    on :data:`WINDOW_ARCHS` at one shared thread count on the same
    matrix object, so a per-thread x-loads memo that confused the two
    L2 windows would serve one machine the other's loads."""
    archs = [get_architecture(n) for n in architectures]
    window_archs = [get_architecture(n) for n in WINDOW_ARCHS]
    report = CheckReport(suites=[SUITE])
    with span("check.model.cells"):
        for name, a in matrices:
            if a.nnz == 0:
                continue  # the model is defined over nonempty matrices
            _check_cells(report, name, a, archs)
            _check_cells(report, name, a, window_archs,
                         nthreads=WINDOW_THREADS)
    return report


def check_model(matrices, architectures=CHECK_ARCHS) -> CheckReport:
    """Both model sub-suites on one corpus."""
    report = check_reuse_primitives(matrices)
    return report.merge(check_model_fastpath(matrices, architectures))
