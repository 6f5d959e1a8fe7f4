"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``.  For the traced run it replaces a
layer's public functions, in the namespaces where the engine, the
model and the solvers look them up, by wrappers that record one span
per call, and puts the originals back afterwards.  Spans live in
memory; a span's parent is the span open when it started, so nested
layers (a schedule built inside a model evaluation) are not counted
twice in the top-level sums.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class SpanRecorder:
    """Spans as ``[name, start, end, parent_index]`` rows, in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        #: (algorithm, matrix, OrderingResult) of every ordering computed
        #: while tracing, for the off-diagonal counts taken afterwards
        self.orderings: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def mark(self) -> int:
        """Index of the next span: where a phase's spans start."""
        return len(self.spans)


def _wrap(recorder: SpanRecorder, fn, name_of, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name_of(args, kwargs)):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(args, kwargs, result)
        return result
    return wrapper


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _lookup_sites():
    """(owner, attribute, span-name function) for every wrapped call.

    Each owner is the namespace its caller resolves the name in: the
    ordering cache calls ``compute_ordering`` through
    ``repro.harness.runner``, the engine calls ``simulate_measurement``
    through ``repro.harness.engine``, the solvers call the kernels and
    ``get_schedule`` through ``repro.solvers.iterative``.
    """
    from repro import generators, reorder
    from repro.harness import engine, runner
    from repro.machine import bench
    from repro.machine.reuse import ReuseStats
    from repro.reorder.perm import OrderingResult
    from repro.solvers import iterative

    def ordering(args, kwargs):
        return f"reorder.{_arg(args, kwargs, 1, 'name')}"

    def model_eval(args, kwargs):
        return f"machine.model_eval.{_arg(args, kwargs, 2, 'kernel')}"

    def fixed(name):
        return lambda args, kwargs: name

    return [
        (generators, "build_corpus", fixed("generators.build_corpus")),
        (runner, "compute_ordering", ordering),
        (reorder, "compute_ordering", ordering),
        (OrderingResult, "apply", fixed("matrix.permute")),
        (ReuseStats, "for_matrix", fixed("machine.reuse_stats")),
        (ReuseStats, "prepare", fixed("machine.reuse_stats")),
        (engine, "simulate_measurement", model_eval),
        (bench, "get_schedule", fixed("spmv.schedule")),
        (iterative, "get_schedule", fixed("spmv.schedule")),
        (iterative, "spmv_1d", fixed("spmv.kernel.1d")),
        (iterative, "spmv_2d", fixed("spmv.kernel.2d")),
        (iterative, "cg", fixed("solvers.cg")),
        (iterative, "jacobi", fixed("solvers.jacobi")),
    ]


@contextmanager
def traced(recorder: SpanRecorder):
    """Wrap every lookup site for the duration of the block."""

    def keep_ordering(args, kwargs, result):
        recorder.orderings.append(
            (_arg(args, kwargs, 1, "name"), args[0], result))

    restore = []
    try:
        for owner, attr, name_of in _lookup_sites():
            raw = vars(owner)[attr]
            on_result = keep_ordering if attr == "compute_ordering" else None
            wrapped = _wrap(recorder, getattr(owner, attr), name_of,
                            on_result)
            if isinstance(raw, classmethod):
                # getattr gave the bound classmethod; keep it bound
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)
            restore.append((owner, attr, raw))
        yield recorder
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)


def layer_sums(spans: list) -> tuple:
    """``(seconds, calls)`` per span name, inclusive of nested spans."""
    seconds: dict = {}
    calls: dict = {}
    for name, t0, t1, _parent in spans:
        seconds[name] = seconds.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
    return seconds, calls


def top_level_seconds(spans: list, first: int = 0) -> dict:
    """Seconds per span name over ``spans[first:]`` that have no
    enclosing span inside that phase."""
    out: dict = {}
    for name, t0, t1, parent in spans[first:]:
        if parent is None or parent < first:
            out[name] = out.get(name, 0.0) + (t1 - t0)
    return out


def self_seconds(spans: list, prefix: str) -> float:
    """Self time of the spans named ``prefix*``: their duration minus
    that of the spans they directly enclose."""
    total = 0.0
    for name, t0, t1, parent in spans:
        if name.startswith(prefix):
            total += t1 - t0
        if parent is not None and spans[parent][0].startswith(prefix):
            total -= t1 - t0
    return total
