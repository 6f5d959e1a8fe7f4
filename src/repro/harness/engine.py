"""Parallel, resumable sweep engine with fault tolerance.

The paper's core artifact is a (matrix × ordering × architecture ×
kernel) grid; :class:`SweepEngine` executes that grid

* **in parallel** — tasks fan out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`, chunked by matrix
  so every ordering of one matrix is computed in the same worker and
  the per-worker :class:`OrderingCache` pays the reordering cost once
  across all architectures; a dead worker breaks only its round, not
  the sweep (the pool is rebuilt and unfinished tasks resubmitted);
* **resumably** — every completed cell is journaled to an append-only
  JSONL checkpoint, so an interrupted sweep restarted with
  ``resume=True`` skips finished cells (a torn final line is simply
  recomputed);
* **fault-tolerantly** — each cell runs under a wall-clock budget with
  bounded retries; an ordering that raises or times out produces a
  structured :class:`FailedCell` and the sweep keeps going.

Observability is threaded through the run via :mod:`repro.obs`:
every stage of every cell runs under a **span** (``reorder`` /
``reuse_stats`` / ``model_eval``, nested inside one ``sweep.task``
span per matrix), workers ship their buffered trace events and a
**metrics-registry delta** back with each task outcome, and the
engine merges both — spans into the global tracer (one Perfetto lane
per worker pid), deltas into a run-local
:class:`~repro.obs.metrics.MetricsRegistry`.  Because each worker
reports only the work it did, and only when a task *finishes*, a
worker that dies mid-chunk loses its own partial counts but can never
corrupt or double-count the engine's: its cells are recomputed and
counted exactly once by whoever completes them.  The aggregate —
per-stage wall-clock timings, cache hit rates, model-statistics reuse
counters, worker utilization, cell counts and the full registry
snapshot — serialises to ``sweep_metrics.json``
(:class:`SweepMetrics` is a thin view over the registry), and a
:class:`~repro.obs.manifest.RunManifest` is written next to it.

Worker death is survived, not just journaled around: the process pool
is a :class:`concurrent.futures.ProcessPoolExecutor`, and when it
breaks (a worker was OOM-killed or segfaulted) the engine rebuilds it
and resubmits the unfinished tasks — shrunk by every cell consumed so
far — within a bounded crash budget; cells that keep killing workers
become structured :class:`FailedCell` rows with ``stage="worker"``.

A pool run ships every matrix to its workers as the path of a stored
matrix (:mod:`repro.storage.format`), which they memmap read-only:
snapshot-backed entries ship their own directory, in-RAM matrices are
spilled once into an engine-owned temporary store that ``run()``
removes on the way out.  A serial run (``jobs=1``) hands the matrix
over inline.  A spill that fails (disk full) turns that matrix's
cells into :class:`FailedCell` rows with ``stage="storage"``.

Within one matrix the task loop is *ordering-outer*: each (ordering,
nparts) permutation is computed once, and the reordered matrix —
together with its memoised :class:`~repro.machine.reuse.ReuseStats`
and thread schedules — is shared across every architecture and kernel
cell evaluated on it (see docs/perfmodel.md).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from concurrent.futures import as_completed
from concurrent.futures.process import (BrokenProcessPool,
                                        ProcessPoolExecutor)
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

from ..errors import HarnessError
from ..machine.bench import MeasurementRecord, simulate_measurement
from ..machine.model import PerfModel
from ..machine.reuse import ReuseStats
from ..obs import cachestats
from ..obs import manifest as _manifest
from ..obs.metrics import REGISTRY, MetricsRegistry
from ..obs.trace import (TRACER, clear_trace_context, new_span_id,
                         set_trace_context, span)

JOURNAL_VERSION = 1

#: registry-counter → legacy ``sweep_metrics.json`` ``model_stats``
#: key mapping (the metrics artifact is now a view over the registry).
_MODEL_STAT_NAMES = {
    "reuse.builds": "reuse_builds", "reuse.hits": "reuse_hits",
    "reuse.xloads.builds": "xloads_builds",
    "reuse.xloads.hits": "xloads_hits",
    "schedule.builds": "schedule_builds",
    "schedule.hits": "schedule_hits",
}


class CellTimeout(HarnessError):
    """A sweep cell exceeded its wall-clock budget."""


@dataclass(frozen=True)
class FailedCell:
    """A structured record of one cell the sweep could not complete.

    ``stage`` names where the failure happened (``"reorder"``,
    ``"model-eval"``, ``"storage"`` when the matrix could not be
    spilled for the pool, or ``"worker"`` when the worker process
    hosting the cell kept dying); ``error`` is the exception class name,
    ``message`` its text.  ``attempts`` counts tries including retries.
    """

    matrix: str
    ordering: str
    kernel: str
    architecture: str
    stage: str
    error: str
    message: str
    attempts: int = 1
    seconds: float = 0.0

    @property
    def cell(self) -> tuple:
        return (self.matrix, self.ordering, self.kernel,
                self.architecture)


@contextmanager
def _deadline(seconds):
    """Raise :class:`CellTimeout` if the block runs past ``seconds``.

    Uses ``SIGALRM``, so it is a no-op off the main thread or on
    platforms without it — worker processes always qualify.
    """
    usable = (seconds is not None and seconds > 0
              and hasattr(signal, "SIGALRM")
              and threading.current_thread() is threading.main_thread())
    if not usable:
        yield
        return

    def _alarm(signum, frame):
        raise CellTimeout(f"cell exceeded its {seconds:g}s budget")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# JSONL checkpoint journal
# ----------------------------------------------------------------------
class SweepJournal:
    """Append-only JSONL checkpoint of completed sweep cells.

    Line 1 is a header carrying the sweep *signature* (corpus,
    architectures, orderings, kernels, seed); every later line is one
    ``record`` or ``failed`` entry keyed by its cell.  The format is
    torn-write tolerant: a line that does not parse (the tail of a
    killed process) is ignored and its cell recomputed on resume.
    """

    def __init__(self, path: str, signature: dict) -> None:
        self.path = path
        self.signature = signature
        self._fh = None

    # -- reading -------------------------------------------------------
    @staticmethod
    def load(path: str) -> tuple:
        """Parse a journal into ``(signature, records, failures)``.

        ``records`` maps cell tuples to :class:`MeasurementRecord`;
        ``failures`` is the list of journaled :class:`FailedCell` rows
        (informational — failed cells stay pending on resume).
        Undecodable or incomplete lines are skipped.

        A journal with no readable entries at all — zero bytes, or only
        the torn tail of a process killed mid-header — parses as
        ``(None, {}, [])``: an interrupted sweep that never journaled
        anything has simply completed no cells, and resuming from it
        must start fresh rather than error.  Readable *entries* under a
        missing header are different: that journal carries data whose
        signature cannot be verified, so it raises.
        """
        signature = None
        records: dict = {}
        failures: list = []
        with open(path, "rt") as f:
            for line in f:
                try:
                    entry = json.loads(line)
                except (json.JSONDecodeError, ValueError):
                    continue  # torn write from a killed process
                if not isinstance(entry, dict):
                    continue
                kind = entry.get("type")
                try:
                    if kind == "header":
                        signature = entry["signature"]
                    elif kind == "record":
                        rec = MeasurementRecord(**entry["data"])
                        records[tuple(entry["cell"])] = rec
                    elif kind == "failed":
                        failures.append(FailedCell(**entry["data"]))
                except (KeyError, TypeError):
                    continue  # partially-written or foreign entry
        if signature is None and (records or failures):
            raise HarnessError(
                f"{path}: journal has entries but no readable header "
                "line; cannot verify it belongs to this sweep")
        return signature, records, failures

    # -- writing -------------------------------------------------------
    @staticmethod
    def _trim_torn_tail(path: str) -> int:
        """Drop a torn final line (no trailing newline) left by a
        killed process, so appended entries start on a fresh line.
        Returns the resulting file size."""
        with open(path, "rb+") as f:
            data = f.read()
            if not data or data.endswith(b"\n"):
                return len(data)
            keep = data.rfind(b"\n") + 1
            f.truncate(keep)
            return keep

    def open(self, append: bool) -> None:
        append = append and os.path.exists(self.path)
        if append and self._trim_torn_tail(self.path) == 0:
            append = False  # nothing valid survived: start fresh
        self._fh = open(self.path, "at" if append else "wt")
        if not append:
            self._write({"type": "header", "version": JOURNAL_VERSION,
                         "signature": self.signature})

    def _write(self, entry: dict) -> None:
        self._fh.write(json.dumps(entry) + "\n")
        self._fh.flush()

    def append_record(self, cell: tuple, rec: MeasurementRecord) -> None:
        self._write({"type": "record", "cell": list(cell),
                     "data": asdict(rec)})

    def append_failure(self, failure: FailedCell) -> None:
        self._write({"type": "failed", "cell": list(failure.cell),
                     "data": asdict(failure)})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@dataclass
class SweepMetrics:
    """Machine-readable observability artifact of one engine run.

    Since the obs layer landed this is a thin *view*: ``model_stats``
    and ``registry`` are populated from the engine's run-local
    :class:`~repro.obs.metrics.MetricsRegistry` (the merge of every
    worker's shipped delta), not from hand-maintained dicts.
    """

    jobs: int = 1
    wall_seconds: float = 0.0
    run_id: str | None = None
    stages: dict = field(default_factory=lambda: {
        "generate": 0.0, "storage": 0.0,
        "reorder": 0.0, "reuse_stats": 0.0, "model_eval": 0.0})
    cache: dict = field(default_factory=dict)
    model_stats: dict = field(default_factory=lambda: {
        "reuse_builds": 0, "reuse_hits": 0,
        "xloads_builds": 0, "xloads_hits": 0,
        "schedule_builds": 0, "schedule_hits": 0})
    cells: dict = field(default_factory=lambda: {
        "total": 0, "completed": 0, "resumed": 0, "failed": 0,
        "retried": 0})
    workers: dict = field(default_factory=lambda: {
        "busy_seconds": {}, "utilization": 0.0, "crash_rounds": 0,
        "shards": 1})
    registry: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        with open(path, "wt") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass
class _TaskSpec:
    """One unit of pool work: every pending cell of one matrix.

    With ``matrix_ref`` ``None`` the matrix travels inline in
    ``entry.matrix`` (serial runs).  Otherwise ``matrix_ref`` is the
    path of a stored matrix (:mod:`repro.storage.format`) that the
    worker memmaps read-only: zero-copy and disk-backed, so the
    mapping survives worker death and its pages are reclaimable,
    which keeps a sharded sweep's RSS bounded.
    """

    entry: object                # CorpusEntry (matrix stripped if shipped)
    pending: frozenset           # cells still to compute
    matrix_ref: str | None = None


@dataclass
class _TaskOutcome:
    records: list                # [(cell, MeasurementRecord), ...]
    failures: list               # [FailedCell, ...]
    timings: dict                # stage -> seconds
    cache_stats: dict
    registry_delta: dict         # MetricsRegistry.delta_since payload
    trace_events: list           # buffered spans (empty when disabled)
    retried: int
    pid: int
    busy_seconds: float


@dataclass
class _EngineConfig:
    """Everything a worker needs; must be picklable for jobs > 1."""

    architectures: list
    orderings: list              # without "original"
    kernels: tuple
    seed: object
    timeout: float | None
    retries: int
    cache_path: str | None
    model_factory: object | None
    trace: bool = False
    #: (trace_id, root span_id) of the engine's ``sweep.run`` span;
    #: workers install it so their spans carry correlation ids and
    #: parent to the engine's root across process boundaries
    trace_ctx: tuple | None = None


_WORKER_CONFIG: _EngineConfig | None = None


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _fail_task(task: _TaskSpec, completed: dict, failures: list,
               journal, **fields) -> None:
    """Record every still-pending cell of ``task`` as a
    :class:`FailedCell` carrying ``fields`` (stage, error, message,
    attempts), journaling each row."""
    for cell in sorted(task.pending):
        if cell in completed:
            continue
        failures.append(FailedCell(
            matrix=cell[0], ordering=cell[1], kernel=cell[2],
            architecture=cell[3], **fields))
        if journal is not None:
            journal.append_failure(failures[-1])


def _pool_init(config: _EngineConfig) -> None:
    global _WORKER_CONFIG
    _WORKER_CONFIG = config
    # fork-started workers inherit the engine's buffered events (the
    # pre-fork storage spans from _pack_task); drop them so the first
    # drain ships only spans this worker recorded itself.
    TRACER.clear()
    # ...and the engine's SIGTERM-to-SystemExit handler: a worker must
    # die on terminate(), not report SystemExit as a task result
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if config.trace and not TRACER.enabled:
        TRACER.enable()
    if config.trace_ctx is not None:
        # every top-level span this worker opens parents to the
        # engine's sweep.run root (the thread-local stack is empty
        # here, so the context's parent_id is used)
        set_trace_context(*config.trace_ctx)


def _pool_run(task: _TaskSpec) -> _TaskOutcome:
    return _run_matrix_task(task, _WORKER_CONFIG)


def _resolve_task_matrix(task: _TaskSpec, timings: dict):
    """Materialise the task's matrix on the worker side.

    Inline is free; a stored matrix is memmapped (zero-copy, memoised
    per worker process), timed into the ``storage`` stage.
    """
    if task.matrix_ref is None:
        return task.entry.matrix
    from ..storage import format as _storage

    t0 = time.perf_counter()
    with span("storage", matrix=task.entry.name, side="worker"):
        a = _storage.attach_matrix(task.matrix_ref)
    timings["storage"] += time.perf_counter() - t0
    return a


def _run_matrix_task(task: _TaskSpec, config: _EngineConfig,
                     cache=None) -> _TaskOutcome:
    """Compute every pending cell of one matrix.

    The loop is ordering-outer: each (ordering, nparts) permutation is
    computed once (with a disk-backed cache it also persists across
    runs) and the reordered matrix is then evaluated for *every*
    architecture and kernel in one pass, so its memoised reuse
    statistics and thread schedules are shared across all of those
    cells.  Only GP splits into per-``gp_parts`` architecture groups
    (its permutation depends on the part count); every other ordering
    forms a single group.  Tasks are disjoint by matrix, so concurrent
    workers never write the same cache entry.
    """
    from .runner import OrderingCache  # local import: avoids a cycle

    start = time.perf_counter()
    if cache is None:
        cache = OrderingCache(path=config.cache_path)
    stats_before = dict(cache.stats)
    registry_before = REGISTRY.snapshot()
    factory = config.model_factory or PerfModel
    entry = task.entry
    records: list = []
    failures: list = []
    timings = {"storage": 0.0, "reorder": 0.0,
               "reuse_stats": 0.0, "model_eval": 0.0}
    a = _resolve_task_matrix(task, timings)
    retried = 0
    models = [(arch, factory(arch)) for arch in config.architectures]

    def eval_cells(matrix, ordering_name, group) -> None:
        """Evaluate every pending (arch, kernel) cell of one reordered
        matrix, with one shared reuse-statistics pass."""
        wanted = [(arch, model, kernel) for arch, model in group
                  for kernel in config.kernels
                  if (entry.name, ordering_name, kernel,
                      arch.name) in task.pending]
        if not wanted:
            return
        reuse = None
        if any(model.fastpath for _, model, _ in wanted):
            # materialise the shared statistics up front so their cost
            # lands in the reuse_stats stage, not a random first cell
            hot_lines = sorted({arch.line_size // 8
                                for arch, model, _ in wanted
                                if model.fastpath and model.locality_term})
            t0 = time.perf_counter()
            with span("reuse_stats", matrix=entry.name,
                      ordering=ordering_name):
                reuse = ReuseStats.for_matrix(matrix)
                reuse.prepare(hot_lines if matrix.nnz else ())
            timings["reuse_stats"] += time.perf_counter() - t0
        for arch, model, kernel in wanted:
            cell = (entry.name, ordering_name, kernel, arch.name)
            t0 = time.perf_counter()
            try:
                with _deadline(config.timeout), \
                        span("model_eval", matrix=entry.name,
                             ordering=ordering_name, kernel=kernel,
                             arch=arch.name):
                    rec = simulate_measurement(
                        matrix, arch, kernel, entry.name, ordering_name,
                        model=model,
                        reuse=reuse if model.fastpath else None)
            except Exception as exc:  # noqa: BLE001 - fault isolation
                failures.append(FailedCell(
                    matrix=entry.name, ordering=ordering_name,
                    kernel=kernel, architecture=arch.name,
                    stage="model-eval", error=type(exc).__name__,
                    message=str(exc), attempts=1,
                    seconds=time.perf_counter() - t0))
            else:
                records.append((cell, rec))
            finally:
                timings["model_eval"] += time.perf_counter() - t0

    with span("sweep.task", matrix=entry.name,
              cells=len(task.pending)):
        eval_cells(a, "original", models)
        for name in config.orderings:
            groups: dict = {}
            for arch, model in models:
                key = arch.gp_parts if name == "GP" else 0
                groups.setdefault(key, []).append((arch, model))
            for group in groups.values():
                group_cells = [(entry.name, name, kernel, arch.name)
                               for arch, _ in group
                               for kernel in config.kernels]
                if not any(c in task.pending for c in group_cells):
                    continue
                t0 = time.perf_counter()
                result = None
                error = None
                attempts = 0
                for attempt in range(config.retries + 1):
                    attempts = attempt + 1
                    try:
                        with _deadline(config.timeout), \
                                span("reorder", matrix=entry.name,
                                     algo=name, attempt=attempts):
                            result = cache.get(
                                a, entry.name, name,
                                nparts=group[0][0].gp_parts,
                                seed=config.seed)
                        break
                    except Exception as exc:  # noqa: BLE001
                        error = exc
                        if attempt < config.retries:
                            retried += 1
                timings["reorder"] += time.perf_counter() - t0
                if result is None:
                    for cell in group_cells:
                        if cell not in task.pending:
                            continue
                        failures.append(FailedCell(
                            matrix=entry.name, ordering=name,
                            kernel=cell[2], architecture=cell[3],
                            stage="reorder", error=type(error).__name__,
                            message=str(error), attempts=attempts,
                            seconds=time.perf_counter() - t0))
                    continue
                eval_cells(result.apply(a), name, group)

    # report *deltas* so caches/counters shared across serial tasks are
    # not double counted when the engine aggregates per-task stats —
    # and so a worker that dies before returning contributes nothing
    # rather than something partial
    stats_after = cache.stats
    delta = {k: stats_after.get(k, 0) - stats_before.get(k, 0)
             for k in ("hits", "disk_hits", "misses", "requests",
                       "evictions", "size_bytes", "mapped_bytes")}
    return _TaskOutcome(
        records=records, failures=failures, timings=timings,
        cache_stats=delta,
        registry_delta=REGISTRY.delta_since(registry_before),
        trace_events=TRACER.drain() if config.trace else [],
        retried=retried,
        pid=os.getpid(), busy_seconds=time.perf_counter() - start)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class SweepEngine:
    """Parallel, journaled, fault-tolerant sweep executor.

    Parameters
    ----------
    corpus, architectures, orderings, kernels, cache, model_factory,
    seed:
        As in :func:`repro.harness.runner.run_sweep` (which is now a
        thin serial wrapper over this class).
    jobs:
        Worker process count; ``1`` runs inline (no multiprocessing),
        which also preserves the caller's in-memory ``cache`` and
        allows non-picklable ``model_factory`` hooks.  With more,
        workers memmap each matrix from disk: its snapshot directory,
        or a spill of the in-RAM matrix into a temporary store.
    journal_path:
        JSONL checkpoint file.  ``None`` disables journaling.
    resume:
        Load the journal first and skip its completed cells.  The
        journal's signature must match this sweep's configuration.
    timeout:
        Per-cell wall-clock budget in seconds (``None`` = unlimited).
    retries:
        Extra attempts for a failing/timed-out ordering computation
        (also bounds pool rebuilds after worker deaths).
    progress:
        Optional ``f(done, total, failed, elapsed)`` heartbeat callback,
        invoked as tasks complete.
    trace:
        Record spans for every stage of every cell (workers included).
        ``None`` (default) inherits the global tracer's enabled state,
        so ``repro.obs.enable()`` before ``run()`` is enough.
    manifest_path:
        Where to write the :class:`~repro.obs.manifest.RunManifest`.
        ``None`` disables it.
    shard_bytes:
        Upper bound on the summed matrix bytes in flight per pool
        round.  When set, tasks are partitioned into consecutive
        byte-bounded shards, each run on a **fresh** process pool whose
        workers are torn down before the next shard starts — so peak
        RSS tracks the largest shard, not the whole corpus.  ``None``
        (default) runs everything in one shard.
    snapshot:
        The :class:`~repro.storage.snapshot.CorpusSnapshot` backing
        ``corpus``, if any.  Folds the snapshot's content address into
        the sweep signature (so ``--resume`` only reattaches the
        *identical* corpus bytes) and into the run manifest (so
        ``repro report --check`` can cross-check the snapshot
        directory against the journal's provenance).
    """

    def __init__(self, corpus, architectures, orderings,
                 kernels: tuple = ("1d", "2d"), cache=None,
                 model_factory=None, seed=0, jobs: int = 1,
                 journal_path: str | None = None, resume: bool = False,
                 timeout: float | None = None, retries: int = 0,
                 progress=None, trace: bool | None = None,
                 manifest_path: str | None = None,
                 shard_bytes: int | None = None,
                 snapshot=None) -> None:
        if jobs < 1:
            raise HarnessError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise HarnessError(f"retries must be >= 0, got {retries}")
        if shard_bytes is not None and shard_bytes <= 0:
            raise HarnessError(
                f"shard_bytes must be positive, got {shard_bytes}")
        self.corpus = list(corpus)
        self.architectures = list(architectures)
        self.orderings = [o for o in orderings if o != "original"]
        self.kernels = tuple(kernels)
        self.cache = cache
        self.model_factory = model_factory
        self.seed = seed
        self.jobs = jobs
        self.journal_path = journal_path
        self.resume = resume
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.trace = trace
        self.manifest_path = manifest_path
        self.shard_bytes = shard_bytes
        self.snapshot = snapshot
        self.metrics = SweepMetrics(jobs=jobs)
        #: run-local merge target of every worker's registry delta
        self.registry = MetricsRegistry()
        #: temporary on-disk store for in-RAM matrices shipped to pool
        #: workers (never a user snapshot; removed in ``run()``)
        self._spill_dir: str | None = None

    # -- cell enumeration ---------------------------------------------
    def signature(self) -> dict:
        sig = {
            "corpus": [e.name for e in self.corpus],
            "architectures": [a.name for a in self.architectures],
            "orderings": list(self.orderings),
            "kernels": list(self.kernels),
            "seed": self.seed if isinstance(self.seed, int) else None,
        }
        if self.snapshot is not None:
            # content address, not path: resume must reattach the same
            # corpus *bytes*, wherever the snapshot directory lives
            sig["snapshot"] = self.snapshot.signature
        return sig

    def cells(self) -> list:
        """Canonical cell order — identical to the legacy serial
        runner's record order, so results assemble reproducibly no
        matter which worker finished first."""
        out = []
        for arch in self.architectures:
            for entry in self.corpus:
                for kernel in self.kernels:
                    out.append((entry.name, "original", kernel, arch.name))
                for name in self.orderings:
                    for kernel in self.kernels:
                        out.append((entry.name, name, kernel, arch.name))
        return out

    # -- resume --------------------------------------------------------
    def _load_checkpoint(self) -> dict:
        if not (self.journal_path and self.resume
                and os.path.exists(self.journal_path)):
            return {}
        signature, records, _old_failures = SweepJournal.load(
            self.journal_path)
        if signature is None:
            return {}  # empty/torn-only journal: no completed cells
        if signature != self.signature():
            raise HarnessError(
                f"{self.journal_path}: journal signature does not match "
                "this sweep (different corpus/architectures/orderings/"
                "kernels/seed); delete it or run without resume")
        return records

    # -- execution -----------------------------------------------------
    def run(self):
        from .runner import OrderingCache, SweepResult

        t_start = time.perf_counter()
        trace_on = (TRACER.enabled if self.trace is None else self.trace)
        all_cells = self.cells()
        completed = self._load_checkpoint()
        # drop journal entries for cells not in this sweep's grid (the
        # signature check makes this impossible, but stay defensive)
        completed = {c: r for c, r in completed.items()
                     if c in set(all_cells)}
        self.metrics.cells["total"] = len(all_cells)
        self.metrics.cells["resumed"] = len(completed)

        manifest = None
        if self.manifest_path:
            config_doc = {"jobs": self.jobs, "timeout": self.timeout,
                          "retries": self.retries, "resume": self.resume,
                          "trace": trace_on,
                          "journal": self.journal_path,
                          "kernels": list(self.kernels),
                          "shard_bytes": self.shard_bytes}
            if self.snapshot is not None:
                config_doc["snapshot"] = {
                    "path": self.snapshot.path,
                    "signature": self.snapshot.signature}
            manifest = _manifest.collect(
                seed=self.seed, signature=self.signature(),
                config=config_doc)
            # written up front so even a crashed run has provenance
            manifest.write(self.manifest_path)
            self.metrics.run_id = manifest.run_id

        journal = None
        if self.journal_path:
            journal = SweepJournal(self.journal_path, self.signature())
            journal.open(append=self.resume)

        pending = [c for c in all_cells if c not in completed]
        by_matrix: dict = {}
        for cell in pending:
            by_matrix.setdefault(cell[0], set()).add(cell)
        tasks = [_TaskSpec(entry=e, pending=frozenset(by_matrix[e.name]))
                 for e in self.corpus if e.name in by_matrix]
        use_pool = self.jobs > 1 and len(tasks) > 1

        # With tracing live, the whole run happens inside one root
        # ``sweep.run`` span under a trace context: every local span
        # gets correlation ids, and workers (via ``trace_ctx`` in the
        # picklable config) parent their top-level spans to this root,
        # so a merged trace is one causally-linked tree, not a soup of
        # disjoint per-process lanes.
        root_span = None
        trace_ctx = None
        if trace_on and TRACER.enabled:
            trace_id = self.metrics.run_id or f"sweep-{new_span_id()}"
            set_trace_context(trace_id)
            root_span = TRACER.span(
                "sweep.run", jobs=self.jobs,
                cells=len(all_cells)).__enter__()
            trace_ctx = (trace_id, root_span.span_id)

        config = _EngineConfig(
            architectures=self.architectures, orderings=self.orderings,
            kernels=self.kernels, seed=self.seed, timeout=self.timeout,
            retries=self.retries,
            cache_path=self.cache.path if self.cache is not None else None,
            model_factory=self.model_factory, trace=trace_on,
            trace_ctx=trace_ctx)

        failures: list = []
        done_cells = len(completed)
        busy: dict = {}
        if self.progress is not None:
            # first tick up front: a resumed sweep reports its journal
            # backfill before any new cell completes
            self.progress(done_cells, len(all_cells), 0, 0.0)

        def consume(outcome: _TaskOutcome) -> None:
            nonlocal done_cells
            for cell, rec in outcome.records:
                completed[cell] = rec
                if journal is not None:
                    journal.append_record(cell, rec)
            for failure in outcome.failures:
                failures.append(failure)
                if journal is not None:
                    journal.append_failure(failure)
            done_cells += len(outcome.records) + len(outcome.failures)
            for stage, secs in outcome.timings.items():
                self.metrics.stages[stage] = (
                    self.metrics.stages.get(stage, 0.0) + secs)
            self.metrics.cells["retried"] += outcome.retried
            self._merge_cache_stats(outcome.cache_stats)
            # delta-merge the worker's registry: each outcome reports
            # only its own work, so totals are exact across retries,
            # resumes and worker deaths
            self.registry.merge_delta(outcome.registry_delta)
            TRACER.merge(outcome.trace_events)
            busy[outcome.pid] = (busy.get(outcome.pid, 0.0)
                                 + outcome.busy_seconds)
            if self.progress is not None:
                self.progress(done_cells, len(all_cells), len(failures),
                              time.perf_counter() - t_start)

        # a pool run turns SIGTERM into SystemExit, so the finally below
        # still drains the pool (its workers exit instead of blocking on
        # the call queue) and removes the spill store
        own_sigterm = (use_pool and threading.current_thread()
                       is threading.main_thread())
        if own_sigterm:
            prev_sigterm = signal.signal(signal.SIGTERM, _exit_on_signal)
        try:
            if not use_pool:
                cache = self.cache or OrderingCache()
                self.cache = cache
                for task in tasks:
                    consume(_run_matrix_task(task, config, cache=cache))
            else:
                # one fresh pool per shard: tearing workers down at the
                # shard boundary returns their RSS (and the spilled
                # matrices) before the next batch of matrices is put in
                # flight, so peak memory tracks the largest shard, not
                # the corpus
                shards = self._shard_tasks(tasks)
                self.metrics.workers["shards"] = len(shards)
                for shard in shards:
                    packed = []
                    for task in shard:
                        try:
                            packed.append(self._pack_task(task))
                        except Exception as exc:  # noqa: BLE001
                            # disk full etc.: fail this matrix's cells
                            # like a dead worker's, keep sweeping
                            _fail_task(task, completed, failures,
                                       journal, stage="storage",
                                       error=type(exc).__name__,
                                       message=str(exc), attempts=1)
                    self._run_pool(packed, config, completed, failures,
                                   consume, journal)
                    self._release_spill()
        finally:
            if journal is not None:
                journal.close()
            self._release_spill()
            if own_sigterm:
                signal.signal(signal.SIGTERM, signal.SIG_DFL
                              if prev_sigterm is None else prev_sigterm)
            if root_span is not None:
                root_span.__exit__(None, None, None)
                clear_trace_context()

        wall = time.perf_counter() - t_start
        self.metrics.wall_seconds = wall
        self.metrics.cells["completed"] = len(completed)
        self.metrics.cells["failed"] = len(failures)
        self.metrics.workers["busy_seconds"] = {
            str(pid): round(secs, 6) for pid, secs in busy.items()}
        denom = wall * max(1, min(self.jobs, max(1, len(tasks))))
        self.metrics.workers["utilization"] = (
            sum(busy.values()) / denom if denom > 0 else 0.0)
        # the metrics artifact is a view over the merged registry
        reg_values = self.registry.values()
        self.metrics.model_stats = {
            legacy: reg_values.get(name, 0)
            for name, legacy in _MODEL_STAT_NAMES.items()}
        self.metrics.registry = self.registry.snapshot()

        result = SweepResult(failed=failures)
        for cell in all_cells:
            if cell in completed:
                result.add(completed[cell])
        return result

    # -- matrix transport ---------------------------------------------
    @staticmethod
    def _entry_nbytes(entry) -> int:
        """On-the-wire CSR bytes of one corpus entry (rowptr int64 +
        colidx int64 + values float64), computable from metadata alone
        — no array access, so snapshot-backed entries stay unmapped."""
        return (entry.nrows + 1) * 8 + entry.nnz * 16

    def _shard_tasks(self, tasks: list) -> list:
        """Partition tasks into consecutive byte-bounded shards.

        Order is preserved (resume and journal replay see the same
        sequence); every shard gets at least one task, so a single
        matrix larger than the budget still runs — as one shard by
        itself, which is the best a matrix-granular scheduler can do.
        """
        if self.shard_bytes is None:
            return [tasks]
        shards: list = []
        current: list = []
        current_bytes = 0
        for task in tasks:
            nbytes = self._entry_nbytes(task.entry)
            if current and current_bytes + nbytes > self.shard_bytes:
                shards.append(current)
                current, current_bytes = [], 0
            current.append(task)
            current_bytes += nbytes
        if current:
            shards.append(current)
        return shards

    @staticmethod
    def _strip_entry(entry):
        """Return ``entry`` without its in-RAM matrix payload.

        Snapshot-backed :class:`~repro.storage.snapshot.StoredEntry`
        objects carry no matrix field at all (their ``matrix`` is a
        lazy attach), so they pass through unchanged.
        """
        if "matrix" in getattr(entry, "__dataclass_fields__", {}):
            return replace(entry, matrix=None)
        return entry

    def _spill_matrix(self, entry) -> str:
        """Write an in-RAM matrix to the engine's temporary store so
        the task can ship a path instead of bytes.

        ``run()``'s ``finally`` removes the store, SIGTERM included; a
        SIGKILLed engine leaks it.
        """
        import tempfile

        from ..storage import format as _storage

        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro_spill_")
        path = os.path.join(self._spill_dir, entry.name)
        if not os.path.isdir(path):
            _storage.write_matrix(path, entry.matrix,
                                  meta={"name": entry.name,
                                        "spilled": True})
        return path

    def _pack_task(self, task: _TaskSpec) -> _TaskSpec:
        """Strip the matrix out of a pool-bound task.

        The task ships the path of a stored matrix — the entry's own
        snapshot directory when it has one, else a spill into the
        temporary store — timed into the ``storage`` stage, so the
        matrix payload never rides the pool's pickle pipe.  A failing
        spill raises.
        """
        t0 = time.perf_counter()
        with span("storage", matrix=task.entry.name, side="engine"):
            path = (getattr(task.entry, "storage_path", None)
                    or self._spill_matrix(task.entry))
        self.metrics.stages["storage"] += time.perf_counter() - t0
        return replace(task, entry=self._strip_entry(task.entry),
                       matrix_ref=path)

    def _release_spill(self) -> None:
        """Remove the temporary spill store (never a user snapshot —
        snapshot-backed entries ship their own directories, which this
        engine does not own)."""
        if self._spill_dir is not None:
            import shutil

            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None

    def _run_pool(self, tasks, config, completed, failures, consume,
                  journal) -> None:
        """Fan tasks out over a process pool, surviving worker death.

        A worker that dies (OOM kill, segfault) breaks the whole
        :class:`ProcessPoolExecutor`; the engine then rebuilds the pool
        and resubmits every unfinished task, shrunk by the cells
        already consumed.  The rebuild budget is bounded
        (``retries + len(tasks)`` rounds); when it is exhausted — or a
        lone task keeps killing its worker ``retries + 1`` times — the
        remaining cells become :class:`FailedCell` rows with
        ``stage="worker"`` instead of hanging the sweep.
        """
        pending: dict = {i: t for i, t in enumerate(tasks)}
        solo_crashes: dict = {}
        max_rounds = self.retries + len(tasks)
        rounds = 0

        def fail_pending(index: int, attempts: int,
                         error: str = "WorkerDied",
                         message: str = "worker process died while "
                                        "computing this task's cells"
                         ) -> None:
            _fail_task(pending.pop(index), completed, failures, journal,
                       stage="worker", error=error, message=message,
                       attempts=attempts)

        while pending:
            broke = False
            try:
                with ProcessPoolExecutor(
                        max_workers=min(self.jobs, len(pending)),
                        initializer=_pool_init,
                        initargs=(config,)) as pool:
                    try:
                        futures = {pool.submit(_pool_run, t): i
                                   for i, t in pending.items()}
                        for fut in as_completed(futures):
                            index = futures[fut]
                            try:
                                outcome = fut.result()
                            except BrokenProcessPool:
                                broke = True
                                continue  # stays pending; next round
                            except Exception as exc:  # noqa: BLE001
                                # the task function itself is
                                # exception-free, so this is
                                # infrastructure (e.g. an outcome that
                                # failed to unpickle): fail its cells
                                fail_pending(index, attempts=1,
                                             error=type(exc).__name__,
                                             message=str(exc))
                                continue
                            consume(outcome)
                            del pending[index]
                    except BaseException:
                        # SIGTERM / Ctrl-C, during submission too:
                        # drop the queued tasks and wait only for
                        # those in flight.  This must wait here: the
                        # with-exit's own shutdown() resets
                        # cancel_futures, and if it ran before the
                        # pool's manager thread saw the request, every
                        # queued task would still run
                        pool.shutdown(wait=True, cancel_futures=True)
                        raise
            except BrokenProcessPool:
                broke = True  # pool died during submission
            if not pending:
                return
            if not broke:  # pragma: no cover - defensive
                continue
            rounds += 1
            self.metrics.workers["crash_rounds"] = rounds
            if len(pending) == 1:
                index = next(iter(pending))
                solo_crashes[index] = solo_crashes.get(index, 0) + 1
                if solo_crashes[index] > self.retries:
                    fail_pending(index, attempts=solo_crashes[index])
                    continue
            if rounds >= max_rounds:
                for index in list(pending):
                    fail_pending(index, attempts=rounds)
                return
            # shrink resubmitted tasks by everything consumed so far
            # (replace() keeps matrix_ref: a rebuilt pool's fresh
            # workers re-attach the same stored matrix)
            for index, task in list(pending.items()):
                still = frozenset(c for c in task.pending
                                  if c not in completed)
                if still:
                    pending[index] = replace(task, pending=still)
                else:
                    del pending[index]

    def _merge_cache_stats(self, stats: dict) -> None:
        agg = self.metrics.cache
        for key in ("hits", "disk_hits", "misses", "requests",
                    "evictions", "size_bytes", "mapped_bytes"):
            agg[key] = agg.get(key, 0) + stats.get(key, 0)
        # the zero-request guard lives in the shared helper; hit_rate
        # covers both storage levels, like OrderingCache.stats
        agg["hit_rate"] = cachestats.cache_stats(
            hits=agg.get("hits", 0) + agg.get("disk_hits", 0),
            misses=agg.get("misses", 0))["hit_rate"]
