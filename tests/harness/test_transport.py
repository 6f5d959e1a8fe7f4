"""The pool transport and RSS-bounded sharding.

A serial run hands each matrix over inline; a pool run ships every
matrix as the path of a stored matrix that workers memmap read-only —
a snapshot entry's own directory, or a spill of an in-RAM matrix into
an engine-owned temporary store.  Covered here:

* pool, sharded and snapshot-backed runs give records identical to the
  serial inline run, and so does an interrupted pool sweep resumed;
* **lifecycle**: the spill store is removed after a normal run, after
  a worker is SIGKILLed mid-cell, and after the engine itself gets
  SIGTERM; a spill that fails turns that matrix's cells into
  ``stage="storage"`` failures and the sweep goes on;
* the byte-bounded shard scheduler and the ``mapped_bytes`` accounting
  of memmap-backed ordering-cache entries.

Every spill-cleanup assert looks only in a per-test temp dir, never in
the host's shared one.
"""

import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import HarnessError
from repro.generators import build_corpus
from repro.harness.engine import SweepEngine, _TaskSpec
from repro.machine import get_architecture
from repro.storage import ensure_corpus_snapshot
from repro.storage import format as fmt


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_corpus("tiny", seed=0, groups=("Banded",))[:3]


@pytest.fixture(scope="module")
def rome():
    return [get_architecture("Rome")]


@pytest.fixture
def spill_root(tmp_path, monkeypatch):
    """Point the engine's spill store at a private temp dir."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


def _spill_dirs(root):
    return sorted(Path(root).glob("repro_spill_*"))


def _run(corpus, archs, **kw):
    engine = SweepEngine(corpus, archs, ["RCM", "Gray"],
                         kernels=("1d",), **kw)
    result = engine.run()
    assert not result.failed
    return engine, sorted(
        (r.matrix, r.ordering, r.kernel, r.architecture, r.gflops_max,
         r.gflops_mean, r.seconds) for r in result.records)


def _records(result):
    return [vars(r) for r in result.records]


# ----------------------------------------------------------------------
# constructor policy
# ----------------------------------------------------------------------
def test_transport_validation(tiny_corpus, rome):
    with pytest.raises(HarnessError, match="shard_bytes"):
        SweepEngine(tiny_corpus, rome, ["RCM"], shard_bytes=0)


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
def test_shard_tasks_bounds_bytes(tiny_corpus, rome):
    class T:  # minimal stand-in for _TaskSpec
        def __init__(self, entry):
            self.entry = entry

    per = SweepEngine._entry_nbytes(tiny_corpus[0])
    assert per == (tiny_corpus[0].matrix.nrows + 1) * 8 + \
        tiny_corpus[0].matrix.nnz * 16

    tasks = [T(e) for e in tiny_corpus * 4]
    engine = SweepEngine(tiny_corpus, rome, ["RCM"], shard_bytes=1)
    # budget smaller than any matrix: one task per shard, none dropped
    shards = engine._shard_tasks(tasks)
    assert [len(s) for s in shards] == [1] * len(tasks)

    engine = SweepEngine(tiny_corpus, rome, ["RCM"])
    assert engine._shard_tasks(tasks) == [tasks]  # no budget: one shard

    budget = sum(SweepEngine._entry_nbytes(t.entry) for t in tasks[:3])
    engine = SweepEngine(tiny_corpus, rome, ["RCM"], shard_bytes=budget)
    shards = engine._shard_tasks(tasks)
    assert sum(len(s) for s in shards) == len(tasks)  # order-preserving
    assert [t.entry.name for s in shards for t in s] == \
        [t.entry.name for t in tasks]
    for shard in shards[:-1]:
        assert sum(SweepEngine._entry_nbytes(t.entry)
                   for t in shard) <= budget


def test_sharded_pool_sweep_matches_serial(tiny_corpus, rome, spill_root):
    _, serial = _run(tiny_corpus, rome, seed=0, jobs=1)
    engine, sharded = _run(tiny_corpus, rome, seed=0, jobs=2,
                           shard_bytes=1)
    assert sharded == serial
    assert engine.metrics.workers["shards"] > 1
    assert _spill_dirs(spill_root) == []


# ----------------------------------------------------------------------
# equivalence: pool (memmap) vs serial (inline)
# ----------------------------------------------------------------------
def test_pool_records_identical_to_serial(tiny_corpus, rome, spill_root):
    serial = SweepEngine(tiny_corpus, rome, ["RCM", "Gray"],
                         kernels=("1d",)).run()
    engine = SweepEngine(tiny_corpus, rome, ["RCM", "Gray"],
                         kernels=("1d",), jobs=2)
    pooled = engine.run()
    assert _records(serial) == _records(pooled)
    assert pooled.failed == []
    assert engine.metrics.stages["storage"] > 0.0
    assert "serialize" not in engine.metrics.stages


def test_memmap_over_snapshot_matches_serial(tmp_path, tiny_corpus, rome,
                                             spill_root):
    snap = ensure_corpus_snapshot(str(tmp_path / "c"), tier="tiny",
                                  seed=0, limit=3, groups=("Banded",))
    _, ref = _run(tiny_corpus, rome, seed=0, jobs=1)
    engine, mm = _run(list(snap.entries), rome, seed=0, jobs=2,
                      snapshot=snap)
    assert mm == ref
    assert engine.metrics.stages["storage"] >= 0.0
    assert engine.signature()["snapshot"] == snap.signature
    # snapshot entries ship their own directories: nothing is spilled
    assert _spill_dirs(spill_root) == []


def test_pack_task_ships_stored_paths(tmp_path, tiny_corpus, rome,
                                      spill_root):
    snap = ensure_corpus_snapshot(str(tmp_path / "c"), tier="tiny",
                                  seed=0, limit=1, groups=("Banded",))
    engine = SweepEngine(list(snap.entries), rome, ["RCM"],
                         kernels=("1d",))
    task = _TaskSpec(entry=snap.entries[0], pending=frozenset())
    packed = engine._pack_task(task)
    assert packed.matrix_ref == snap.entries[0].storage_path
    assert engine._spill_dir is None

    # an in-RAM entry is spilled once and shipped without its matrix
    engine2 = SweepEngine(tiny_corpus, rome, ["RCM"], kernels=("1d",))
    task2 = _TaskSpec(entry=tiny_corpus[0], pending=frozenset())
    packed2 = engine2._pack_task(task2)
    assert os.path.dirname(packed2.matrix_ref) == engine2._spill_dir
    assert packed2.entry.matrix is None
    assert engine2._pack_task(task2).matrix_ref == packed2.matrix_ref
    engine2._release_spill()
    assert _spill_dirs(spill_root) == []


def test_memmap_spills_inram_corpus_and_cleans_up(tiny_corpus, rome,
                                                  spill_root):
    """A pool run over an in-RAM corpus spills to a temp store that is
    removed after the run, and puts the SIGTERM handler back."""
    handler = signal.getsignal(signal.SIGTERM)
    engine, recs = _run(tiny_corpus, rome, seed=0, jobs=2)
    _, ref = _run(tiny_corpus, rome, seed=0, jobs=1)
    assert recs == ref
    assert engine._spill_dir is None
    assert _spill_dirs(spill_root) == [], "spill directories leaked"
    assert signal.getsignal(signal.SIGTERM) is handler


def test_serial_run_stays_inline(tiny_corpus, rome, spill_root):
    engine = SweepEngine(tiny_corpus, rome, ["RCM", "Gray"],
                         kernels=("1d",), jobs=1)
    result = engine.run()
    assert result.failed == []
    assert engine.metrics.stages["storage"] == 0.0
    assert engine._spill_dir is None
    assert _spill_dirs(spill_root) == []


def test_worker_attach_resolves_memmap(tmp_path, rome):
    """The worker-side resolver attaches a stored matrix read-only."""
    from repro.harness.engine import _resolve_task_matrix

    snap = ensure_corpus_snapshot(str(tmp_path / "c"), tier="tiny",
                                  seed=0, limit=1, groups=("Banded",))
    entry = snap.entries[0]
    task = _TaskSpec(entry=entry, pending=frozenset(),
                     matrix_ref=entry.storage_path)
    timings = {"storage": 0.0}
    a = _resolve_task_matrix(task, timings)
    assert a.nnz == entry.nnz
    assert not a.values.flags.writeable
    assert timings["storage"] > 0.0
    fmt.detach_all()


# ----------------------------------------------------------------------
# lifecycle: spill failure, worker death, interrupted resume, SIGTERM
# ----------------------------------------------------------------------
def test_spill_failure_gives_storage_failures(tiny_corpus, rome,
                                              spill_root, monkeypatch):
    """A spill that raises fails that matrix's cells with
    ``stage="storage"``; the other matrices still complete."""
    bad = tiny_corpus[0].name
    real_write = fmt.write_matrix

    def flaky_write(path, a, meta=None):
        if meta and meta.get("name") == bad:
            raise OSError(28, "No space left on device")
        return real_write(path, a, meta=meta)

    monkeypatch.setattr(fmt, "write_matrix", flaky_write)
    serial = SweepEngine(tiny_corpus, rome, ["RCM", "Gray"],
                         kernels=("1d",)).run()
    engine = SweepEngine(tiny_corpus, rome, ["RCM", "Gray"],
                         kernels=("1d",), jobs=2)
    pooled = engine.run()  # no exception

    cells = {c for c in engine.cells() if c[0] == bad}
    assert {f.cell for f in pooled.failed} == cells
    for f in pooled.failed:
        assert (f.stage, f.error) == ("storage", "OSError")
    assert _records(pooled) == [vars(r) for r in serial.records
                                if r.matrix != bad]
    assert engine.metrics.cells["failed"] == len(cells)
    assert _spill_dirs(spill_root) == []


def _install_killer_ordering():
    from repro.reorder import registry

    def killer(a, **kw):
        os.kill(os.getpid(), signal.SIGKILL)

    registry.ORDERING_FUNCS["Killer"] = killer


@pytest.fixture
def killer_ordering():
    from repro.reorder import registry

    _install_killer_ordering()
    yield "Killer"
    registry.ORDERING_FUNCS.pop("Killer", None)


def test_worker_sigkill_leaks_no_spill_dir(tiny_corpus, rome,
                                           killer_ordering, spill_root):
    engine = SweepEngine(tiny_corpus, rome, ["RCM", killer_ordering],
                         kernels=("1d",), jobs=2, retries=0)
    result = engine.run()
    # the killer cells become structured worker-death failures...
    assert any(f.stage == "worker" for f in result.failed)
    # ...and the engine still removed the spill store it created
    assert engine._spill_dir is None
    assert _spill_dirs(spill_root) == []


def test_interrupted_resume_reattaches_over_memmap(tiny_corpus, rome,
                                                   tmp_path, spill_root):
    journal = str(tmp_path / "sweep.jsonl")
    full = SweepEngine(tiny_corpus, rome, ["RCM", "Gray"],
                       kernels=("1d",), jobs=2,
                       journal_path=journal).run()

    # simulate a kill partway through: drop the last 6 journaled cells
    with open(journal) as f:
        lines = f.readlines()
    with open(journal, "wt") as f:
        f.writelines(lines[:-6])

    engine = SweepEngine(tiny_corpus, rome, ["RCM", "Gray"],
                         kernels=("1d",), jobs=2, journal_path=journal,
                         resume=True)
    resumed = engine.run()
    assert _records(resumed) == _records(full)
    assert resumed.failed == []
    assert engine.metrics.cells["resumed"] == len(lines) - 1 - 6
    # the resumed run spilled only the matrices it still needed
    assert engine.metrics.stages["storage"] > 0.0
    assert _spill_dirs(spill_root) == []


#: matrices in the SIGTERM test's sweep; each task sleeps 1 s
_SIGTERM_MATRICES = 10

_SIGTERM_SCRIPT = textwrap.dedent(f"""
    import os
    import pathlib
    import sys
    import time

    from repro.generators import build_corpus
    from repro.harness.engine import SweepEngine
    from repro.machine import get_architecture
    from repro.reorder import registry

    started = pathlib.Path(sys.argv[1])

    def slow(a, **kw):
        (started / f"{{os.getpid()}}_{{time.monotonic_ns()}}").touch()
        time.sleep(1.0)
        return registry.ORDERING_FUNCS["RCM"](a)

    registry.ORDERING_FUNCS["Slow"] = slow
    corpus = build_corpus("tiny", seed=0)[:{_SIGTERM_MATRICES}]
    SweepEngine(corpus, [get_architecture("Rome")], ["Slow"],
                kernels=("1d",), jobs=2).run()
""")


@pytest.mark.slow
def test_sigterm_removes_spill_store(tmp_path):
    """SIGTERM to the engine mid-sweep still removes its spill store
    (SIGKILL cannot: that case leaks it), and queued tasks never
    start."""
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    started = tmp_path / "started"
    started.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir))
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    log = tmp_path / "stderr.txt"
    with open(log, "w") as err, subprocess.Popen(
            [sys.executable, "-c", _SIGTERM_SCRIPT, str(started)],
            env=env, stdout=subprocess.DEVNULL, stderr=err) as proc:
        try:
            deadline = time.monotonic() + 120
            while not any(started.iterdir()):
                assert proc.poll() is None, log.read_text()
                assert time.monotonic() < deadline, "no worker started"
                time.sleep(0.05)
            assert len(_spill_dirs(tmpdir)) == 1  # the store is live
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
    assert proc.returncode == 128 + signal.SIGTERM, log.read_text()
    assert _spill_dirs(tmpdir) == [], "SIGTERM leaked the spill store"
    assert len(list(started.iterdir())) < _SIGTERM_MATRICES


# ----------------------------------------------------------------------
# ordering-cache stats must not bill mapped permutations
# ----------------------------------------------------------------------
def test_ordering_cache_reports_mapped_separately(tmp_path):
    from types import SimpleNamespace

    from repro.harness.runner import OrderingCache
    from repro.obs.cachestats import CACHE_STATS_KEYS

    cache = OrderingCache()
    heap_perm = np.arange(64)
    cache._memory["m1/RCM"] = SimpleNamespace(perm=heap_perm)
    stats = cache.stats
    assert all(k in stats for k in CACHE_STATS_KEYS)
    assert stats["size_bytes"] == heap_perm.nbytes
    assert stats["mapped_bytes"] == 0

    # a memmap-backed permutation must move to mapped_bytes
    mpath = tmp_path / "perm.npy"
    np.save(mpath, np.arange(128))
    mapped_perm = np.load(mpath, mmap_mode="r")
    cache._memory["m2/RCM"] = SimpleNamespace(perm=mapped_perm)
    stats = cache.stats
    assert stats["size_bytes"] == heap_perm.nbytes
    assert stats["mapped_bytes"] == mapped_perm.nbytes
