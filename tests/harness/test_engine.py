"""Tests for the parallel, resumable sweep engine.

Covers the journal golden round-trip (write → kill mid-sweep → resume
recomputes only the torn cell and reproduces bit-identical records),
fault tolerance (FailedCell rows instead of crashes, bounded retries,
timeouts), parallel-vs-serial result equivalence, and the metrics
artifact.
"""

import json
import time

import numpy as np
import pytest

from repro.errors import HarnessError
from repro.generators import build_corpus
from repro.harness import (
    FailedCell,
    OrderingCache,
    SweepEngine,
    SweepJournal,
    run_sweep,
)
from repro.machine import architecture_names, get_architecture
from repro.reorder import registry


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_corpus("tiny", seed=0)[:4]


@pytest.fixture(scope="module")
def rome():
    return [get_architecture("Rome")]


def _run(corpus, archs, journal=None, resume=False, **kw):
    engine = SweepEngine(corpus, archs, ["RCM", "Gray"],
                         journal_path=journal, resume=resume, **kw)
    return engine, engine.run()


# ----------------------------------------------------------------------
# equivalence with the legacy serial runner
# ----------------------------------------------------------------------
def test_engine_matches_run_sweep(tiny_corpus, rome):
    legacy = run_sweep(tiny_corpus, rome, ["RCM", "Gray"],
                       cache=OrderingCache())
    _, engine = _run(tiny_corpus, rome)
    assert legacy.records == engine.records


def test_parallel_records_identical_to_serial(tiny_corpus, rome):
    _, serial = _run(tiny_corpus, rome)
    _, fanout = _run(tiny_corpus, rome, jobs=2)
    assert serial.records == fanout.records
    assert fanout.failed == []


# ----------------------------------------------------------------------
# journal: golden round-trip
# ----------------------------------------------------------------------
def test_journal_roundtrip_and_resume_skips_completed(
        tiny_corpus, rome, tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    eng1, clean = _run(tiny_corpus, rome, journal=journal)
    assert eng1.metrics.cells["resumed"] == 0

    eng2, resumed = _run(tiny_corpus, rome, journal=journal, resume=True)
    assert resumed.records == clean.records  # bit-identical dataclasses
    stats = eng2.metrics.cells
    assert stats["resumed"] == stats["total"] == len(clean.records)
    # zero recomputation: no ordering was recomputed on resume
    assert eng2.metrics.cache.get("requests", 0) == 0


def test_torn_journal_recomputes_only_the_torn_cell(
        tiny_corpus, rome, tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    _, clean = _run(tiny_corpus, rome, journal=journal)

    # kill mid-write: truncate the file inside its final record line
    with open(journal, "rt") as f:
        raw = f.readlines()
    torn = "".join(raw[:-1]) + raw[-1][: len(raw[-1]) // 2]
    with open(journal, "wt") as f:
        f.write(torn)

    eng, resumed = _run(tiny_corpus, rome, journal=journal, resume=True)
    assert resumed.records == clean.records
    stats = eng.metrics.cells
    assert stats["resumed"] == stats["total"] - 1
    # the journal healed: a further resume completes without computing
    eng2, again = _run(tiny_corpus, rome, journal=journal, resume=True)
    assert eng2.metrics.cells["resumed"] == stats["total"]
    assert again.records == clean.records


def test_resume_rejects_mismatched_signature(tiny_corpus, rome, tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    _run(tiny_corpus, rome, journal=journal)
    with pytest.raises(HarnessError, match="signature"):
        SweepEngine(tiny_corpus[:2], rome, ["RCM", "Gray"],
                    journal_path=journal, resume=True).run()


def test_journal_without_resume_starts_fresh(tiny_corpus, rome, tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    _run(tiny_corpus, rome, journal=journal)
    eng, _ = _run(tiny_corpus, rome, journal=journal, resume=False)
    assert eng.metrics.cells["resumed"] == 0
    # the file was rewritten, not appended to
    _, records, _ = SweepJournal.load(journal)
    assert len(records) == eng.metrics.cells["total"]


def test_journal_load_rejects_headerless_file_with_entries(tmp_path):
    # entries whose header is gone cannot be matched to a sweep
    path = tmp_path / "broken.jsonl"
    failed = json.dumps({"type": "failed", "cell": ["m", "RCM", "1d", "Rome"],
                         "data": {"matrix": "m", "ordering": "RCM",
                                  "kernel": "1d", "architecture": "Rome",
                                  "stage": "reorder", "error": "E",
                                  "message": "boom"}})
    path.write_text(failed + "\n")
    with pytest.raises(HarnessError, match="header"):
        SweepJournal.load(str(path))


def test_journal_load_empty_file_is_no_completed_cells(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert SweepJournal.load(str(path)) == (None, {}, [])


def test_resume_from_zero_byte_journal_starts_fresh(
        tiny_corpus, rome, tmp_path):
    # a sweep killed before its header flushed leaves a 0-byte file;
    # resuming from it must behave exactly like a fresh run
    journal = str(tmp_path / "sweep.jsonl")
    open(journal, "wt").close()
    _, clean = _run(tiny_corpus, rome)
    eng, resumed = _run(tiny_corpus, rome, journal=journal, resume=True)
    assert resumed.records == clean.records
    assert eng.metrics.cells["resumed"] == 0
    # and the healed journal now supports a normal full resume
    eng2, _ = _run(tiny_corpus, rome, journal=journal, resume=True)
    assert eng2.metrics.cells["resumed"] == eng2.metrics.cells["total"]


def test_resume_from_torn_only_journal_starts_fresh(
        tiny_corpus, rome, tmp_path):
    # the only line is the torn prefix of the header (killed mid-write)
    journal = str(tmp_path / "sweep.jsonl")
    with open(journal, "wt") as f:
        f.write('{"type": "header", "versi')
    _, clean = _run(tiny_corpus, rome)
    eng, resumed = _run(tiny_corpus, rome, journal=journal, resume=True)
    assert resumed.records == clean.records
    assert eng.metrics.cells["resumed"] == 0


# ----------------------------------------------------------------------
# fault tolerance
# ----------------------------------------------------------------------
@pytest.fixture
def exploding_ordering():
    def boom(a, **kw):
        raise RuntimeError("injected failure")

    registry.ORDERING_FUNCS["Boom"] = boom
    yield "Boom"
    registry.ORDERING_FUNCS.pop("Boom", None)


@pytest.fixture
def sleepy_ordering():
    def sleepy(a, **kw):
        time.sleep(10)

    registry.ORDERING_FUNCS["Sleepy"] = sleepy
    yield "Sleepy"
    registry.ORDERING_FUNCS.pop("Sleepy", None)


def test_raising_ordering_yields_failed_cells_not_a_crash(
        tiny_corpus, rome, exploding_ordering):
    engine = SweepEngine(tiny_corpus, rome, ["RCM", exploding_ordering],
                         retries=1)
    result = engine.run()
    # every other cell completed: baseline + RCM, both kernels
    assert len(result.records) == len(tiny_corpus) * 2 * 2
    assert len(result.failed) == len(tiny_corpus) * 2
    for f in result.failed:
        assert isinstance(f, FailedCell)
        assert f.ordering == exploding_ordering
        assert f.stage == "reorder"
        assert f.error == "RuntimeError"
        assert f.attempts == 2
    assert engine.metrics.cells["retried"] == len(tiny_corpus)
    assert not result.complete


def test_timeout_produces_structured_timeout_failure(
        tiny_corpus, rome, sleepy_ordering):
    engine = SweepEngine(tiny_corpus[:1], rome, [sleepy_ordering],
                         timeout=0.2)
    start = time.perf_counter()
    result = engine.run()
    assert time.perf_counter() - start < 5.0  # did not sleep 10s
    assert [f.error for f in result.failed] == ["CellTimeout"] * 2


def test_failed_cells_are_journaled_and_retried_on_resume(
        tiny_corpus, rome, tmp_path, exploding_ordering):
    journal = str(tmp_path / "sweep.jsonl")
    eng1 = SweepEngine(tiny_corpus[:2], rome, ["RCM", exploding_ordering],
                       journal_path=journal)
    eng1.run()
    _, _, journaled_failures = SweepJournal.load(journal)
    assert len(journaled_failures) == 2 * 2

    # the ordering is fixed before the resume: the failed cells are
    # still pending (only completed cells are skipped) and now succeed
    registry.ORDERING_FUNCS[exploding_ordering] = \
        registry.ORDERING_FUNCS["RCM"]
    eng2 = SweepEngine(tiny_corpus[:2], rome, ["RCM", exploding_ordering],
                       journal_path=journal, resume=True)
    result = eng2.run()
    assert result.failed == []
    assert len(result.records) == eng2.metrics.cells["total"]
    assert eng2.metrics.cells["resumed"] == 2 * (1 + 1) * 2  # ok cells


def test_strict_run_sweep_escalates_failures(
        tiny_corpus, rome, exploding_ordering):
    with pytest.raises(HarnessError, match="injected failure"):
        run_sweep(tiny_corpus[:1], rome, [exploding_ordering])
    result = run_sweep(tiny_corpus[:1], rome, [exploding_ordering],
                       strict=False)
    assert len(result.failed) == 2


# ----------------------------------------------------------------------
# metrics & progress
# ----------------------------------------------------------------------
def test_metrics_artifact_shape(tiny_corpus, rome, tmp_path):
    engine, result = _run(tiny_corpus, rome, jobs=2)
    path = tmp_path / "sweep_metrics.json"
    engine.metrics.save(path)
    m = json.loads(path.read_text())
    assert m["jobs"] == 2
    assert m["cells"]["completed"] == len(result.records)
    assert m["cells"]["failed"] == 0
    assert set(m["stages"]) >= {"reorder", "model_eval"}
    assert m["stages"]["model_eval"] > 0.0
    assert 0.0 < m["workers"]["utilization"] <= 1.0
    assert m["cache"]["requests"] == m["cache"]["hits"] + \
        m["cache"]["disk_hits"] + m["cache"]["misses"]


def test_progress_heartbeat_reaches_total(tiny_corpus, rome):
    beats = []
    engine = SweepEngine(
        tiny_corpus, rome, ["RCM"],
        progress=lambda done, total, failed, elapsed:
            beats.append((done, total, failed)))
    engine.run()
    assert beats, "progress callback never fired"
    done, total, failed = beats[-1]
    assert done == total == engine.metrics.cells["total"]
    assert failed == 0
    assert [b[0] for b in beats] == sorted(b[0] for b in beats)


def test_engine_rejects_bad_config(tiny_corpus, rome):
    with pytest.raises(HarnessError):
        SweepEngine(tiny_corpus, rome, ["RCM"], jobs=0)
    with pytest.raises(HarnessError):
        SweepEngine(tiny_corpus, rome, ["RCM"], retries=-1)


# ----------------------------------------------------------------------
# advisor integration: dataset building over a faulty sweep
# ----------------------------------------------------------------------
def test_advisor_dataset_skips_failed_cells(
        tiny_corpus, rome, exploding_ordering):
    from repro.advisor.dataset import build_dataset

    cache = OrderingCache()
    engine = SweepEngine(tiny_corpus, rome, ["RCM", exploding_ordering],
                         cache=cache)
    sweep = engine.run()
    assert sweep.failed
    rows = build_dataset(tiny_corpus, rome,
                         orderings=["RCM", exploding_ordering],
                         cache=cache, sweep=sweep)
    assert len(rows) == len(tiny_corpus) * 2  # one per kernel
    for row in rows:
        assert exploding_ordering not in row.speedups
        assert exploding_ordering not in row.reorder_seconds
        assert set(row.speedups) == {"original", "RCM"}
        assert np.isfinite(row.best_speedup)


# ----------------------------------------------------------------------
# model-statistics reuse observability
# ----------------------------------------------------------------------
def test_metrics_report_model_stat_reuse(tmp_path):
    """A multi-architecture sweep must reuse the per-(matrix, ordering)
    statistics and schedules across cells, and say so in the metrics.
    Naples and TX2 share a 64-core count, so their schedules must be
    served from the same cache entries.  A fresh corpus (not the
    module fixture) keeps the build counts deterministic — matrices
    memoise their statistics across engine runs."""
    corpus = build_corpus("tiny", seed=0)[:4]
    archs = [get_architecture(n) for n in ("Naples", "TX2")]
    engine = SweepEngine(corpus, archs, ["RCM", "Gray"])
    engine.run()
    stats = engine.metrics.model_stats
    # 3 variants (original, RCM, Gray) per matrix, one statistics build
    # each; every further (arch, kernel) cell is a hit
    assert stats["reuse_builds"] == 3 * len(corpus)
    assert stats["reuse_hits"] > 0
    assert stats["schedule_builds"] > 0
    assert stats["schedule_hits"] > 0
    assert "reuse_stats" in engine.metrics.stages
    path = tmp_path / "sweep_metrics.json"
    engine.metrics.save(path)
    m = json.loads(path.read_text())
    assert m["model_stats"] == stats
    assert set(m["stages"]) >= {"reorder", "reuse_stats", "model_eval"}


def test_metrics_report_xloads_memo_sharing():
    """All 8 machines × 1d,2d,cg,spmm on one (matrix, ordering) need
    only 12 per-thread x-loads computations: cg and spmm resolve to
    the 1d schedule, the 8 machines have 6 core counts, and the one
    machine with a 10-line L2 window (Ice Lake) has a core count of
    its own."""
    corpus = build_corpus("tiny", seed=0)[:1]
    archs = [get_architecture(n) for n in architecture_names()]
    engine = SweepEngine(corpus, archs, ["RCM", "Gray"],
                         kernels=("1d", "2d", "cg", "spmm"))
    result = engine.run()
    assert result.failed == []
    stats = engine.metrics.model_stats
    variants = 3  # original, RCM, Gray
    cells = variants * len(archs) * 4
    assert cells == 96
    assert stats["xloads_builds"] == variants * 12 == 36
    assert stats["xloads_hits"] == cells - 36 == 60


def test_gp_grouping_keeps_per_arch_permutations(tiny_corpus):
    """GP permutations depend on the architecture's core count; the
    ordering-outer loop must still produce the same records as the
    legacy arch-outer serial runner."""
    archs = [get_architecture(n) for n in ("Rome", "Milan B")]
    legacy = run_sweep(tiny_corpus[:2], archs, ["GP"],
                       cache=OrderingCache())
    engine = SweepEngine(tiny_corpus[:2], archs, ["GP"])
    assert engine.run().records == legacy.records
