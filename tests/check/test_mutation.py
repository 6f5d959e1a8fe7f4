"""The mutation smoke catches every seeded fault and leaves no patches."""

from __future__ import annotations

import warnings

import pytest

from repro.check import mutation


@pytest.fixture(scope="module")
def smoke_run():
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        report = mutation.run_mutation_smoke(seed=0)
    return report, leaked


@pytest.fixture(scope="module")
def smoke(smoke_run):
    return smoke_run[0]


def test_baseline_is_clean(smoke):
    assert smoke.baseline_clean, smoke.baseline_findings


def test_every_fault_is_caught(smoke):
    missed = [o.fault for o in smoke.outcomes if not o.caught]
    assert not missed, f"oracle blind spots: {missed}"
    assert smoke.ok
    assert len(smoke.outcomes) == len(mutation.FAULTS) >= 10


def test_smoke_leaks_no_warnings(smoke_run):
    _, leaked = smoke_run
    assert [str(w.message) for w in leaked] == []


def test_diverging_fault_reports_overflow_as_symptom(smoke):
    # the halved Jacobi diagonal makes the iterate blow up; numpy's
    # overflow is that fault's symptom, not a stray warning
    outcome = {o.fault: o for o in smoke.outcomes}["jacobi-halved-diagonal"]
    assert "overflow" in outcome.fp_errors
    assert "numpy overflow" in smoke.render()


def test_fault_names_are_unique():
    names = [f.name for f in mutation.FAULTS]
    assert len(names) == len(set(names))


def test_patches_are_restored(smoke):
    # after the smoke ran (module fixture), production symbols must be
    # the originals — a leaked patch would poison later test modules
    import repro.features as features
    from repro.machine.reuse import ReuseStats
    from repro.obs import cachestats
    from repro.spmv import kernels

    assert features.bandwidth.__module__ == "repro.features.bandwidth"
    assert kernels.spmv_1d.__module__ == "repro.spmv.kernels"
    assert cachestats.cache_stats.__module__ == "repro.obs.cachestats"
    assert ReuseStats.prev.__qualname__ == "ReuseStats.prev"


def test_patch_context_restores_on_error():
    class Box:
        attr = "orig"

    with pytest.raises(RuntimeError):
        with mutation._patched(Box, "attr", "patched"):
            assert Box.attr == "patched"
            raise RuntimeError("boom")
    assert Box.attr == "orig"


def test_report_serialises(smoke):
    d = smoke.to_dict()
    assert d["ok"] is True
    assert len(d["outcomes"]) == len(mutation.FAULTS)
    text = smoke.render()
    assert "every fault caught" in text
