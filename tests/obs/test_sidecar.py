"""Sidecar loading (crash contract), correlation-link validation, and
cross-process trace merging."""

from __future__ import annotations

import json

import pytest

from repro.obs.report import (load_any_trace, load_sidecar, merge_traces,
                              validate_links)


def _ev(name, ts, dur, pid=1, tid=1, **args):
    ev = {"name": name, "ph": "X", "cat": "repro", "ts": ts, "dur": dur,
          "pid": pid, "tid": tid}
    if args:
        ev["args"] = args
    return ev


# ----------------------------------------------------------------------
# load_sidecar: the crash contract
# ----------------------------------------------------------------------
def test_sidecar_roundtrip(tmp_path):
    path = tmp_path / "t.jsonl"
    events = [_ev("a", 0.0, 5.0), _ev("b", 1.0, 2.0)]
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    assert load_sidecar(str(path)) == events


def test_sidecar_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(_ev("a", 0.0, 5.0)) + "\n"
                    + '{"name": "torn", "ph"')
    events = load_sidecar(str(path))
    assert [e["name"] for e in events] == ["a"]


def test_sidecar_rejects_midfile_corruption(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"broken\n' + json.dumps(_ev("a", 0.0, 5.0)) + "\n")
    with pytest.raises(ValueError, match="corrupt sidecar line"):
        load_sidecar(str(path))


def test_sidecar_rejects_non_object_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('[1, 2, 3]\n' + json.dumps(_ev("a", 0.0, 5.0)) + "\n")
    with pytest.raises(ValueError, match="not an object"):
        load_sidecar(str(path))


def test_sidecar_skips_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("\n" + json.dumps(_ev("a", 0.0, 5.0)) + "\n\n")
    assert len(load_sidecar(str(path))) == 1


# ----------------------------------------------------------------------
# validate_links
# ----------------------------------------------------------------------
def test_plain_trace_passes_vacuously():
    assert validate_links([_ev("a", 0.0, 5.0)]) == []


def test_linked_spans_within_parent_pass():
    events = [
        _ev("child", 1.0, 2.0, span_id="c", parent_id="p",
            trace_id="t"),
        _ev("parent", 0.0, 5.0, span_id="p", trace_id="t"),
    ]
    assert validate_links(events) == []


def test_orphaned_parent_flagged():
    events = [_ev("child", 1.0, 2.0, span_id="c", parent_id="ghost")]
    problems = validate_links(events)
    assert len(problems) == 1 and "orphaned link" in problems[0]


def test_child_exceeding_parent_flagged():
    events = [
        _ev("child", 1.0, 9.0, span_id="c", parent_id="p"),
        _ev("parent", 0.0, 5.0, span_id="p"),
    ]
    problems = validate_links(events)
    assert len(problems) == 1 and "clock skew" in problems[0]


def test_remote_parent_exempt_until_merged():
    # a server-only trace: the client span lives in another process
    server = [_ev("serve.request", 1.0, 2.0, span_id="s",
                  trace_id="req-1", remote_parent="client-span")]
    assert validate_links(server) == []


# ----------------------------------------------------------------------
# merge_traces
# ----------------------------------------------------------------------
def test_merge_traces_sorts_and_correlates(tmp_path):
    client = tmp_path / "client.json"
    server = tmp_path / "server.jsonl"
    client_ev = _ev("loadgen.request", 0.0, 10.0, pid=100,
                    span_id="c1", trace_id="req-c1")
    server_evs = [
        _ev("serve.request", 2.0, 5.0, pid=200, span_id="s1",
            trace_id="req-c1", remote_parent="c1"),
        _ev("advisor.request", 3.0, 1.0, pid=200, span_id="a1",
            parent_id="s1", trace_id="req-c1"),
    ]
    client.write_text(json.dumps({"traceEvents": [client_ev]}))
    server.write_text("".join(json.dumps(e) + "\n" for e in server_evs))

    out = tmp_path / "merged.json"
    n = merge_traces([str(client), str(server)], str(out))
    assert n == 3
    with open(out) as f:
        merged = json.load(f)["traceEvents"]
    assert [(e["pid"], e["ts"]) for e in merged] == \
        sorted((e["pid"], e["ts"]) for e in merged)
    # one causally-linked timeline: ids resolve across processes now
    assert validate_links(merged) == []
    assert {e["args"]["trace_id"] for e in merged} == {"req-c1"}


def test_load_any_trace_dispatches_on_extension(tmp_path):
    ev = _ev("a", 0.0, 1.0)
    json_path = tmp_path / "t.json"
    json_path.write_text(json.dumps({"traceEvents": [ev]}))
    jsonl_path = tmp_path / "t.jsonl"
    jsonl_path.write_text(json.dumps(ev) + "\n")
    assert load_any_trace(str(json_path)) == [ev]
    assert load_any_trace(str(jsonl_path)) == [ev]
