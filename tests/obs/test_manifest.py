"""Run manifest: collection, round-trip, validation."""

import json

from repro.obs.manifest import (
    MANIFEST_VERSION,
    REQUIRED_FIELDS,
    RunManifest,
    collect,
)


def test_collect_gathers_provenance():
    man = collect(seed=42, signature={"corpus": ["m1"]},
                  config={"jobs": 2}, argv=["repro", "sweep"])
    assert man.version == MANIFEST_VERSION
    assert man.seed == 42
    assert man.signature == {"corpus": ["m1"]}
    assert man.config == {"jobs": 2}
    assert man.argv == ["repro", "sweep"]
    assert man.python and man.platform
    assert set(man.packages) >= {"numpy", "scipy"}
    assert man.packages["numpy"]  # baked into the image
    # this repo is a git checkout, so the sha must resolve
    assert man.git_sha and len(man.git_sha) == 40
    assert RunManifest.validate(man.to_dict()) == []


def test_run_ids_are_unique():
    assert collect().run_id != collect().run_id


def test_write_load_roundtrip(tmp_path):
    man = collect(seed=7, config={"tier": "tiny"})
    path = str(tmp_path / "run_manifest.json")
    man.write(path)
    loaded = RunManifest.load(path)
    assert loaded == man
    # the on-disk form is sorted, indented JSON
    with open(path) as f:
        data = json.load(f)
    assert RunManifest.validate(data) == []


def test_load_ignores_unknown_fields(tmp_path):
    man = collect()
    data = man.to_dict()
    data["future_field"] = "something"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert RunManifest.load(str(path)) == man


def test_validate_flags_missing_fields_and_newer_versions():
    problems = RunManifest.validate({})
    assert len(problems) == len(REQUIRED_FIELDS)
    data = collect().to_dict()
    data["version"] = MANIFEST_VERSION + 1
    assert any("newer" in p for p in RunManifest.validate(data))
    del data["run_id"]
    assert any("run_id" in p for p in RunManifest.validate(data))


def test_unpicklable_seed_is_stringified():
    man = collect(seed=object())
    assert isinstance(man.seed, str)
    json.dumps(man.to_dict())  # must stay serialisable
