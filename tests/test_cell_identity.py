"""A cell's identity and verdict.

The cache key covers the whole configuration and the simulator's code,
and one reader (``ExperimentRunner.read_entry``) judges every cache
entry: the runner warns about and drops what it finds bad, and the
reconciliation detector reports the same verdict without touching it.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import repro.analysis.runner as runner_mod
from repro.analysis.runner import ExperimentRunner
from repro.core.config import CoreConfig, SchedulerParams, config_for
from repro.distrib import CampaignSpec, Detector, run_shard
from repro.memory.hierarchy import HierarchyConfig
from repro.telemetry import read_run_log

OPS = 400
BASE = config_for("ooo")


# ---------------------------------------------------------------------------
# the key


def _other(value):
    """A different value of the same type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-x"
    if isinstance(value, tuple):
        return value + (1,)
    raise TypeError(f"no variant for {value!r}")


def _changed(config, owner, name):
    """``config`` with one field of ``owner`` (None: the config) changed."""
    if owner is None:
        return dataclasses.replace(config,
                                   **{name: _other(getattr(config, name))})
    inner = getattr(config, owner)
    return dataclasses.replace(config, **{owner: dataclasses.replace(
        inner, **{name: _other(getattr(inner, name))})})


FIELDS = (
    [pytest.param(None, f.name, id=f"CoreConfig.{f.name}")
     for f in dataclasses.fields(CoreConfig)
     if f.name not in ("scheduler", "hierarchy")]
    + [pytest.param("scheduler", f.name, id=f"SchedulerParams.{f.name}")
       for f in dataclasses.fields(SchedulerParams)]
    + [pytest.param("hierarchy", f.name, id=f"HierarchyConfig.{f.name}")
       for f in dataclasses.fields(HierarchyConfig)]
)


@pytest.mark.parametrize("owner,name", FIELDS)
def test_every_config_field_is_in_the_key(owner, name):
    runner = ExperimentRunner(target_ops=OPS, cache_dir="")
    changed = _changed(BASE, owner, name)
    assert changed != BASE
    assert runner.key_for("dotprod", changed) != \
        runner.key_for("dotprod", BASE)


def test_model_digest_changes_every_key(monkeypatch):
    runner = ExperimentRunner(target_ops=OPS, cache_dir="")
    cells = [(workload, config_for(arch), seed)
             for workload in ("dotprod", "histogram")
             for arch in ("inorder", "ooo", "ballerino")
             for seed in (7, 8)]
    before = [runner.key_for(*cell) for cell in cells]
    monkeypatch.setattr(runner_mod, "model_digest", lambda: "0" * 64)
    after = [runner.key_for(*cell) for cell in cells]
    assert all(old != new for old, new in zip(before, after))
    assert len(set(after)) == len(cells)


def test_model_digest_is_computed_once_per_process():
    first = runner_mod.model_digest()
    assert runner_mod.model_digest() is first
    assert first == runner_mod.model_digest.__wrapped__()


# ---------------------------------------------------------------------------
# the one reader, fed to both callers


def _edit_payload(edit):
    def damage(path, monkeypatch):
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
    return damage


def _deny_read(path, monkeypatch):
    real_read = Path.read_text

    def read_text(self, *args, **kwargs):
        if self == path:
            raise PermissionError(13, "Permission denied")
        return real_read(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_text)


#: damage -> (how to inflict it, the reader's kind, its detail)
DAMAGE = {
    "zero-byte": (lambda path, _: path.write_text(""),
                  "corrupt", "zero-byte"),
    "binary": (lambda path, _: path.write_bytes(b"\x00\xff{nope"),
               "corrupt", "binary-garbage"),
    "invalid-json": (lambda path, _: path.write_text("{broken"),
                     "corrupt", "invalid-json"),
    "non-object": (lambda path, _: path.write_text("[1, 2]"),
                   "corrupt", "not-an-object"),
    "missing-fields": (_edit_payload(lambda data: data.pop("sampling")),
                       "corrupt", "missing fields: sampling"),
    "misfiled": (_edit_payload(lambda data: data.update(
        workload="histogram")),
        "corrupt", "misfiled: payload claims workload 'histogram'"),
    "undeserialisable": (_edit_payload(
        lambda data: data["stats"].pop("cycles")),
        "corrupt", "undeserialisable: 'cycles'"),
    "unreadable": (_deny_read, "corrupt", "unreadable"),
}


@pytest.fixture()
def one_cell(tmp_path):
    """A one-cell campaign run into its cache: (spec, camp, cache, key)."""
    spec = CampaignSpec(workloads=("dotprod",), arches=("ooo",),
                        widths=(4,), ops=OPS)
    camp, cache = tmp_path / "camp", str(tmp_path / "cache")
    run_shard(spec, 0, camp, cache_dir=cache)
    ((_, _, key),) = Detector(spec, cache_dir=cache).expected()
    return spec, camp, cache, key


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_detector_reports_damage_and_leaves_it(one_cell, damage,
                                               monkeypatch):
    spec, camp, cache, key = one_cell
    inflict, kind, detail = DAMAGE[damage]
    path = Path(cache) / f"{key}.json"
    inflict(path, monkeypatch)
    before = path.read_bytes()
    detector = Detector(spec, cache_dir=cache)
    assert detector._runner.read_entry(key, "dotprod")[:2] == (kind, detail)
    (status,) = detector.diff(camp).statuses
    assert (status.state, status.detail) == (kind, detail)
    assert path.read_bytes() == before


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_runner_warns_drops_and_reruns_damage(one_cell, damage,
                                              monkeypatch, tmp_path):
    spec, _, cache, key = one_cell
    inflict, _, detail = DAMAGE[damage]
    path = Path(cache) / f"{key}.json"
    good = path.read_text()
    inflict(path, monkeypatch)
    log = str(tmp_path / "cold.jsonl")
    runner = ExperimentRunner(target_ops=OPS, seed=spec.seed,
                              cache_dir=cache, run_log=log)
    assert runner._fetch_cached(key, "dotprod") is None
    warnings = read_run_log(log, event="cache_warning")
    assert [event["reason"] for event in warnings] == [detail]
    assert runner.cache_warnings == 1
    # every bad entry is dropped except one that could not be read
    assert path.exists() == (damage == "unreadable")
    result = runner.run("dotprod", config_for("ooo", width=4))
    runner.close()
    assert runner.simulations_run == 1
    assert json.dumps(result.to_dict()) == good
