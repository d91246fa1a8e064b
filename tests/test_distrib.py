"""Distributed campaigns: sharding, ordered merge, reconciliation."""

import json

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.distrib import (
    CampaignSpec,
    Detector,
    RepairEngine,
    RepairScheduler,
    cell_label,
    load_manifest,
    merge_shards,
    reconcile_campaign,
    run_shard,
    shard_cells,
    shard_of,
)
from repro.distrib.reconcile import CampaignDiff, CellStatus
from repro.telemetry.runlog import RunLog

OPS = 400


def make_spec(n_shards=2, salt=1, **kw):
    kw.setdefault("workloads", ("dotprod", "histogram"))
    kw.setdefault("arches", ("inorder", "ooo"))
    kw.setdefault("widths", (4,))
    kw.setdefault("ops", OPS)
    return CampaignSpec(n_shards=n_shards, salt=salt, **kw)


def paths(tmp_path):
    return tmp_path / "camp", str(tmp_path / "cache")


def run_all_shards(spec, camp, cache, **kw):
    for shard in range(spec.n_shards):
        run_shard(spec, shard, camp, cache_dir=cache, **kw)


# ---------------------------------------------------------------------------
# sharding


class TestSharding:
    def test_every_cell_lands_in_exactly_one_shard(self):
        cells = make_spec().cells()
        shards = shard_cells(cells, 3, salt=0)
        seqs = sorted(seq for shard in shards for seq, _ in shard)
        assert seqs == list(range(len(cells)))

    def test_assignment_is_deterministic_and_salted(self):
        cells = make_spec().cells()
        first = [shard_of(cell, 4, salt=0) for cell in cells]
        again = [shard_of(cell, 4, salt=0) for cell in cells]
        resalted = [shard_of(cell, 4, salt=99) for cell in cells]
        assert first == again
        assert first != resalted  # 16 cells: collision odds ~4^-16

    def test_zero_shards_rejected(self):
        cell = make_spec().cells()[0]
        with pytest.raises(ValueError):
            shard_of(cell, 0, salt=0)

    def test_label_distinguishes_default_and_explicit_seed(self):
        spec = make_spec(seeds=(None, 3))
        labels = {cell_label(cell) for cell in spec.cells()}
        assert len(labels) == len(spec.cells())


# ---------------------------------------------------------------------------
# manifest


class TestManifest:
    def test_roundtrip(self, tmp_path):
        camp, _ = paths(tmp_path)
        spec = make_spec()
        spec.save(camp)
        assert load_manifest(camp) == spec

    def test_conflicting_manifest_refused(self, tmp_path):
        camp, _ = paths(tmp_path)
        make_spec().save(camp)
        with pytest.raises(ValueError):
            make_spec(salt=42).save(camp)

    def test_missing_manifest_names_the_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "nowhere")


# ---------------------------------------------------------------------------
# shard execution + ordered merge


class TestMerge:
    def test_full_campaign_merges_complete_and_ordered(self, tmp_path):
        camp, cache = paths(tmp_path)
        spec = make_spec()
        run_all_shards(spec, camp, cache)
        merged = merge_shards(spec, camp, cache_dir=cache)
        assert merged.complete
        assert [env["seq"] for env in merged.envelopes] == \
            list(range(len(spec.cells())))
        assert (camp / "merged.json").exists()

    def test_merge_is_byte_identical_to_serial_run(self, tmp_path):
        camp, cache = paths(tmp_path)
        spec = make_spec()
        run_all_shards(spec, camp, cache, jobs=2)
        merged = merge_shards(spec, camp, cache_dir=cache)
        serial = ExperimentRunner(target_ops=spec.ops, seed=spec.seed,
                                  cache_dir=str(tmp_path / "serial"))
        results = serial.run_many([cell.task(spec.seed)
                                   for cell in spec.cells()])
        for envelope, result in zip(merged.envelopes, results):
            assert json.dumps(envelope["result"], sort_keys=True) == \
                json.dumps(result.to_dict(), sort_keys=True)

    def test_dead_shard_leaves_named_gaps(self, tmp_path):
        camp, cache = paths(tmp_path)
        spec = make_spec()
        run_shard(spec, 0, camp, cache_dir=cache)  # shard 1 never runs
        merged = merge_shards(spec, camp, cache_dir=cache)
        assert not merged.complete
        owed = sorted(seq for seq, _ in spec.shards()[1])
        assert sorted(merged.gaps) == owed

    def test_shredded_log_recovers_from_cache(self, tmp_path):
        """Log damage must not lose cells whose cache entry survived."""
        camp, cache = paths(tmp_path)
        spec = make_spec()
        run_all_shards(spec, camp, cache)
        victim = sorted(camp.glob("shard-*.jsonl"))[0]
        lines = victim.read_text().splitlines()
        victim.write_text("\n".join("GARBAGE" for _ in lines) + "\n")
        merged = merge_shards(spec, camp, cache_dir=cache)
        assert merged.complete
        assert merged.skipped_lines == len(lines)
        assert merged.unlogged  # recovered via direct cache probe

    def test_stale_quarantine_record_under_healthy_entry_merges_ok(
            self, tmp_path):
        """A healthy entry outranks a leftover quarantine record, in the
        merge as in the detector: here a shard quarantined the cell, and
        a run that logs elsewhere (a served repair, another campaign on
        the same cache) later cached every cell."""
        camp, cache = paths(tmp_path)
        spec = make_spec()
        spec.save(camp)
        detector = Detector(spec, cache_dir=cache)
        seq, _, key = detector.expected()[1]
        with RunLog(str(camp / "shard-0-of-2.jsonl")) as log:
            log.log("quarantine", key=key, kind="poison",
                    error="stale record from an earlier life", attempts=3)
        ExperimentRunner(target_ops=spec.ops, seed=spec.seed,
                         cache_dir=cache).run_many(
            [cell.task(spec.seed) for cell in spec.cells()])
        assert detector.diff(camp).converged
        merged = merge_shards(spec, camp, cache_dir=cache)
        assert merged.complete
        assert all(envelope["ok"] for envelope in merged.envelopes)
        assert seq not in merged.unlogged  # its quarantine record logs it

    def test_corrupt_entry_survives_the_merge_as_a_gap(self, tmp_path):
        """The merge only reads: a corrupt entry is a gap it leaves in
        place, for the detector to report and reconcile to repair."""
        camp, cache = paths(tmp_path)
        spec = make_spec()
        run_all_shards(spec, camp, cache)
        detector = Detector(spec, cache_dir=cache)
        seq, _, key = detector.expected()[1]
        path = detector._runner.cache_path(key)
        path.write_text("{broken")
        merged = merge_shards(spec, camp, cache_dir=cache)
        assert not merged.complete
        assert merged.gaps == [seq]
        assert len(merged.envelopes) == seq  # the prefix before the gap
        assert path.read_text() == "{broken"
        (status,) = detector.diff(camp).damaged
        assert (status.seq, status.state) == (seq, "corrupt")

    def test_invalid_shard_index_rejected(self, tmp_path):
        camp, cache = paths(tmp_path)
        spec = make_spec()
        with pytest.raises(ValueError):
            run_shard(spec, 9, camp, cache_dir=cache)


# ---------------------------------------------------------------------------
# detector


class TestDetector:
    def _setup(self, tmp_path):
        camp, cache = paths(tmp_path)
        spec = make_spec()
        run_all_shards(spec, camp, cache)
        return spec, camp, cache, Detector(spec, cache_dir=cache)

    def test_healthy_campaign_converges(self, tmp_path):
        _, camp, _, detector = self._setup(tmp_path)
        diff = detector.diff(camp)
        assert diff.converged
        assert diff.by_state()["ok"] == len(diff.statuses)

    def test_deleted_entry_with_finish_record_is_orphaned(self, tmp_path):
        _, camp, _, detector = self._setup(tmp_path)
        seq, cell, key = detector.expected()[0]
        detector._runner.cache_path(key).unlink()
        (status,) = detector.diff(camp).damaged
        assert status.state == "orphaned"
        assert status.key == key

    def test_garbage_entry_is_corrupt(self, tmp_path):
        _, camp, _, detector = self._setup(tmp_path)
        _, _, key = detector.expected()[0]
        detector._runner.cache_path(key).write_bytes(b"\x00\xff{nope")
        (status,) = detector.diff(camp).damaged
        assert status.state == "corrupt"

    def test_zero_byte_entry_is_corrupt(self, tmp_path):
        _, camp, _, detector = self._setup(tmp_path)
        _, _, key = detector.expected()[0]
        detector._runner.cache_path(key).write_text("")
        (status,) = detector.diff(camp).damaged
        assert status.state == "corrupt"
        assert "zero-byte" in status.detail

    def test_field_stripped_entry_is_stale_schema(self, tmp_path):
        _, camp, _, detector = self._setup(tmp_path)
        _, _, key = detector.expected()[0]
        path = detector._runner.cache_path(key)
        payload = json.loads(path.read_text())
        del payload["sampling"], payload["memory_stats"]
        path.write_text(json.dumps(payload))
        (status,) = detector.diff(camp).damaged
        assert status.state == "stale-schema"
        assert "sampling" in status.detail

    def test_misfiled_entry_is_corrupt(self, tmp_path):
        """An entry whose payload claims a different workload."""
        _, camp, _, detector = self._setup(tmp_path)
        expected = detector.expected()
        (_, cell_a, key_a), (_, cell_b, key_b) = expected[0], expected[-1]
        assert cell_a.workload != cell_b.workload
        path_a = detector._runner.cache_path(key_a)
        path_b = detector._runner.cache_path(key_b)
        path_a.write_text(path_b.read_text())
        damaged = {s.key: s for s in detector.diff(camp).damaged}
        assert damaged[key_a].state == "corrupt"
        assert "misfiled" in damaged[key_a].detail

    def test_unran_cell_with_no_account_is_missing(self, tmp_path):
        camp, cache = paths(tmp_path)
        spec = make_spec()
        run_shard(spec, 0, camp, cache_dir=cache)  # shard 1 dead
        detector = Detector(spec, cache_dir=cache)
        diff = detector.diff(camp)
        states = {status.state for status in diff.damaged}
        assert states == {"missing"}
        assert len(diff.damaged) == len(spec.shards()[1])

    def test_quarantine_record_classifies_quarantined(self, tmp_path):
        """A cell that only ever quarantined (no finish anywhere)."""
        camp, cache = paths(tmp_path)
        spec = make_spec()
        spec.save(camp)
        detector = Detector(spec, cache_dir=cache)
        _, _, key = detector.expected()[0]
        with RunLog(str(camp / "shard-0-of-2.jsonl")) as log:
            log.log("quarantine", key=key, kind="poison",
                    error="injected", attempts=3)
        damaged = {s.key: s for s in detector.diff(camp).damaged}
        assert damaged[key].state == "quarantined"
        assert "poison" in damaged[key].detail

    def test_later_finish_supersedes_quarantine(self, tmp_path):
        """A repaired cell's finish record clears its old quarantine."""
        _, camp, _, detector = self._setup(tmp_path)
        _, _, key = detector.expected()[0]
        with RunLog(str(camp / "shard-0-of-2.jsonl")) as log:
            log.log("quarantine", key=key, kind="poison",
                    error="stale record from an earlier life", attempts=3)
        diff = detector.diff(camp)
        assert diff.converged  # healthy cache entry is the arbiter

    def test_probe_opens_no_span_file(self, tmp_path, monkeypatch):
        """The detector (and the merge through it) never runs a cell, so
        it records no spans even when $REPRO_SPANS names a file."""
        spans = tmp_path / "spans.jsonl"
        monkeypatch.setenv("REPRO_SPANS", str(spans))
        camp, cache = paths(tmp_path)
        spec = make_spec()
        spec.save(camp)
        assert Detector(spec, cache_dir=cache)._runner.spans is None
        merge_shards(spec, camp, cache_dir=cache)
        assert not spans.exists()

    def test_probe_is_read_only(self, tmp_path):
        """Unlike the runner, the detector must not delete bad entries."""
        _, camp, _, detector = self._setup(tmp_path)
        _, _, key = detector.expected()[0]
        path = detector._runner.cache_path(key)
        path.write_text("{broken")
        detector.diff(camp)
        assert path.exists()
        assert path.read_text() == "{broken"

    def test_probe_of_a_missing_cache_creates_nothing(self, tmp_path):
        """The merge and the detector only read: pointed at a mistyped
        cache directory, they leave no directory behind."""
        camp, _ = paths(tmp_path)
        spec = make_spec()
        spec.save(camp)
        typo = tmp_path / "cahce"
        merge_shards(spec, camp, cache_dir=str(typo))
        Detector(spec, cache_dir=str(typo)).diff(camp)
        assert not typo.exists()


# ---------------------------------------------------------------------------
# repair engine


def _status(state, key="k", seq=0):
    cell = make_spec().cells()[seq]
    return CellStatus(seq=seq, cell=cell, key=key, state=state)


class TestRepairEngine:
    def test_corrupt_and_stale_get_purge_rerun(self):
        diff = CampaignDiff(statuses=[
            _status("corrupt", "a"), _status("stale-schema", "b"),
            _status("missing", "c"), _status("orphaned", "d"),
        ])
        plan = RepairEngine().plan(diff)
        actions = {r.status.key: r.action for r in plan.repairs}
        assert actions == {"a": "purge-rerun", "b": "purge-rerun",
                           "c": "rerun", "d": "rerun"}

    def test_ok_cells_never_planned(self):
        plan = RepairEngine().plan(CampaignDiff(statuses=[_status("ok")]))
        assert plan.empty and not plan.exhausted

    def test_budget_exhaustion_reported_not_retried(self):
        diff = CampaignDiff(statuses=[_status("missing", "x")])
        engine = RepairEngine(cell_budget=2)
        plan = engine.plan(diff, attempts={"x": 2})
        assert plan.empty
        assert [s.key for s in plan.exhausted] == ["x"]

    def test_attempts_below_budget_still_planned(self):
        diff = CampaignDiff(statuses=[_status("missing", "x")])
        plan = RepairEngine(cell_budget=2).plan(diff, attempts={"x": 1})
        assert [r.attempt for r in plan.repairs] == [1]


# ---------------------------------------------------------------------------
# scheduler / end-to-end reconciliation


class TestReconcile:
    def test_dead_shard_repaired_to_convergence(self, tmp_path):
        camp, cache = paths(tmp_path)
        spec = make_spec()
        spec.save(camp)
        run_shard(spec, 0, camp, cache_dir=cache)
        report = reconcile_campaign(camp, cache_dir=cache)
        assert report.converged
        assert report.repaired == len(spec.shards()[1])
        assert merge_shards(spec, camp, cache_dir=cache).complete

    def test_repaired_results_are_byte_identical(self, tmp_path):
        camp, cache = paths(tmp_path)
        spec = make_spec()
        spec.save(camp)
        run_shard(spec, 0, camp, cache_dir=cache)
        detector = Detector(spec, cache_dir=cache)
        _, _, key = detector.expected()[0]
        corrupt_path = detector._runner.cache_path(key)
        if corrupt_path.exists():
            corrupt_path.write_text("{broken")
        reconcile_campaign(camp, cache_dir=cache)
        merged = merge_shards(spec, camp, cache_dir=cache)
        serial = ExperimentRunner(target_ops=spec.ops, seed=spec.seed,
                                  cache_dir=str(tmp_path / "serial"))
        results = serial.run_many([cell.task(spec.seed)
                                   for cell in spec.cells()])
        for envelope, result in zip(merged.envelopes, results):
            assert json.dumps(envelope["result"], sort_keys=True) == \
                json.dumps(result.to_dict(), sort_keys=True)

    def test_converged_campaign_runs_zero_rounds(self, tmp_path):
        camp, cache = paths(tmp_path)
        spec = make_spec()
        spec.save(camp)
        run_all_shards(spec, camp, cache)
        report = reconcile_campaign(camp, cache_dir=cache)
        assert report.converged and not report.rounds
        assert report.repaired == 0

    def test_unrepairable_cell_exhausts_budget(self, tmp_path):
        """A repair that never lands must stop at the budget, not spin."""
        camp, cache = paths(tmp_path)
        spec = make_spec()
        spec.save(camp)
        run_shard(spec, 0, camp, cache_dir=cache)

        class NoOpRunner:
            run_log = None

            def run_many(self, tasks):
                return []

        scheduler = RepairScheduler(
            spec, cache_dir=cache, engine=RepairEngine(cell_budget=2),
            runner_factory=NoOpRunner, max_rounds=5)
        report = scheduler.reconcile(camp)
        assert not report.converged
        assert len(report.rounds) == 2  # budget, not max_rounds, stopped it
        assert report.unrepaired

    def test_report_is_machine_readable(self, tmp_path):
        camp, cache = paths(tmp_path)
        spec = make_spec()
        spec.save(camp)
        run_shard(spec, 0, camp, cache_dir=cache)
        report = reconcile_campaign(camp, cache_dir=cache)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["converged"] is True
        assert set(payload["initial"]) == set(payload["final"])
        assert payload["rounds"][0]["repairs"] > 0

    def test_reconcile_log_records_lifecycle(self, tmp_path):
        from repro.telemetry.runlog import read_run_log_tolerant

        camp, cache = paths(tmp_path)
        spec = make_spec()
        spec.save(camp)
        run_shard(spec, 0, camp, cache_dir=cache)
        reconcile_campaign(camp, cache_dir=cache)
        records, skipped = read_run_log_tolerant(
            str(camp / "reconcile.jsonl"))
        events = [record["event"] for record in records]
        assert skipped == 0
        assert "reconcile_start" in events
        assert "reconcile_round" in events
        assert "reconcile_end" in events
        assert "finish" in events  # repairs leave lifecycle records
