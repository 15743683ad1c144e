"""Campaign execution: stored results, resume, idempotence, bit-identical reports."""

import json

import pytest

from repro.campaign import Campaign, CampaignError, CampaignSpec

from .rows import store_result

SPEC = CampaignSpec(
    name="unit",
    count=4,
    models=("R1O", "RMS"),
    shard_size=2,
    n_nodes=4,
    queue_bound=2,
    step_bound=20_000,
)


class TestLifecycle:
    def test_create_writes_spec_and_manifest(self, tmp_path):
        campaign = Campaign.create(tmp_path / "c", SPEC)
        assert campaign.paths.spec_path.is_file()
        manifest = json.loads(campaign.paths.manifest_path.read_text())
        assert manifest["digest"] == campaign.digest
        assert len(manifest["shards"]) == SPEC.n_shards

    def test_create_is_idempotent_for_same_spec(self, tmp_path):
        Campaign.create(tmp_path / "c", SPEC)
        again = Campaign.create(tmp_path / "c", SPEC)
        assert again.digest == Campaign.open(tmp_path / "c").digest

    def test_create_refuses_foreign_directory(self, tmp_path):
        Campaign.create(tmp_path / "c", SPEC)
        other = CampaignSpec(
            name="unit", count=6, models=("R1O", "RMS"), shard_size=2
        )
        with pytest.raises(CampaignError, match="refusing"):
            Campaign.create(tmp_path / "c", other)

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign"):
            Campaign.open(tmp_path / "nowhere")

    def test_schema_1_directory_is_refused_by_name(self, tmp_path):
        campaign = Campaign.create(tmp_path / "c", SPEC)
        manifest = json.loads(campaign.paths.manifest_path.read_text())
        campaign.paths.manifest_path.write_text(json.dumps({**manifest, "schema": 1}))
        for reopen in (lambda: Campaign.open(tmp_path / "c"),
                       lambda: Campaign.create(tmp_path / "c", SPEC)):
            with pytest.raises(CampaignError, match="schema-1 campaign"):
                reopen()
        assert not campaign.paths.queue_db_path.exists()


class TestExecution:
    def test_full_run_and_report(self, tmp_path):
        campaign = Campaign.create(tmp_path / "c", SPEC)
        executed = campaign.run(workers=1)
        assert executed == [0, 1]
        assert campaign.pending_shards() == []
        assert campaign.paths.report_path.is_file()
        report = campaign.report()
        assert report["tasks"] == 4 * 2
        assert set(report["per_model"]) == {"R1O", "RMS"}
        status = campaign.status()
        assert status["shards_completed"] == 2
        assert status["tasks_completed"] == 8
        assert status["report_written"] is True

    def test_completed_run_is_a_no_op(self, tmp_path):
        campaign = Campaign.create(tmp_path / "c", SPEC)
        campaign.run(workers=1)
        first = campaign.paths.report_path.read_bytes()
        assert campaign.run(workers=1) == []
        assert campaign.paths.report_path.read_bytes() == first

    def test_records_refused_while_incomplete(self, tmp_path):
        campaign = Campaign.create(tmp_path / "c", SPEC)
        campaign.run(workers=1, max_shards=1)
        with pytest.raises(CampaignError, match="incomplete"):
            campaign.records()

    def test_interrupted_resume_is_bit_identical(self, tmp_path):
        straight = Campaign.create(tmp_path / "straight", SPEC)
        straight.run(workers=1)

        interrupted = Campaign.create(tmp_path / "resumed", SPEC)
        assert interrupted.run(workers=1, max_shards=1) == [0]
        assert interrupted.pending_shards() == [1]
        # A fresh process resumes from the directory alone.
        resumed = Campaign.open(tmp_path / "resumed")
        assert resumed.run(workers=1) == [1]
        assert (
            resumed.paths.report_path.read_bytes()
            == straight.paths.report_path.read_bytes()
        )

    def test_corrupt_checkpoint_is_re_executed(self, tmp_path):
        campaign = Campaign.create(tmp_path / "c", SPEC)
        campaign.run(workers=1)
        reference = campaign.paths.report_path.read_bytes()
        store_result(campaign.paths.directory, 1, "{ not json")
        assert campaign.pending_shards() == [1]
        assert campaign.run(workers=1) == [1]
        assert campaign.paths.report_path.read_bytes() == reference

    def test_workers_do_not_change_the_report(self, tmp_path):
        serial = Campaign.create(tmp_path / "serial", SPEC)
        serial.run(workers=1)
        fanned = Campaign.create(tmp_path / "fanned", SPEC)
        fanned.run(workers=2)
        assert (
            serial.paths.report_path.read_bytes()
            == fanned.paths.report_path.read_bytes()
        )

    def test_checkpoints_hold_no_cache_metadata(self, tmp_path):
        campaign = Campaign.create(tmp_path / "c", SPEC)
        campaign.run(workers=1)
        for record in campaign.records():
            assert "cache" not in record["result"]

    def test_simulate_mode_end_to_end(self, tmp_path):
        spec = CampaignSpec(
            name="sim",
            count=3,
            models=("R1O",),
            mode="simulate",
            shard_size=2,
            seeds_per_instance=2,
            step_bound=200,
        )
        campaign = Campaign.create(tmp_path / "c", spec)
        campaign.run(workers=1)
        report = campaign.report()
        row = report["per_model"]["R1O"]
        assert row["runs"] == 3 * 2
        assert 0.0 <= row["convergence_rate"] <= 1.0


class TestTelemetryVisibility:
    def test_resume_shows_cache_hits_not_report_changes(self, tmp_path):
        from repro import obs

        campaign = Campaign.create(tmp_path / "c", SPEC)
        campaign.run(workers=1, max_shards=1)
        # Reset shard 0's row but keep the verdict cache: the re-run
        # must answer from cache and still write identical bytes.
        reference = Campaign.create(tmp_path / "ref", SPEC)
        reference.run(workers=1)
        assert campaign.queue().reset([0]) == [0]
        previous = obs.active()
        telemetry = obs.configure(tmp_path / "t.jsonl")
        try:
            campaign.run(workers=1)
        finally:
            obs.install(previous)
            telemetry.close()
        assert telemetry.counters.get("cache.hit", 0) > 0
        assert telemetry.counters["campaign.shard.completed"] == 2
        assert (
            campaign.paths.report_path.read_bytes()
            == reference.paths.report_path.read_bytes()
        )

    def test_pooled_shard_reports_like_a_serial_one(self, tmp_path):
        """A pooled shard merges its workers' totals into the parent's
        telemetry: the search counters and ``explore.search`` calls
        match the serial run, and the fan-out counters appear."""
        from repro import obs
        from repro.campaign.runner import compute_shard_records

        def observe(workers):
            telemetry = obs.Telemetry()
            previous = obs.install(telemetry)
            try:
                compute_shard_records(
                    SPEC, 0, workers=workers,
                    cache_dir=str(tmp_path / f"cache-{workers}"),
                )
            finally:
                obs.install(previous)
            return telemetry

        serial, pooled = observe(1), observe(2)
        for name in ("explore.runs", "explore.states", "explore.states_pruned"):
            assert pooled.counters[name] == serial.counters[name] > 0, name
        assert (
            pooled.summary()["spans"]["explore.search"]["calls"]
            == serial.summary()["spans"]["explore.search"]["calls"]
        )
        assert any(
            name.startswith("worker.w") and name.endswith(".tasks")
            for name in pooled.counters
        )


class TestReportReads:
    def test_write_report_reads_each_result_once(self, tmp_path, monkeypatch):
        """One query fetches every row, and each result is parsed once."""
        from repro.campaign import runner

        campaign = Campaign.create(tmp_path / "c", SPEC)
        campaign.run(workers=1)
        queries, reads = [], []
        fetch = runner.WorkQueue.results
        parse = runner.checkpoint_records

        def counting_fetch(queue):
            queries.append(1)
            return fetch(queue)

        def counting_parse(text, digest, shard, expected):
            reads.append(shard)
            return parse(text, digest, shard, expected)

        monkeypatch.setattr(runner.WorkQueue, "results", counting_fetch)
        monkeypatch.setattr(runner, "checkpoint_records", counting_parse)
        campaign.write_report()
        assert (len(queries), reads) == (1, [0, 1])

    def test_pending_shards_still_refuse_the_report(self, tmp_path):
        campaign = Campaign.create(tmp_path / "c", SPEC)
        campaign.run(workers=1, max_shards=1)
        with pytest.raises(CampaignError, match=r"shard\(s\) \[1\] still pending"):
            campaign.write_report()
        assert campaign.records(ignore=[1]) == campaign._results()[0][0]
