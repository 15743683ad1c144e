"""Determinism of the process-parallel fan-out.

One CPU or many, ``workers=1`` or ``workers=4`` — every fan-out in
``repro.engine.parallel`` must return identical, identically-ordered
results, because each task is a pure function of its own payload
(explicit seeds, explicit bounds) and merging follows task order.
"""

from repro.analysis.experiments import (
    MATRIX_CERTIFIED_SAFE,
    experiment_disagree,
    experiment_figure3,
    experiment_figure4,
    matrix_certification,
)
from repro.analysis.stats import survey_convergence
from repro.config import RunConfig
from repro.core import instances as canonical
from repro.core.generators import instance_family
from repro.engine.parallel import (
    ExplorationTask,
    SimulationTask,
    default_workers,
    parallel_map,
    run_explorations,
    run_simulations,
)
from repro.models.taxonomy import model


def result_tuple(result):
    return (
        result.model_name,
        result.oscillates,
        result.complete,
        result.states_explored,
        result.truncated_states,
    )


class TestParallelMap:
    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_serial_and_parallel_agree(self):
        tasks = list(range(7))
        assert parallel_map(_square, tasks, workers=1) == [
            _square(t) for t in tasks
        ]
        assert parallel_map(_square, tasks, workers=3) == [
            _square(t) for t in tasks
        ]

    def test_single_task_stays_in_process(self):
        # A lambda is not picklable; a single task must not hit the pool.
        assert parallel_map(lambda x: x + 1, [41], workers=8) == [42]


def _square(x):
    return x * x


def _record_timing(x):
    """Record a span of ``x / 10`` seconds in the worker's telemetry."""
    from repro import obs

    obs.active().timing("test.task", x / 10)
    return x


class TestExplorationFanOut:
    def test_workers_do_not_change_verdicts(self):
        instance = canonical.disagree()
        tasks = [
            ExplorationTask(instance=instance, model_name=name, queue_bound=3)
            for name in ("R1O", "REO", "RMS", "REA", "UMS", "UEA")
        ]
        serial = run_explorations(tasks, config=RunConfig(workers=1))
        parallel = run_explorations(tasks, config=RunConfig(workers=2))
        assert [key for key, _ in serial] == [key for key, _ in parallel]
        for (_, a), (_, b) in zip(serial, parallel):
            assert result_tuple(a) == result_tuple(b)
            assert (a.witness is None) == (b.witness is None)
            if a.witness is not None:
                assert a.witness.prefix == b.witness.prefix
                assert a.witness.cycle == b.witness.cycle
                assert a.witness.assignments == b.witness.assignments

    def test_pool_witnesses_round_trip_as_payloads(self):
        """A witness computed in a pool worker crosses a pickle, which
        makes its ``∞`` read counts new float objects; they must still
        encode as ``"inf"`` and decode to legal entries."""
        from repro import RunConfig
        from repro.engine.cache import result_from_payload, result_to_payload
        from repro.models.constraints import is_legal_entry

        instance = canonical.disagree()
        names = ("RMS", "R1O", "UMS")
        tasks = [
            ExplorationTask(instance=instance, model_name=name)
            for name in names
        ]
        results = run_explorations(tasks, config=RunConfig(workers=2))
        for (_, name), result in results:
            assert result.witness is not None, name
            decoded = result_from_payload(
                result_to_payload(result, instance), instance
            )
            assert decoded == result
            witness = decoded.witness
            for entry in witness.prefix + witness.cycle:
                assert is_legal_entry(model(name), instance, entry), name

    def test_keys_preserve_task_order(self):
        instance = canonical.disagree()
        names = ("UMS", "R1O", "REA")
        results = run_explorations(
            [
                ExplorationTask(instance=instance, model_name=name)
                for name in names
            ],
            config=RunConfig(workers=2),
        )
        assert [key for key, _ in results] == [
            (instance.name, name) for name in names
        ]


class TestFanOutTelemetry:
    def test_parallel_map_records_worker_registry(self, tmp_path):
        from repro import obs

        previous = obs.active()
        telemetry = obs.configure(tmp_path / "t.jsonl")
        try:
            results = parallel_map(_square, list(range(8)), workers=2)
        finally:
            obs.install(previous)
            telemetry.close()
        assert results == [x * x for x in range(8)]
        task_counts = {
            name: value
            for name, value in telemetry.counters.items()
            if name.endswith(".tasks")
        }
        assert sum(task_counts.values()) == 8
        assert telemetry.gauges["worker.count"] == len(task_counts) <= 2
        spans = telemetry.summary()["spans"]
        assert spans["worker.task"]["calls"] == 8
        assert spans["worker.queue_wait"]["calls"] == 8
        assert spans["worker.pool"]["calls"] == 1
        assert spans["worker.idle"]["calls"] == 1

    def test_pooled_spans_merge_the_worker_peak(self, tmp_path):
        from repro import obs

        previous = obs.active()
        telemetry = obs.configure(tmp_path / "t.jsonl")
        try:
            parallel_map(_record_timing, list(range(8)), workers=2)
        finally:
            obs.install(previous)
            telemetry.close()
        spans = telemetry.summary()["spans"]
        assert spans["test.task"]["calls"] == 8
        assert spans["test.task"]["max_s"] == 0.7
        for name, span in spans.items():
            _, count, total, peak = telemetry.metrics.histogram(name).cumulative()
            assert (span["calls"], span["total_s"], span["max_s"]) == (
                count,
                round(total, 6),
                round(peak, 6),
            ), name

    def test_worker_spans_cross_process_boundaries(self, tmp_path):
        """Fan-out workers emit ``worker.run`` spans parented on the
        task's traceparent — the cross-process half of a trace tree."""
        import json
        import os

        from repro import obs
        from repro.obs.tracing import TraceContext

        # Two instance objects, so the pool gets two items.
        instance, twin = canonical.disagree(), canonical.disagree()
        parent = TraceContext.root()
        tasks = [
            ExplorationTask(
                instance=copy,
                model_name=name,
                queue_bound=2,
                traceparent=parent.to_traceparent(),
            )
            for copy in (instance, twin)
            for name in ("R1O", "UMS")
        ]
        path = tmp_path / "t.jsonl"
        previous = obs.active()
        telemetry = obs.configure(path, run={"command": "test"})
        try:
            run_explorations(tasks, config=RunConfig(workers=2))
        finally:
            obs.install(previous)
            telemetry.close()
        with open(path, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        spans = [
            r
            for r in records
            if r.get("type") == "span" and r.get("name") == "worker.run"
        ]
        assert len(spans) == 4
        for span in spans:
            assert span["trace"] == parent.trace_id
            assert span["parent"] == parent.span_id
            assert span["instance"] == instance.name
        # The spans really came from forked worker processes.
        pids = {span["pid"] for span in spans}
        assert os.getpid() not in pids

    def test_traceparent_does_not_perturb_identity_or_verdicts(
        self, tmp_path
    ):
        """Tracing is observational: the task key, cache key, and the
        verdicts are identical with and without a traceparent."""
        from repro.obs.tracing import TraceContext

        instance = canonical.disagree()

        def tasks(traceparent):
            return [
                ExplorationTask(
                    instance=instance,
                    model_name=name,
                    queue_bound=2,
                    traceparent=traceparent,
                )
                for name in ("R1O", "REA")
            ]

        header = TraceContext.root().to_traceparent()
        assert [t.resolved_key() for t in tasks(header)] == [
            t.resolved_key() for t in tasks(None)
        ]
        plain = run_explorations(tasks(None), config=RunConfig(workers=2))
        traced = run_explorations(tasks(header), config=RunConfig(workers=2))
        for (key_a, a), (key_b, b) in zip(plain, traced):
            assert key_a == key_b
            assert result_tuple(a) == result_tuple(b)

    def test_exploration_counters_survive_workers(self, tmp_path):
        """Worker-side counter deltas (cache hits, states) merge back
        into the parent registry, and verdicts are unchanged."""
        from repro import obs

        instance = canonical.disagree()
        tasks = [
            ExplorationTask(
                instance=instance,
                model_name=name,
                cache_dir=str(tmp_path / "cache"),
            )
            for name in ("R1O", "REA", "UMS", "RMS")
        ]
        plain = run_explorations(tasks, config=RunConfig(workers=2))
        previous = obs.active()
        telemetry = obs.configure(tmp_path / "t.jsonl")
        try:
            instrumented = run_explorations(tasks, config=RunConfig(workers=2))
        finally:
            obs.install(previous)
            telemetry.close()
        for (_, a), (_, b) in zip(plain, instrumented):
            assert result_tuple(a) == result_tuple(b)
        assert telemetry.counters["explore.runs"] == 4
        hits = telemetry.counters.get("cache.hit", 0)
        misses = telemetry.counters.get("cache.miss", 0)
        assert hits + misses == 4
        assert hits == 4  # the uninstrumented pass populated the cache


class TestSimulationFanOut:
    def test_workers_do_not_change_outcomes(self):
        instance = canonical.good_gadget()
        tasks = [
            SimulationTask(
                instance=instance,
                model_name=name,
                seeds=(0, 1, 2),
                max_steps=300,
            )
            for name in ("R1O", "REA", "UMS")
        ]
        serial = run_simulations(tasks, config=RunConfig(workers=1))
        fanned = run_simulations(tasks, config=RunConfig(workers=2))
        assert serial == fanned

    def test_survey_convergence_workers_identical(self):
        instances = list(instance_family(3, base_seed=7, n_nodes=4))
        models = [model(name) for name in ("R1O", "REA")]
        serial = survey_convergence(
            instances,
            models,
            seeds_per_instance=2,
            config=RunConfig(step_bound=200, workers=1),
        )
        fanned = survey_convergence(
            instances,
            models,
            seeds_per_instance=2,
            config=RunConfig(step_bound=200, workers=2),
        )
        assert serial.format_table() == fanned.format_table()
        for name in ("R1O", "REA"):
            assert (
                serial.per_model[name].steps_to_converge
                == fanned.per_model[name].steps_to_converge
            )


class TestMatrixCertification:
    def test_certification_matches_expected_split(self):
        cert = matrix_certification(config=RunConfig(workers=1))
        assert len(cert) == 24
        safe = frozenset(
            name
            for name, result in cert.items()
            if not result.oscillates and result.complete
        )
        assert safe == MATRIX_CERTIFIED_SAFE
        for name, result in cert.items():
            if name not in MATRIX_CERTIFIED_SAFE:
                assert result.oscillates, name

    def test_certification_workers_identical(self):
        serial = matrix_certification(config=RunConfig(workers=1))
        fanned = matrix_certification(config=RunConfig(workers=2))
        assert set(serial) == set(fanned)
        for name in serial:
            assert result_tuple(serial[name]) == result_tuple(fanned[name])

    def test_matrix_experiments_attach_certification(self):
        fig3 = experiment_figure3(config=RunConfig(workers=1))
        fig4 = experiment_figure4(config=RunConfig(workers=1))
        for result in (fig3, fig4):
            assert result.certification is not None
            assert "certified on DISAGREE" in result.summary
        assert experiment_figure3().certification is None

    def test_disagree_experiment_workers_identical(self):
        serial = experiment_disagree(config=RunConfig(workers=1))
        fanned = experiment_disagree(config=RunConfig(workers=2))
        assert serial.correct and fanned.correct
        assert set(serial.results) == set(fanned.results)
        for name in serial.results:
            assert result_tuple(serial.results[name]) == result_tuple(
                fanned.results[name]
            )


class TestDefaultWorkersEnv:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "-4")
        assert default_workers() == 1

    def test_env_empty_falls_back_to_cores(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert default_workers() >= 1

    def test_env_non_integer_rejected(self, monkeypatch):
        import pytest

        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()


class TestResolvedKeys:
    def test_exploration_default_key(self):
        instance = canonical.disagree()
        task = ExplorationTask(instance=instance, model_name="RMS")
        assert task.resolved_key() == (instance.name, "RMS")

    def test_exploration_explicit_key_wins(self):
        task = ExplorationTask(
            instance=canonical.disagree(), model_name="RMS", key=("cell", 3)
        )
        assert task.resolved_key() == ("cell", 3)

    def test_simulation_default_key(self):
        instance = canonical.good_gadget()
        task = SimulationTask(instance=instance, model_name="R1O")
        assert task.resolved_key() == (instance.name, "R1O")

    def test_simulation_explicit_key_wins(self):
        task = SimulationTask(
            instance=canonical.good_gadget(),
            model_name="R1O",
            key=("sweep", 0, "R1O"),
        )
        assert task.resolved_key() == ("sweep", 0, "R1O")


def _succeed_after_flag(payload):
    """Fails (in-process) until its flag file exists, then succeeds."""
    import pathlib

    flag, value = payload
    marker = pathlib.Path(flag)
    if not marker.exists():
        marker.write_text("attempted")
        raise RuntimeError("transient failure")
    return value * 10


def _crash_until_flag(payload):
    """Kills its worker process until its flag file exists."""
    import os as _os
    import pathlib

    flag, value = payload
    marker = pathlib.Path(flag)
    if not marker.exists():
        marker.write_text("attempted")
        _os._exit(13)
    return value + 1


def _hang_until_flag(payload):
    """Hangs far beyond any timeout until its flag file exists."""
    import pathlib
    import time as _time

    flag, value = payload
    marker = pathlib.Path(flag)
    if not marker.exists():
        marker.write_text("attempted")
        _time.sleep(120)
    return value - 1


def _always_fails(payload):
    raise RuntimeError("permanent failure")


class TestRetryingMap:
    def test_matches_parallel_map_when_nothing_fails(self):
        from repro.engine.parallel import parallel_map_retrying

        tasks = list(range(6))
        assert parallel_map_retrying(_square, tasks, workers=2) == [
            _square(t) for t in tasks
        ]

    def test_serial_retry_recovers(self, tmp_path):
        from repro.engine.parallel import parallel_map_retrying

        tasks = [(str(tmp_path / f"flag-{i}"), i) for i in range(3)]
        results = parallel_map_retrying(
            _succeed_after_flag, tasks, workers=1, retries=1, backoff=0.01
        )
        assert results == [0, 10, 20]

    def test_retry_budget_exhaustion_raises(self, tmp_path):
        import pytest

        from repro.engine.parallel import TaskFailure, parallel_map_retrying

        with pytest.raises(TaskFailure, match="after 2 attempt"):
            parallel_map_retrying(
                _always_fails, [1, 2], workers=1, retries=1, backoff=0.01
            )

    def test_worker_crash_is_retried(self, tmp_path):
        """os._exit in a worker breaks the pool; the rebuilt pool succeeds."""
        from repro.engine.parallel import parallel_map_retrying

        tasks = [(str(tmp_path / f"flag-{i}"), i) for i in range(4)]
        # Only task 2 crashes its worker on first attempt.
        for i in (0, 1, 3):
            (tmp_path / f"flag-{i}").write_text("pre-seeded")
        results = parallel_map_retrying(
            _crash_until_flag, tasks, workers=2, retries=2, backoff=0.01
        )
        assert results == [1, 2, 3, 4]

    def test_hung_worker_is_terminated_and_retried(self, tmp_path):
        from repro.engine.parallel import parallel_map_retrying

        tasks = [(str(tmp_path / f"flag-{i}"), i) for i in range(2)]
        (tmp_path / "flag-1").write_text("pre-seeded")
        results = parallel_map_retrying(
            _hang_until_flag,
            tasks,
            workers=2,
            retries=1,
            backoff=0.01,
            task_timeout=2.0,
        )
        assert results == [-1, 0]

    def test_retries_are_counted_in_telemetry(self, tmp_path):
        from repro import obs
        from repro.engine.parallel import parallel_map_retrying

        tasks = [(str(tmp_path / f"flag-{i}"), i) for i in range(2)]
        previous = obs.active()
        telemetry = obs.configure(tmp_path / "t.jsonl")
        try:
            parallel_map_retrying(
                _succeed_after_flag, tasks, workers=1, retries=1, backoff=0.01
            )
        finally:
            obs.install(previous)
            telemetry.close()
        assert telemetry.counters["parallel.task.retry"] == 2
