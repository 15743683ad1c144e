"""VerdictService concurrency semantics: singleflight, micro-batching,
admission control, deadlines — all driven below the HTTP layer."""

import dataclasses
import json
import threading
import time

import pytest

from repro import obs
from repro.analysis.experiments import matrix_certification
from repro.config import RunConfig
from repro.obs.telemetry import Telemetry
from repro.serve import (
    DeadlineExceeded,
    Draining,
    ServeConfig,
    Shed,
    VerdictService,
)
from repro.serve.client import build_query_body


@pytest.fixture(autouse=True)
def _restore_active():
    previous = obs.active()
    yield
    obs.install(previous)


def make_service(tmp_path, **overrides):
    overrides.setdefault("queue_cap", 8)
    start = overrides.pop("start_workers", True)
    return VerdictService(
        ServeConfig(cache_dir=str(tmp_path / "cache"), **overrides),
        start_workers=start,
    )


class TestServeConfig:
    def test_zero_queue_cap_rejected(self, tmp_path):
        # queue.Queue(maxsize=0) means *unbounded* — admission control
        # must refuse the silent footgun.
        with pytest.raises(ValueError, match="queue_cap"):
            ServeConfig(cache_dir=str(tmp_path), queue_cap=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("workers", 0),
            ("compute_procs", 0),
            ("deadline_s", 0),
            ("retry_after_s", 0),
            ("response_cache_entries", -1),
            ("engine", "warp"),
        ],
    )
    def test_bad_knobs_rejected(self, tmp_path, field, value):
        with pytest.raises(ValueError):
            ServeConfig(cache_dir=str(tmp_path), **{field: value})


class TestSingleflight:
    def test_16_racing_identical_cold_queries_explore_once(
        self, tmp_path, disagree
    ):
        tel = Telemetry(None)
        obs.install(tel)
        service = make_service(tmp_path, response_cache_entries=0)
        body = build_query_body(disagree, ["R1O"], queue_bound=2)
        barrier = threading.Barrier(16)
        outcomes = []

        def fire():
            barrier.wait()
            outcomes.append(service.handle_query(body))

        threads = [threading.Thread(target=fire) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.close()
        assert len(outcomes) == 16
        import json

        answers = {
            json.dumps(json.loads(raw)["results"], sort_keys=True)
            for raw, _ in outcomes
        }
        assert len(answers) == 1  # every waiter saw the same verdicts
        # The whole point: 16 concurrent identical cold queries cost
        # exactly one exploration.
        assert tel.counters.get("explore.runs", 0) == 1
        stats = service.statz()["serve"]
        assert stats["computed"] == 1
        assert stats["computed"] + stats["joined"] + stats["mem_hits"] + stats[
            "disk_hits"
        ] == 16

    def test_registration_race_memo_answer_is_counted(
        self, tmp_path, disagree, monkeypatch
    ):
        # A key that misses the lookup probe but is found in the memo
        # when its computation would be registered (the computation
        # finished in between) is served from memory — and must be
        # counted in some tier like every other verdict served.
        service = make_service(tmp_path, response_cache_entries=0)
        body = build_query_body(disagree, ["R1O"], queue_bound=2)
        service.handle_query(body)  # computes R1O and warms the memo
        real_get_payload = service.cache.get_payload
        probes = []

        def miss_once(key):
            probes.append(key)
            if len(probes) == 1:
                return None, "miss"
            return real_get_payload(key)

        monkeypatch.setattr(service.cache, "get_payload", miss_once)
        import json

        raw, _ = service.handle_query(body)
        service.close()
        assert json.loads(raw)["served"] == {"R1O": "memory"}
        stats = service.statz()["serve"]
        assert stats["computed"] == 1
        assert stats["mem_hits"] == 1
        assert stats["mem_hits"] + stats["disk_hits"] + stats["computed"] + stats[
            "joined"
        ] == 2

    def test_joiners_share_the_leaders_error(self, tmp_path, disagree, monkeypatch):
        service = make_service(tmp_path, start_workers=False)
        body = build_query_body(disagree, ["R1O"], queue_bound=2)

        def boom(batch):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(service, "_compute", boom)
        errors = []

        def fire():
            try:
                service.handle_query(body)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=fire) for _ in range(3)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 5
        while service.statz()["inflight"] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        service.start()
        for thread in threads:
            thread.join(timeout=10)
        service.close()
        assert len(errors) == 3  # nobody hangs
        assert all("engine exploded" in str(e) for e in errors)


def merge_two_queries(service, disagree):
    """Hold the workers until a second query's misses join the first
    query's pending batch; return both request bodies."""
    bodies = [
        build_query_body(disagree, models, queue_bound=2)
        for models in (["R1O"], ["RMS", "REA"])
    ]
    results = {}

    def fire(index):
        results[index] = service.handle_query(bodies[index])

    first = threading.Thread(target=fire, args=(0,))
    first.start()
    deadline = time.monotonic() + 5
    while not service.statz()["pending_batches"] and time.monotonic() < deadline:
        time.sleep(0.01)
    second = threading.Thread(target=fire, args=(1,))
    second.start()
    while service.statz()["inflight"] < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    service.start()
    first.join(timeout=10)
    second.join(timeout=10)
    assert len(results) == 2
    return bodies


class TestMicroBatching:
    def test_mixed_model_misses_merge_into_one_batch(self, tmp_path, disagree):
        service = make_service(tmp_path, start_workers=False)
        merge_two_queries(service, disagree)
        service.close()
        stats = service.statz()["serve"]
        assert stats["batches"] == 1  # one queue slot, three verdicts
        assert stats["batch_joins"] == 2
        assert stats["computed"] == 3

    def test_telemetry_sees_every_service_counter(self, tmp_path, disagree):
        """The JSONL summary's ``serve.*`` counters equal ``/statz``:
        batch joins and response-tier hits included."""
        path = tmp_path / "t.jsonl"
        obs.configure(path, run={"command": "test"})
        try:
            service = make_service(tmp_path, start_workers=False)
            bodies = merge_two_queries(service, disagree)
            assert service.handle_query(bodies[0])[1]  # a hot replay
            service.close()
            stats = service.statz()["serve"]
        finally:
            obs.shutdown()
        summary = json.loads(path.read_text().splitlines()[-1])
        counted = {
            name[len("serve."):]: value
            for name, value in summary["counters"].items()
            if name.startswith("serve.")
        }
        assert stats["batch_joins"] == 2 and stats["hot_hits"] == 1
        assert counted == {name: value for name, value in stats.items() if value}

    def test_batched_certification_builds_tables_once(self, tmp_path, disagree):
        tel = Telemetry(None)
        obs.install(tel)
        service = make_service(tmp_path)
        body = build_query_body(disagree, queue_bound=2)  # all 24 models
        service.handle_query(body)
        service.close()
        assert tel.counters.get("explore.runs") == 24
        # The amortization claim: one reduction-table build serves the
        # whole 24-model batch.
        assert tel.counters.get("reduction.table_builds") == 1

    def test_batched_verdicts_bit_identical_to_matrix_certification(
        self, tmp_path, disagree
    ):
        service = make_service(tmp_path)
        raw, _ = service.handle_query(build_query_body(disagree, queue_bound=2))
        service.close()
        import json

        from repro.engine.cache import result_from_payload

        response = json.loads(raw)
        direct = matrix_certification(
            config=RunConfig(queue_bound=2, cache=False, workers=1)
        )
        assert set(response["results"]) == set(direct)
        for name, payload in response["results"].items():
            served = result_from_payload(payload, disagree)
            assert dataclasses.replace(
                served, cache_hit=False
            ) == dataclasses.replace(direct[name], cache_hit=False)


class TestAdmissionControl:
    def test_queue_overflow_sheds_with_retry_after(self, tmp_path, disagree, fig6):
        service = make_service(
            tmp_path, start_workers=False, queue_cap=1, retry_after_s=2.5
        )
        holder = threading.Thread(
            target=lambda: service.handle_query(
                build_query_body(disagree, ["R1O"], queue_bound=2)
            )
        )
        holder.start()
        deadline = time.monotonic() + 5
        while not service.statz()["queue_depth"] and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(Shed) as excinfo:
            service.handle_query(build_query_body(fig6, ["R1O"], queue_bound=2))
        assert excinfo.value.retry_after == 2.5
        assert service.statz()["serve"]["shed"] == 1
        service.start()
        holder.join(timeout=10)
        service.close()

    # The 504 names the budget actually enforced: the configured
    # deadline, or the client's tighter X-Repro-Deadline.
    @pytest.mark.parametrize(
        "config_s, client_s", [(0.05, None), (30.0, 0.05)]
    )
    def test_deadline_exceeded_when_no_worker_answers(
        self, tmp_path, disagree, config_s, client_s
    ):
        service = make_service(
            tmp_path, start_workers=False, deadline_s=config_s
        )
        with pytest.raises(DeadlineExceeded, match=r"deadline of 0\.05s exceeded"):
            service.handle_query(
                build_query_body(disagree, ["R1O"], queue_bound=2),
                deadline_s=client_s,
            )
        service.start()  # let the orphaned batch finish, then drain
        service.close()

    def test_draining_rejects_new_queries(self, tmp_path, disagree):
        service = make_service(tmp_path)
        service.drain()
        with pytest.raises(Draining):
            service.handle_query(build_query_body(disagree, ["R1O"]))
        service.close()


class TestResponseHotTier:
    def test_repeat_body_is_replayed_without_parsing(self, tmp_path, disagree):
        service = make_service(tmp_path)
        body = build_query_body(disagree, ["R1O"], queue_bound=2)
        cold, cold_hot = service.handle_query(body)
        warm, warm_hot = service.handle_query(body)
        service.close()
        assert (cold_hot, warm_hot) == (False, True)
        assert cold == warm  # byte-identical replay
        assert service.statz()["serve"]["hot_hits"] == 1

    def test_disabled_hot_tier_still_answers_from_verdict_memo(
        self, tmp_path, disagree
    ):
        service = make_service(tmp_path, response_cache_entries=0)
        body = build_query_body(disagree, ["R1O"], queue_bound=2)
        cold, _ = service.handle_query(body)
        warm, warm_hot = service.handle_query(body)
        service.close()
        assert warm_hot is False
        assert service.statz()["serve"]["mem_hits"] == 1
        import json

        assert json.loads(cold)["results"] == json.loads(warm)["results"]
