"""Chaos for the serving tier: dead leaders, broken stores.

Two promises under fault injection:

* **Waiters never hang.**  When the singleflight leader's computation
  dies (``serve.compute`` raise), every coalesced waiter receives the
  error promptly instead of blocking forever.
* **A broken disk cache costs time, not correctness.**  With the store
  unreadable/unwritable (or its rows corrupted) and
  the in-memory tiers disabled, the server degrades to recomputing
  every request — and still answers bit-identically.
"""

import json
import threading
import time

import pytest

from repro import faults, obs
from repro.faults import FaultPlan
from repro.obs.telemetry import Telemetry
from repro.serve import ComputeFailed, ServeConfig, VerdictService
from repro.serve.client import build_query_body

from ..engine.verdict_rows import rows, store_payload


@pytest.fixture(autouse=True)
def _restore_telemetry():
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


class TestLeaderDies:
    def test_singleflight_waiters_get_the_error_not_a_hang(
        self, tmp_path, disagree
    ):
        armed = faults.arm(
            FaultPlan(
                name="dead-leader",
                rules=({"site": "serve.compute", "kind": "raise", "times": 1},),
            )
        )
        service = make_service(tmp_path, start_workers=False)
        body = build_query_body(disagree, ["R1O"], queue_bound=2)
        outcomes = []

        def fire():
            try:
                outcomes.append(("ok", service.handle_query(body)))
            except ComputeFailed as exc:
                outcomes.append(("failed", exc))

        threads = [threading.Thread(target=fire) for _ in range(4)]
        for thread in threads:
            thread.start()
        # Every thread must be parked on the shared in-flight event
        # before the workers run, or a late joiner would start a fresh
        # batch after the fault rule is spent and succeed.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            with service._lock:
                entries = list(service._inflight.values())
            if entries and len(entries[0].event._cond._waiters) == 4:
                break
            time.sleep(0.01)
        service.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 4
        assert all(kind == "failed" for kind, _ in outcomes)
        assert ("serve.compute", "raise") in armed.log
        # The failure is not sticky: the rule fired once, so a retry
        # recomputes and succeeds.
        raw, _ = service.handle_query(body)
        assert "R1O" in json.loads(raw)["results"]
        service.close()

    def test_request_admission_fault_surfaces_cleanly(self, tmp_path, disagree):
        faults.arm(
            FaultPlan(
                name="sick-admission",
                rules=({"site": "serve.request", "kind": "raise", "times": 1},),
            )
        )
        service = make_service(tmp_path)
        body = build_query_body(disagree, ["R1O"], queue_bound=2)
        with pytest.raises(OSError):
            service.handle_query(body)
        # The next request sails through.
        raw, _ = service.handle_query(body)
        assert "R1O" in json.loads(raw)["results"]
        service.close()


class TestDegradedStore:
    def test_unusable_disk_cache_degrades_to_per_request_recompute(
        self, tmp_path, disagree, monkeypatch
    ):
        # Disable both in-memory tiers so every answer must come from
        # the disk store — which the plan then breaks in both
        # directions.  Correctness must survive; only caching dies.
        monkeypatch.setenv("REPRO_CACHE_MEMO", "0")
        tel = Telemetry(None)
        obs.install(tel)
        faults.arm(
            FaultPlan(
                name="dead-store",
                rules=(
                    {"site": "cache.read", "kind": "raise"},
                    {"site": "cache.write", "kind": "raise"},
                ),
            )
        )
        service = make_service(tmp_path, response_cache_entries=0)
        body = build_query_body(disagree, ["R1O"], queue_bound=2)
        first, _ = service.handle_query(body)
        second, _ = service.handle_query(body)
        service.close()
        assert json.loads(first)["results"] == json.loads(second)["results"]
        # No tier could have answered: both requests recomputed.
        assert tel.counters.get("explore.runs") == 2
        assert service.cache.io_errors >= 2
        assert service.statz()["serve"]["computed"] == 2

    def test_rotted_rows_recompute_with_identical_answers(
        self, tmp_path, disagree, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_MEMO", "0")
        service = make_service(tmp_path, response_cache_entries=0)
        body = build_query_body(disagree, ["R1O"], queue_bound=2)
        first, _ = service.handle_query(body)
        # Rot every stored verdict: the next read must discard and
        # recompute, not trust the corrupt bytes.
        cache_root = tmp_path / "cache"
        stored = rows(cache_root)
        assert len(stored) >= 1
        for key in stored:
            store_payload(cache_root, key, "{corrupt")
        second, _ = service.handle_query(body)
        assert json.loads(first)["results"] == json.loads(second)["results"]
        assert service.cache.quarantined == len(stored)
        # The recompute re-fills the write-once store with good rows.
        assert rows(cache_root) == stored
        third, _ = service.handle_query(body)
        service.close()
        assert json.loads(third)["results"] == json.loads(first)["results"]


class TestServeFaultSites:
    def test_shed_site_fires_on_queue_overflow(self, tmp_path, disagree, fig6):
        from repro.serve import Shed

        armed = faults.arm(
            FaultPlan(
                name="observe-shed",
                rules=({"site": "serve.shed", "kind": "latency", "latency_s": 0.0},),
            )
        )
        service = make_service(tmp_path, start_workers=False, queue_cap=1)
        holder = threading.Thread(
            target=lambda: service.handle_query(
                build_query_body(disagree, ["R1O"], queue_bound=2)
            )
        )
        holder.start()
        deadline = time.monotonic() + 5
        while not service.statz()["queue_depth"] and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(Shed):
            service.handle_query(build_query_body(fig6, ["R1O"], queue_bound=2))
        assert ("serve.shed", "latency") in armed.log
        service.start()
        holder.join(timeout=10)
        service.close()
