"""Lease-lifecycle properties of the campaign work queue.

The queue must uphold its contract: at most one unexpired lease per
shard (racing claimers never double-assign), heartbeat expiry
reclaims exactly the dead worker's shards, completion is terminal and
stores the shard's result write-once, and a queue directory refuses to
serve a foreign campaign digest.
"""

import sqlite3
import threading
import time

import pytest

from repro.campaign.manifest import CampaignPaths
from repro.campaign.queue import (
    DEFAULT_LEASE_TTL,
    DEFAULT_QUARANTINE_AFTER,
    Lease,
    QueueError,
    WorkQueue,
    audit,
)

DIGEST = "ab" * 32
OTHER_DIGEST = "cd" * 32


def read(shard, text):
    """The audit's result rule for these tests: ``"ok <shard>"``."""
    return (text, None) if text == f"ok {shard}" else (None, "not ok")


def make_queue(
    tmp_path,
    lease_ttl=DEFAULT_LEASE_TTL,
    digest=DIGEST,
    quarantine_after=DEFAULT_QUARANTINE_AFTER,
):
    return WorkQueue(
        CampaignPaths(tmp_path).queue_db_path,
        digest,
        lease_ttl=lease_ttl,
        quarantine_after=quarantine_after,
    )


class TestLifecycle:
    def test_claim_heartbeat_complete(self, tmp_path):
        q = make_queue(tmp_path)
        q.enroll(range(3))
        assert q.snapshot() == {
            **q.snapshot(),
            "open": 3,
            "leased": 0,
            "done": 0,
        }

        lease = q.claim("w1")
        assert lease is not None and lease.shard == 0 and lease.worker == "w1"
        assert q.snapshot()["leased"] == 1

        renewed = q.heartbeat(lease)
        assert renewed is not None and renewed.expires >= lease.expires
        assert q.complete(renewed) is True
        snap = q.snapshot()
        assert snap["done"] == 1 and snap["leased"] == 0

        # Claims proceed in shard order over what remains.
        assert q.claim("w1").shard == 1
        q.close()

    def test_enroll_is_idempotent_and_keeps_results(self, tmp_path):
        q = make_queue(tmp_path)
        q.enroll(range(4))
        for shard in (1, 3):
            q.store(shard, f"ok {shard}")
        q.enroll(range(4))
        snap = q.snapshot()
        assert snap["open"] == 2 and snap["done"] == 2
        assert [q.claim("w").shard for _ in range(2)] == [0, 2]
        assert q.claim("w") is None
        assert q.results() == {1: "ok 1", 3: "ok 3"}
        q.close()

    def test_complete_stores_the_result_in_the_done_row(self, tmp_path):
        q = make_queue(tmp_path)
        q.enroll(range(2))
        assert q.complete(q.claim("w"), "ok 0") is True
        assert q.results() == {0: "ok 0"}
        assert q.unresolved() == [1]
        q.close()

    def test_results_are_write_once(self, tmp_path):
        from repro.obs import Telemetry, install

        q = make_queue(tmp_path)
        q.enroll([0])
        q.store(0, "first")
        q.store(0, "second")
        telemetry = Telemetry()
        previous = install(telemetry)
        try:
            stale = q.complete(Lease(0, "late", "00" * 8, 0.0), "third")
        finally:
            install(previous)
        assert stale is False
        assert telemetry.counters["campaign.complete.duplicate"] == 1
        assert q.results() == {0: "first"}
        q.close()

    def test_release_reopens_the_shard(self, tmp_path):
        q = make_queue(tmp_path)
        q.enroll([7])
        lease = q.claim("w1")
        q.release(lease)
        assert q.snapshot()["open"] == 1
        again = q.claim("w2")
        assert again.shard == 7 and again.token != lease.token
        q.close()

    def test_expired_lease_is_reclaimed_by_next_claim(self, tmp_path):
        q = make_queue(tmp_path, lease_ttl=0.05)
        q.enroll([0])
        dead = q.claim("dead-worker")
        assert dead is not None
        assert q.claim("live-worker") is None  # still held
        time.sleep(0.1)
        stolen = q.claim("live-worker")
        assert stolen is not None and stolen.shard == 0
        # The dead worker's lease is gone: heartbeat and complete refuse.
        assert q.heartbeat(dead) is None
        assert q.complete(dead) is False
        # The thief's lease works normally.
        assert q.complete(stolen) is True
        q.close()

    def test_reclaim_touches_exactly_the_expired_leases(self, tmp_path):
        q = make_queue(tmp_path, lease_ttl=0.6)
        q.enroll(range(3))
        dead_a = q.claim("dead")
        dead_b = q.claim("dead")
        live = q.claim("live")
        time.sleep(0.4)
        kept = q.heartbeat(live)  # live renews; the dead worker does not
        assert kept is not None
        time.sleep(0.3)  # dead leases now past TTL, live's renewal is not
        reclaimed = q.reclaim()
        # Exactly the dead worker's shards are reclaimed; the live
        # worker's heartbeaten lease is untouched.
        assert set(reclaimed) == {dead_a.shard, dead_b.shard}
        assert q.heartbeat(kept) is not None
        assert q.snapshot()["open"] == 2
        q.close()

    def test_foreign_digest_is_refused(self, tmp_path):
        q = make_queue(tmp_path)
        q.enroll([0])
        q.close()
        with pytest.raises(QueueError, match="refusing"):
            make_queue(tmp_path, digest=OTHER_DIGEST)

    def test_complete_after_steal_reports_loss_but_keeps_done(
        self, tmp_path
    ):
        q = make_queue(tmp_path, lease_ttl=0.05)
        q.enroll([0])
        loser = q.claim("loser")
        time.sleep(0.1)
        winner = q.claim("winner")
        # The lost lease is told so, but its records still land: they
        # are a pure function of the shard, whoever computed them.
        assert q.complete(loser, "ok 0") is False
        assert q.results() == {0: "ok 0"}
        # The live lease's completion is then a duplicate (results are
        # write-once, so a duplicate completion is harmless by design).
        assert q.complete(winner, "ok 0 again") is False
        assert q.results() == {0: "ok 0"}
        assert q.snapshot()["done"] == 1
        q.close()


def test_racing_claims_never_double_assign(tmp_path):
    """N threads hammering claim() assign each shard exactly once."""
    n_shards, n_threads = 12, 6
    q = make_queue(tmp_path)
    q.enroll(range(n_shards))
    assignments = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_threads)

    def worker(name):
        barrier.wait()
        while True:
            lease = q.claim(name)
            if lease is None:
                return
            with lock:
                assignments.append((lease.shard, name, lease.token))
            q.complete(lease)

    threads = [
        threading.Thread(target=worker, args=(f"w{i}",))
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    shards = [shard for shard, _, _ in assignments]
    assert sorted(shards) == list(range(n_shards))  # each exactly once
    assert len({token for _, _, token in assignments}) == n_shards
    assert q.snapshot()["done"] == n_shards
    q.close()


class TestQuarantine:
    def _fail_once(self, q, worker):
        lease = q.claim(worker)
        assert lease is not None
        return q.fail(lease)

    def test_distinct_worker_failures_quarantine(self, tmp_path):
        q = make_queue(tmp_path, quarantine_after=3)
        q.enroll([0, 1])
        # Two distinct workers fail shard 0: it stays open (re-leasable).
        assert self._fail_once(q, "w1") == "open"
        assert self._fail_once(q, "w2") == "open"
        assert q.quarantined() == []
        # The third distinct worker's failure crosses the threshold.
        assert self._fail_once(q, "w3") == "quarantined"
        assert q.quarantined() == [0]
        snap = q.snapshot()
        assert snap["quarantined"] == 1
        assert snap["quarantined_shards"] == [0]
        # A quarantined shard is never leased again; shard 1 still is.
        lease = q.claim("w4")
        assert lease is not None and lease.shard == 1
        q.complete(lease)
        assert q.claim("w4") is None
        q.close()

    def test_single_worker_total_failures_cap(self, tmp_path):
        """One worker alone must not livelock on a poison shard: the
        3×threshold total-failure cap quarantines even without distinct
        witnesses."""
        q = make_queue(tmp_path, quarantine_after=2)
        q.enroll([0])
        outcomes = [self._fail_once(q, "only-worker") for _ in range(6)]
        assert outcomes[:-1] == ["open"] * 5
        assert outcomes[-1] == "quarantined"
        assert q.quarantined() == [0]
        q.close()

    def test_fail_with_stale_token_is_lost(self, tmp_path):
        q = make_queue(tmp_path, lease_ttl=0.05)
        q.enroll([0])
        stale = q.claim("loser")
        time.sleep(0.1)
        fresh = q.claim("winner")
        assert fresh is not None
        # The loser's fail must not strike the shard: its lease is gone.
        assert q.fail(stale) == "lost"
        assert q.quarantined() == []
        q.complete(fresh)
        q.close()

    def test_reset_reopens_done_and_quarantined(self, tmp_path):
        q = make_queue(tmp_path, quarantine_after=1)
        q.enroll([0, 1])
        assert self._fail_once(q, "w1") == "quarantined"  # shard 0
        done = q.claim("w1")
        q.complete(done, "ok 1")  # shard 1
        assert q.reset([0, 1]) == [0, 1]
        snap = q.snapshot()
        assert snap["open"] == 2 and snap["done"] == 0
        assert q.quarantined() == []
        # The result goes with the done state: an open row holds none.
        assert q.results() == {}
        # Failure history is cleared too: the next failure starts the
        # strike count over instead of instantly re-quarantining.
        q2 = make_queue(tmp_path, quarantine_after=2)
        assert self._fail_once(q2, "w1") == "open"
        q2.close()
        q.close()

    def test_a_quarantined_shard_takes_a_late_result(self, tmp_path):
        """A result that lands after the shard was quarantined (a slow
        worker whose lease was reclaimed) completes it."""
        q = make_queue(tmp_path, lease_ttl=0.05, quarantine_after=1)
        q.enroll([0])
        slow = q.claim("slow")
        time.sleep(0.1)
        assert self._fail_once(q, "w1") == "quarantined"
        assert q.complete(slow, "ok 0") is False
        assert q.quarantined() == [] and q.results() == {0: "ok 0"}
        q.close()


# ----------------------------------------------------------------------
# Reclaim edge cases (neither lose nor double-complete a shard).
# ----------------------------------------------------------------------

def test_reclaim_with_stale_done_marker(tmp_path):
    """A worker that completed but crashed before releasing its lease
    leaves done-state plus an expired lease.  Reclaim must not resurrect
    the shard: done is terminal."""
    q = make_queue(tmp_path, lease_ttl=0.05)
    q.enroll([0])
    lease = q.claim("crasher")
    q.complete(lease)
    time.sleep(0.1)  # the leftover lease expires
    assert q.reclaim() == []
    assert q.claim("other") is None  # done shards are never re-leased
    snap = q.snapshot()
    assert snap["done"] == 1
    assert snap["open"] == 0
    q.close()


def test_two_queue_instances_share_state(tmp_path):
    """Separate opens of the same directory see one queue (multi-process
    shape, exercised in-process)."""
    q1 = make_queue(tmp_path)
    q1.enroll(range(2))
    q2 = make_queue(tmp_path)
    q2.enroll(range(2))
    a = q1.claim("a")
    b = q2.claim("b")
    assert {a.shard, b.shard} == {0, 1}
    assert q1.claim("a") is None and q2.claim("b") is None
    q2.complete(b)
    assert q1.snapshot()["done"] == 1
    q1.close()
    q2.close()


def _execute(path, statement, *params):
    """Write to a queue database behind the queue's back."""
    conn = sqlite3.connect(path)
    try:
        with conn:
            conn.execute(statement, params)
    finally:
        conn.close()


def test_lease_without_expiry_is_reclaimed(tmp_path):
    """A leased row with no expiry (left by a writer that died between
    columns, or an older release) has no live owner: reclaim reopens
    it instead of leaving it leased forever."""
    q = make_queue(tmp_path)
    q.enroll([0, 1])
    held = q.claim("live")
    orphan = q.claim("ghost")
    _execute(q.path, "UPDATE shards SET expires=NULL WHERE shard=?", orphan.shard)
    assert q.reclaim() == [orphan.shard]
    assert q.heartbeat(held) is not None
    again = q.claim("other")
    assert again.shard == orphan.shard and again.token != orphan.token
    q.close()


def test_failed_transition_rolls_back(tmp_path):
    """A transition that raises part-way leaves no partial writes and
    no open transaction behind."""
    q = make_queue(tmp_path)
    q.enroll([0])
    with pytest.raises(OverflowError):
        q.enroll([1, 2, 2**70])
    snap = q.snapshot()
    assert (snap["open"], snap["done"]) == (1, 0)
    q.enroll([1])
    assert [q.claim("w").shard for _ in range(2)] == [0, 1]
    q.close()


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"lease_ttl": 0}, "lease_ttl must be positive"),
            ({"quarantine_after": 0}, "quarantine_after must be at least 1"),
        ],
        ids=["lease-ttl", "quarantine-after"],
    )
    def test_bad_parameters_are_refused(self, tmp_path, kwargs, message):
        with pytest.raises(QueueError, match=message):
            make_queue(tmp_path, **kwargs)
        assert not CampaignPaths(tmp_path).queue_db_path.exists()

    def test_creates_missing_parent_directories(self, tmp_path):
        directory = tmp_path / "not" / "yet"
        with make_queue(directory) as q:
            q.enroll([0])
        assert CampaignPaths(directory).queue_db_path.is_file()


class TestAudit:
    def test_healthy_queue_has_no_issues(self, tmp_path):
        with make_queue(tmp_path) as q:
            q.enroll(range(3))
            q.store(2, "ok 2")
            q.complete(q.claim("w"), "ok 0")
            q.claim("w")  # a live lease is healthy
        path = CampaignPaths(tmp_path).queue_db_path
        usable = {0: "ok 0", 2: "ok 2"}
        assert audit(path, DIGEST, 3, read) == ([], usable)
        assert audit(path, DIGEST, 3, read, repair=True) == ([], usable)

    def test_repair_fixes_every_issue_in_one_pass(self, tmp_path):
        with make_queue(tmp_path, lease_ttl=0.01, quarantine_after=1) as q:
            q.enroll([0, 1, 2, 9])
            q.store(1, "torn")
            assert q.fail(q.claim("poison")) == "quarantined"  # shard 0
            assert q.claim("ghost").shard == 2
        time.sleep(0.05)  # shard 2's lease expires
        path = CampaignPaths(tmp_path).queue_db_path
        expected = [
            (
                "error",
                "shard 1 has an unusable result: not ok — the shard will "
                "re-run on resume",
                "reset",
            ),
            (
                "warning",
                "expired lease on shard 2 (worker ghost) — orphaned by a "
                "crashed or partitioned worker",
                "reclaimed",
            ),
            (
                "error",
                "shard id 9 out of range (spec has 3 shards)",
                "removed",
            ),
            (
                "info",
                "shard(s) [0] quarantined as poison (reset with "
                "repro.campaign.WorkQueue(path, digest).reset([0]) to retry them)",
                None,
            ),
        ]
        unrepaired = [(severity, detail, None) for severity, detail, _ in expected]
        assert audit(path, DIGEST, 3, read) == (unrepaired, {})
        assert audit(path, DIGEST, 3, read, repair=True) == (expected, {})
        assert audit(path, DIGEST, 3, read) == (expected[-1:], {})
        with make_queue(tmp_path) as q:
            snap = q.snapshot()
            assert (snap["open"], snap["leased"], snap["done"]) == (2, 0, 0)
            assert snap["quarantined_shards"] == [0]
            assert [q.claim("w").shard for _ in range(2)] == [1, 2]
            assert q.claim("w") is None

    def test_missing_digest_is_foreign(self, tmp_path):
        make_queue(tmp_path).close()
        path = CampaignPaths(tmp_path).queue_db_path
        _execute(path, "DELETE FROM meta")
        with pytest.raises(QueueError, match="'missing' does not match"):
            audit(path, DIGEST, 1, read)

    def test_database_without_queue_tables_is_corrupt(self, tmp_path):
        path = CampaignPaths(tmp_path).queue_db_path
        _execute(path, "CREATE TABLE unrelated (x)")
        with pytest.raises(QueueError, match="corrupt queue database"):
            audit(path, DIGEST, 1, read)

    def test_missing_database_is_refused_and_not_created(self, tmp_path):
        path = CampaignPaths(tmp_path).queue_db_path
        with pytest.raises(QueueError, match="no queue database"):
            audit(path, DIGEST, 1, read, repair=True)
        assert not path.exists()
