"""Fault plans, rules, and the process-wide armed state.

**Sites.**  A fault point is a named call site::

    from ..faults import fault_point
    blob = fault_point("cache.write", blob)

Disarmed (the default) it returns its payload untouched after one
global ``None`` check.  Armed, every rule whose ``site`` pattern
matches fires its behaviour: raising, mutating the payload, sleeping,
or killing the process.  Sites threaded through the package:

========================  ====================================================
site                      where
========================  ====================================================
``cache.read``            before a batch of verdict-cache rows is read
``cache.write``           each row's payload text, before its insert
``checkpoint.write``      the serialized campaign artifact (spec, manifest,
                          report) before the atomic write, and a shard's
                          result text before it is stored in its row
``campaign.shard``        entry of :meth:`repro.campaign.Campaign.run_shard`
``worker.run``            entry of a fan-out worker task
``telemetry.emit``        a JSONL event line, before it is appended
``serve.request``         admission of one verdict-server query
``serve.compute``         entry of one cold-miss batch computation (a raise
                          here exercises the leader-dies singleflight path)
``serve.shed``            a query rejected by the bounded batch queue
``serve.client.send``     one :class:`~repro.serve.client.ServeClient` HTTP
                          attempt, before the request leaves the process
``campaign.claim``        one worker → coordinator claim attempt
``campaign.heartbeat``    one worker → coordinator lease renewal attempt
``campaign.complete``     one worker → coordinator shard-completion attempt
========================  ====================================================

**Determinism.**  Each rule owns a :class:`random.Random` seeded from
``sha256(plan.seed, rule.site, rule.kind, rule index)``, consulted only
when ``probability < 1``; hit/firing counters are per-rule.  A plan
armed over a serial run therefore fires at exactly the same sites in
every replay.  (Forked workers inherit the armed state at fork time;
each worker then replays its own deterministic per-rule stream.)

**Propagation.**  Worker entry points call
:func:`ensure_armed_from_env`, so exporting :data:`FAULT_PLAN_ENV_VAR`
(the path of a plan JSON) arms subprocesses that did not inherit the
armed state by fork — the CLI's ``--fault-plan`` flag does both.
"""

from __future__ import annotations

import dataclasses
import errno
import fnmatch
import hashlib
import json
import os
import random
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_ENV_VAR",
    "ArmedPlan",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "arm",
    "armed",
    "disarm",
    "ensure_armed_from_env",
    "fault_point",
]

#: Environment fallback: path of a plan JSON to arm on first use
#: (checked by the CLI and by fan-out worker entry points).
FAULT_PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

#: The failure behaviours a rule can inject.
FAULT_KINDS = (
    "raise",      # OSError(EIO) at the site
    "enospc",     # OSError(ENOSPC) at the site
    "truncate",   # cut the payload (str/bytes) in half: a torn write
    "bitflip",    # flip one bit of the payload: silent corruption
    "sigkill",    # SIGKILL the current process: a hard crash
    "latency",    # sleep latency_s: a slow disk / network stall
    "connreset",  # ConnectionResetError: the peer dropped the connection
)


class FaultInjected(OSError):
    """An :class:`OSError` raised by an armed fault point.

    A subclass so tests (and curious ``except`` clauses) can tell an
    injected failure from an organic one; production code must treat it
    exactly like the real thing.
    """


@dataclass(frozen=True)
class FaultRule:
    """One site-pattern → behaviour mapping of a plan."""

    #: Site name, or an ``fnmatch`` glob (``"cache.*"``).
    site: str
    kind: str
    #: Chance of firing per eligible hit; 1.0 fires deterministically.
    probability: float = 1.0
    #: Skip the first ``after`` matching hits (e.g. let one checkpoint
    #: land before crashing).
    after: int = 0
    #: Maximum firings (``None`` = unlimited) — transient faults.
    times: "int | None" = None
    #: Sleep for ``kind="latency"``, in seconds.
    latency_s: float = 0.01
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("rule site must be non-empty")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if self.after < 0:
            raise ValueError("after must be non-negative")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be at least 1 (or null for unlimited)")
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of fault rules (JSON-declarable)."""

    name: str = "chaos"
    seed: int = 0
    rules: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "rules",
            tuple(
                rule if isinstance(rule, FaultRule) else FaultRule(**rule)
                for rule in self.rules
            ),
        )

    # -- serialization --------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "rules": [dataclasses.asdict(rule) for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown fault plan key(s): {', '.join(unknown)}")
        rules = tuple(FaultRule(**rule) for rule in data.get("rules", ()))
        return cls(
            name=data.get("name", "chaos"),
            seed=data.get("seed", 0),
            rules=rules,
        )

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    def to_file(self, path) -> None:
        Path(path).write_text(self.to_json())


class _RuleState:
    """Mutable firing state of one armed rule."""

    __slots__ = ("rule", "rng", "hits", "fired")

    def __init__(self, rule: FaultRule, seed: int, index: int) -> None:
        self.rule = rule
        digest = hashlib.sha256(
            f"{seed}:{index}:{rule.site}:{rule.kind}".encode("utf-8")
        ).digest()
        self.rng = random.Random(int.from_bytes(digest[:8], "big"))
        self.hits = 0
        self.fired = 0


class ArmedPlan:
    """A plan plus its per-rule counters and RNG streams."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._states = [
            _RuleState(rule, plan.seed, index)
            for index, rule in enumerate(plan.rules)
        ]
        #: Every firing, as ``(site, kind)`` in order — the replayable
        #: trace a chaos test can assert against.
        self.log: list = []

    def fire(self, site: str, payload):
        for state in self._states:
            rule = state.rule
            if not fnmatch.fnmatchcase(site, rule.site):
                continue
            state.hits += 1
            if state.hits <= rule.after:
                continue
            if rule.times is not None and state.fired >= rule.times:
                continue
            if rule.probability < 1.0 and state.rng.random() >= rule.probability:
                continue
            state.fired += 1
            self.log.append((site, rule.kind))
            payload = self._apply(state, site, payload)
        return payload

    def _apply(self, state: _RuleState, site: str, payload):
        rule = state.rule
        if rule.kind == "raise":
            raise FaultInjected(errno.EIO, f"{rule.message} [{site}]")
        if rule.kind == "enospc":
            raise FaultInjected(errno.ENOSPC, f"{rule.message} [{site}]")
        if rule.kind == "truncate":
            if isinstance(payload, (str, bytes, bytearray)) and payload:
                return payload[: len(payload) // 2]
            return payload
        if rule.kind == "bitflip":
            return _bitflip(payload, state.rng)
        if rule.kind == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
            return payload  # pragma: no cover — the line above does not return
        if rule.kind == "latency":
            time.sleep(rule.latency_s)
            return payload
        if rule.kind == "connreset":
            raise ConnectionResetError(errno.ECONNRESET, f"{rule.message} [{site}]")
        raise AssertionError(f"unreachable kind {rule.kind!r}")


def _bitflip(payload, rng: random.Random):
    """Flip one deterministic bit of a str/bytes payload."""
    if isinstance(payload, (bytes, bytearray)) and payload:
        index = rng.randrange(len(payload))
        flipped = bytearray(payload)
        flipped[index] ^= 1 << rng.randrange(8)
        return bytes(flipped)
    if isinstance(payload, str) and payload:
        index = rng.randrange(len(payload))
        # XOR on the low bit always yields a *different* character and
        # stays within the Basic Multilingual Plane for ASCII payloads.
        return payload[:index] + chr(ord(payload[index]) ^ 1) + payload[index + 1 :]
    return payload


# ----------------------------------------------------------------------
# The process-wide armed state.
# ----------------------------------------------------------------------
_armed: "ArmedPlan | None" = None


def fault_point(site: str, payload=None):
    """Pass ``payload`` through the fault layer at ``site``.

    The no-op when nothing is armed; otherwise fires every matching
    rule of the armed plan (which may raise, mutate the returned
    payload, sleep, or kill the process).
    """
    current = _armed
    if current is None:
        return payload
    return current.fire(site, payload)


def arm(plan: FaultPlan) -> ArmedPlan:
    """Arm ``plan`` process-wide; returns the armed state (counters/log)."""
    global _armed
    _armed = ArmedPlan(plan)
    return _armed


def disarm() -> "ArmedPlan | None":
    """Disarm; returns the previously armed state, if any."""
    global _armed
    previous = _armed
    _armed = None
    return previous


def active_plan() -> "FaultPlan | None":
    """The armed plan, or ``None``."""
    return None if _armed is None else _armed.plan


@contextmanager
def armed(plan: FaultPlan):
    """Context manager: arm ``plan`` for the block, disarm after."""
    state = arm(plan)
    try:
        yield state
    finally:
        disarm()


def ensure_armed_from_env() -> bool:
    """Arm the plan named by :data:`FAULT_PLAN_ENV_VAR`, if not armed.

    Called by worker entry points and the CLI so chaos harnesses can
    reach spawned subprocesses.  Returns ``True`` when a plan is armed
    after the call.  A set-but-unreadable plan path raises — a chaos
    run that silently tested nothing would be worse than a crash.
    """
    if _armed is not None:
        return True
    path = os.environ.get(FAULT_PLAN_ENV_VAR)
    if not path:
        return False
    arm(FaultPlan.from_file(path))
    return True
