"""``repro.faults`` — deterministic, seeded fault injection.

The chaos layer the storage-hardening guarantees are tested against
(see ``docs/robustness.md``).  Production code threads named
:func:`fault_point` sites through its I/O paths (``cache.write``,
``checkpoint.write``, ``worker.run``, ``telemetry.emit``, …); a
:class:`FaultPlan` — JSON-declarable, like a campaign spec — maps
sites to failure behaviours (raise ``EIO``/``ENOSPC``, truncate or
bit-flip the payload before it hits disk, SIGKILL the process, inject
latency) with per-site probabilities drawn from a seeded RNG, so every
chaos run is replayable.

With no plan armed (the default), :func:`fault_point` is a
module-level no-op — one global ``None`` check — so the engines and
the ``BENCH_*`` perf gates are untouched.

This package is deliberately the bottom of the layering: it imports
nothing from the rest of ``repro`` but the stdlib-only facade helper
:mod:`repro._lazy`, so any module — the telemetry sink included — may
call into it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".plan": [
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
        ],
    },
)

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
