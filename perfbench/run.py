"""The repository benchmark: one workload, one seed, one JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload certify-fig7 --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --smoke          # every workload once, all checks

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` rotates untraced, traced (layer wrappers live) and
telemetry-armed operations and reports the per-layer metrics; see
``perfbench/README.md`` for the workloads and the layer map.  The last
line of standard output is the result object; the line before it is the
environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Variables that change the package's behaviour; cleared (and
#: recorded) before anything runs.
ISOLATED_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_MEMO",
    "REPRO_TELEMETRY",
    "REPRO_TRACEPARENT",
    "REPRO_WORKERS",
    "REPRO_NO_NUMPY",
    "REPRO_RETRY_SEED",
)
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Each mode of a traced run accumulates this share of ``--seconds``.
TRACE_MODE_SHARE = 1 / 3
#: Fewest operations per mode, whatever ``--seconds`` says.
MIN_OPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
)


def _per_layer_names() -> tuple:
    from layers import LAYER_NAMES

    names = [
        ("traced_wall_s", "s"),
        ("traced_ops", "count"),
        ("unattributed_pct", "%"),
        ("trace_overhead_pct", "%"),
        ("telemetry_overhead_pct", "%"),
        ("verdicts.incomplete_pct", "%"),
    ]
    for layer in LAYER_NAMES:
        names.append((f"{layer}.calls", "count"))
        names.append((f"{layer}.self_pct", "%"))
    names += [
        ("engine.packed.states", "count"),
        ("engine.packed.states_per_s", "1/s"),
        ("engine.packed.pruned_ratio", "ratio"),
        ("engine.explorer.twin_searches", "count"),
        ("engine.explorer.twin_hits", "count"),
        ("engine.cache.memory_hits", "count"),
        ("engine.cache.disk_hits", "count"),
        ("engine.cache.misses", "count"),
        ("fsutil.write_bytes", "B"),
        ("serve.cold_wait_pct", "%"),
        ("serve.tier.hot_pct", "%"),
        ("serve.tier.memory_pct", "%"),
        ("serve.tier.disk_pct", "%"),
        ("serve.tier.computed_pct", "%"),
        ("serve.tier.joined_pct", "%"),
        ("serve.batches", "count"),
        ("serve.batch_joins", "count"),
        ("serve.shed", "count"),
        ("serve.errors", "count"),
        ("campaign.worker.claim_rtt_pct", "%"),
        ("campaign.worker.complete_rtt_pct", "%"),
        ("campaign.coord_overhead_pct", "%"),
        ("campaign.shards", "count"),
        ("campaign.lost_leases", "count"),
        ("campaign.failed_shards", "count"),
    ]
    return tuple(names)


def percentile(values, q: float) -> float:
    """Percentile (``q`` in 0..100) of a non-empty list, interpolated
    linearly between order statistics: the median of ten operations is
    then the mean of the middle two rather than either one alone."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _git_revision() -> "str | None":
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the package sources (a revision that needs no git)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _vector_libs() -> dict:
    """Which of numpy / scipy's csgraph the packed SCC pass can use."""
    found = {}
    try:
        import numpy  # noqa: F401

        found["numpy"] = True
    except ImportError:
        found["numpy"] = False
    try:
        from scipy.sparse.csgraph import connected_components  # noqa: F401

        found["scipy"] = True
    except ImportError:
        found["scipy"] = False
    return found


def environment(seed: int, cleared: dict) -> dict:
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        **_vector_libs(),
        "cleared_env": cleared,
    }


def isolate_environment() -> dict:
    """Refuse an armed fault plan; clear and return behaviour variables."""
    if os.environ.get(FAULT_PLAN_ENV):
        raise SystemExit(
            f"perfbench: ${FAULT_PLAN_ENV} is set; refusing to measure under "
            "injected faults"
        )
    return {name: os.environ.pop(name) for name in ISOLATED_ENV if name in os.environ}


# ----------------------------------------------------------------------
# Running one workload
# ----------------------------------------------------------------------
class ModeRunner:
    """Runs one op in ``off``, ``traced`` or ``telemetry`` mode."""

    def __init__(self, work: Path, trace: bool) -> None:
        from layers import Patches, Tracer

        self.tracer = Tracer() if trace else None
        self.patches = Patches(self.tracer) if trace else None
        self._telemetry_path = work / "telemetry.jsonl"

    def run(self, workload, mode: str):
        from workloads import Stopwatch

        if mode == "off":
            return workload.op(mode, Stopwatch())
        if mode == "traced":
            self.patches.apply()
            try:
                return workload.op(mode, Stopwatch(self.tracer.window))
            finally:
                self.patches.restore()
        from repro import obs
        from repro.obs import tracing

        telemetry = obs.Telemetry(self._telemetry_path, run={"command": "perfbench"})
        previous = obs.install(telemetry)
        try:
            with tracing.trace_span("perfbench.op", timing=True):
                return workload.op(mode, Stopwatch())
        finally:
            obs.install(previous)
            telemetry.close()


def _scale(op, factor: float) -> None:
    """Scales an op's times to reference-host time (see hostspeed.py)."""
    op.seconds *= factor
    op.latencies = [value * factor for value in op.latencies]
    if op.setup:
        op.setup = [value * factor for value in op.setup]


def run_workload(workload, seconds, trace, work, min_ops=MIN_OPS, min_samples=0) -> dict:
    """Set up, run ops until each mode has its share of ``seconds`` of
    timed work and ``min_ops`` ops (and the untraced mode
    ``min_samples`` latencies), close; returns the measurements.

    An untraced run scales set-up samples and ops to reference-host
    time (see hostspeed.py), each segment as it closes; the budget
    counts the scaled times, so every run does about the same work
    however fast the host is at the time."""
    from hostspeed import HostSpeed

    modes = ("off", "traced", "telemetry") if trace else ("off",)
    budget = seconds * (TRACE_MODE_SHARE if trace else 1.0)
    speed = HostSpeed(enabled=not trace)
    runner = ModeRunner(work, trace)
    ops = {mode: [] for mode in modes}
    setup = []
    try:
        speed.mark()
        for sample in workload.setup_samples():
            setup += [value * factor for value, factor in speed.add(sample)]
        setup += [value * factor for value, factor in speed.flush()]
        workload.start()
        speed.mark()
        index = 0
        while True:
            pending = [
                mode for mode in modes
                if sum(op.seconds for op in ops[mode]) < budget
                or len(ops[mode]) < min_ops
                or (mode == "off" and sum(len(op.latencies) for op in ops[mode]) < min_samples)
            ]
            if not pending:
                break
            mode = modes[index % len(modes)]
            index += 1
            if mode not in pending:
                continue
            op = runner.run(workload, mode)
            ops[mode].append(op)
            if mode == "off":
                for scaled, factor in speed.add(op):
                    _scale(scaled, factor)
        for scaled, factor in speed.flush():
            _scale(scaled, factor)
    finally:
        workload.close()
    return {"setup": setup, "ops": ops, "runner": runner}


def end_to_end_metrics(workload, raw) -> dict:
    ops = raw["ops"]["off"]
    latencies = [value for op in ops for value in op.latencies]
    setup = raw["setup"] + [value for op in ops for value in (op.setup or [])]
    values = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": 1000.0 * percentile(latencies, 50.0),
        "latency_tail_ms": 1000.0 * percentile(latencies, workload.tail_percentile),
        "throughput_per_s": sum(op.units for op in ops) / sum(op.seconds for op in ops),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _per_unit(ops) -> float:
    return statistics.median(op.seconds / max(1, op.units) for op in ops)


def per_layer_metrics(workload, raw) -> dict:
    from layers import LAYER_NAMES

    tracer = raw["runner"].tracer
    ops = raw["ops"]
    wall = tracer.wall_s

    def share(seconds):
        return 100.0 * seconds / wall

    off = _per_unit(ops["off"])
    values = {
        "traced_wall_s": wall,
        "traced_ops": len(ops["traced"]),
        "unattributed_pct": share(tracer.unattributed_s),
        "trace_overhead_pct": 100.0 * (_per_unit(ops["traced"]) / off - 1.0),
        "telemetry_overhead_pct": 100.0 * (_per_unit(ops["telemetry"]) / off - 1.0),
        "verdicts.incomplete_pct": 100.0 * sum(op.incomplete for op in ops["off"])
        / max(1, sum(op.verdicts for op in ops["off"])),
    }
    for layer in LAYER_NAMES:
        values[f"{layer}.calls"] = tracer.calls(layer)
        values[f"{layer}.self_pct"] = share(tracer.self_s(layer))
    counts = tracer.counts
    explore_s = tracer.self_s("engine.packed.explore")
    states = counts["engine.packed.states"]
    values.update({
        "engine.packed.states": states,
        "engine.packed.states_per_s": states / explore_s if explore_s else 0.0,
        "engine.packed.pruned_ratio": (
            counts["engine.packed.pruned"] / max(1, states + counts["engine.packed.pruned"])
        ),
        "engine.explorer.twin_searches": counts["engine.explorer.twin_searches"],
        "engine.explorer.twin_hits": counts["engine.explorer.twin_hits"],
        "fsutil.write_bytes": counts["fsutil.write_bytes"],
        "serve.cold_wait_pct": share(counts["serve.cold_wait_s"]),
        "campaign.worker.claim_rtt_pct": share(tracer.total_s("campaign.worker.claim")),
        "campaign.worker.complete_rtt_pct": share(tracer.total_s("campaign.worker.complete")),
        "campaign.coord_overhead_pct": (
            100.0 - share(tracer.total_s("campaign.runner.compute"))
            if tracer.calls("campaign.runner.compute") else 0.0
        ),
        "campaign.shards": tracer.calls("campaign.runner.compute"),
    })
    extras = workload.layer_extras()
    metrics = {}
    for name, unit in _per_layer_names():
        value = extras[name][0] if name in extras else values.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload; returns the result object."""
    from workloads import WORKLOADS

    work = WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, work, SRC)
        if smoke:
            raw = run_workload(workload, 0.0, True, work, min_ops=1)
        else:
            raw = run_workload(
                workload, seconds, trace, work, min_samples=workload.min_samples
            )
        all_ops = [op for mode_ops in raw["ops"].values() for op in mode_ops]
        wrong = [message for op in all_ops for message in (op.wrong or [])]
        if trace:
            problem = raw["runner"].tracer.check()
            if problem:
                wrong.append(f"layer accounting: {problem}")
            metrics = per_layer_metrics(workload, raw)
        else:
            metrics = end_to_end_metrics(workload, raw)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in wrong[:20]:
        print(f"perfbench: INCORRECT: {message}", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": sum(op.attempted for op in all_ops),
        "failed": sum(op.failed for op in all_ops),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run every workload once per mode with all checks (fast)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    cleared = isolate_environment()
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.smoke:
        failures = 0
        for name in WORKLOADS:
            start = time.perf_counter()
            result = run(name, args.seed, 0.0, True, smoke=True)
            ok = result["correct"] and not result["failed"]
            failures += not ok
            print(f"{name}: {'ok' if ok else 'FAILED'} ({result['attempted']} "
                  f"attempted, {time.perf_counter() - start:.1f}s)")
        return 1 if failures else 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = environment(args.seed, cleared)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
