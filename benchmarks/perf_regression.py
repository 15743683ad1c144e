"""Benchmark regression harness — writes ``BENCH_engine.json`` and
``BENCH_matrix.json``.

Runs the engine-throughput workloads that gate performance work (the
fig6/REA explorer search, the Def. 2.3 step loop, and the 24-model
matrix certification) under both execution cores and records absolute
numbers plus the packed-over-reference speedups::

    PYTHONPATH=src python benchmarks/perf_regression.py \
        [--out BENCH_engine.json] [--matrix-out BENCH_matrix.json]

``BENCH_engine.json`` pins the packed-over-reference comparison on the
*unreduced* fig6/REA search; ``speedup.explorer_states`` must stay
≥ 30×.  It also records the codec's tuple step replaying a recorded
schedule against the reference step (``speedup.replay_steps``, not
gated: that step decodes a full ``NetworkState`` per step, and no
search runs it on a hot path).

``BENCH_matrix.json`` pins the partial-order reducer, the verdict
cache, and the packed engine on the matrix workload — the 24-model
certification of the Fig. 7 gadget, whose interleaving explosion is
what the reducer exists for (DISAGREE is recorded alongside but is too
small to gate on).  Every run uses the default packed engine unless
named otherwise.  Gated: the cold reduction speedup (reduced vs
unreduced search, ≥ 3×), the warm cache speedup (second run against a
populated cache, ≥ 20×), the packed cold speedup (vs the reference
engine's cold reduced certification, ≥ 82.9×, with every
state/pruned/complete count bit-identical — Fig. 7 has no symmetry),
the packed stdlib speedup (same workload with ``REPRO_NO_NUMPY=1``,
≥ 24.9×), and the telemetry overhead (the ``repro.obs``
instrumentation enabled vs disabled on the cold reduced certification,
≤ 5% — its span-level breakdown is recorded under ``"telemetry"``;
``--telemetry-only``/``--telemetry-out`` run just this gate for the CI
observability job), and the disarmed fault-injection layer
(:mod:`repro.faults` sites stubbed out vs present-but-disarmed on the
same certification, ≤ 2% under ``"faults"``; ``--faults-only`` /
``--skip-faults`` for the CI chaos job).  Verdict equality between
every configuration is asserted before any number is reported.

The JSONs are committed alongside performance PRs so a regression
shows up as a diff.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.analysis.experiments import matrix_certification
from repro.config import RunConfig
from repro.core.instances import fig6_gadget, fig7_gadget
from repro.engine.codec import replay_schedule
from repro.engine.execution import Execution
from repro.engine.explorer import Explorer
from repro.engine.schedulers import RandomScheduler
from repro.models.taxonomy import model

MIN_EXPLORER_SPEEDUP = 30.0
MIN_REDUCTION_SPEEDUP = 3.0
MIN_WARM_CACHE_SPEEDUP = 20.0
#: The packed gates were 10× and 3× over the removed middle engine
#: tier, which ran this certification 8.29× faster than the reference
#: (21.2 s vs 175.8 s on a 2-core x86-64 VM, Python 3.11); re-based on
#: the reference engine, the same bars are 82.9× and 24.9×.
MIN_PACKED_SPEEDUP = 82.9
MIN_PACKED_STDLIB_SPEEDUP = 24.9
MAX_TELEMETRY_OVERHEAD_PCT = 5.0
MAX_FAULTS_OVERHEAD_PCT = 2.0

#: Modules that bind ``fault_point`` at import time; the faults gate
#: swaps their reference for a bare passthrough to measure what the
#: disarmed layer costs beyond an unavoidable function call.
_FAULT_POINT_CONSUMERS = (
    "repro.fsutil",
    "repro.engine.cache",
    "repro.engine.parallel",
    "repro.campaign.runner",
    "repro.obs.telemetry",
)


def _best_of(runs: int, fn):
    """Best wall time over ``runs`` calls; returns (seconds, result)."""
    best = None
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def bench_explorer(engine: str, runs: int = 3) -> dict:
    def explore():
        # reduction="none": the packed-vs-reference ratio is measured
        # on the full search (the reducer has its own gates in
        # BENCH_matrix.json).
        return Explorer(
            fig6_gadget(),
            model("REA"),
            queue_bound=2,
            max_states=100_000,
            engine=engine,
            reduction="none",
        ).explore()

    seconds, result = _best_of(runs, explore)
    assert not result.oscillates and result.complete
    return {
        "engine": engine,
        "states": result.states_explored,
        "seconds": round(seconds, 4),
        "states_per_sec": round(result.states_explored / seconds, 1),
    }


def bench_steps(runs: int = 3) -> dict:
    instance = fig6_gadget()
    scheduler = RandomScheduler(instance, model("UMS"), seed=1, drop_prob=0.3)
    execution = Execution(instance)
    schedule = []
    for _ in range(1000):
        entry = scheduler.next_entry(execution.state)
        schedule.append(entry)
        execution.step(entry)

    ref_seconds, _ = _best_of(runs, lambda: Execution(instance).run(schedule))
    codec_seconds, states = _best_of(
        runs, lambda: replay_schedule(instance, schedule)
    )
    assert states == execution.trace.states
    return {
        "steps": len(schedule),
        "reference_steps_per_sec": round(len(schedule) / ref_seconds, 1),
        "codec_steps_per_sec": round(len(schedule) / codec_seconds, 1),
    }


def bench_matrix(runs: int = 3) -> dict:
    seconds, cert = _best_of(
        runs,
        lambda: matrix_certification(config=RunConfig(workers=1, reduction="none")),
    )
    oscillating = sum(1 for result in cert.values() if result.oscillates)
    assert oscillating == 14 and len(cert) == 24
    return {
        "models": len(cert),
        "oscillating": oscillating,
        "seconds": round(seconds, 4),
    }


def _timed_certification(
    instance, reduction: str, cache_dir=None, engine: str = "packed"
) -> dict:
    start = time.perf_counter()
    cert = matrix_certification(
        instance=instance,
        config=RunConfig(
            workers=1, queue_bound=2, reduction=reduction,
            cache_dir=cache_dir, engine=engine,
        ),
    )
    seconds = time.perf_counter() - start
    return {
        "seconds": round(seconds, 4),
        "states": sum(r.states_explored for r in cert.values()),
        "pruned": sum(r.states_pruned for r in cert.values()),
        "complete": sum(1 for r in cert.values() if r.complete),
        "verdicts": {name: cert[name].oscillates for name in sorted(cert)},
        "_raw_seconds": seconds,
    }


def _strip(entry: dict) -> dict:
    return {k: v for k, v in entry.items() if not k.startswith("_")}


def bench_matrix_workload() -> dict:
    """The reducer/cache gates: 24-model certification of Fig. 7.

    Single-shot timings (the unreduced baseline alone runs for minutes;
    best-of-N would triple that for no extra signal on 10×-class gaps).
    """
    import os

    fig7 = fig7_gadget()
    with tempfile.TemporaryDirectory() as cache_dir:
        unreduced = _timed_certification(fig7, "none")
        cold = _timed_certification(fig7, "ample", cache_dir=cache_dir)
        warm = _timed_certification(fig7, "ample", cache_dir=cache_dir)
    reference = _timed_certification(fig7, "ample", engine="reference")
    os.environ["REPRO_NO_NUMPY"] = "1"
    try:
        stdlib = _timed_certification(fig7, "ample")
    finally:
        del os.environ["REPRO_NO_NUMPY"]

    # The reduction and the cache must change *performance only*.
    assert cold["verdicts"] == unreduced["verdicts"]
    assert warm["verdicts"] == cold["verdicts"]
    assert warm["states"] == cold["states"]
    assert cold["complete"] >= unreduced["complete"]  # monotone coverage

    # Fig. 7's automorphism group is trivial, so the packed runs (with
    # and without the numpy/scipy path) must match the reference run in
    # every count, not merely the verdicts.
    for packed_run in (cold, stdlib):
        assert packed_run["verdicts"] == reference["verdicts"]
        assert packed_run["states"] == reference["states"]
        assert packed_run["pruned"] == reference["pruned"]
        assert packed_run["complete"] == reference["complete"]

    # DISAGREE is recorded for context (too small for the reducer to
    # win — table builds dominate its sub-millisecond searches).
    disagree_base = _timed_certification(None, "none")
    disagree_reduced = _timed_certification(None, "ample")
    assert disagree_reduced["verdicts"] == disagree_base["verdicts"]
    assert sum(disagree_base["verdicts"].values()) == 14

    reduction_speedup = round(
        unreduced["_raw_seconds"] / cold["_raw_seconds"], 2
    )
    warm_cache_speedup = round(cold["_raw_seconds"] / warm["_raw_seconds"], 2)
    packed_speedup = round(
        reference["_raw_seconds"] / cold["_raw_seconds"], 2
    )
    packed_stdlib_speedup = round(
        reference["_raw_seconds"] / stdlib["_raw_seconds"], 2
    )
    return {
        "workload": "fig7_gadget all 24 models queue_bound=2 "
        "(packed reduced vs unreduced, cold vs warm cache, packed vs "
        "reference); DISAGREE recorded for context",
        "python": platform.python_version(),
        "fig7": {
            "unreduced": _strip(unreduced),
            "cold_reduced": _strip(cold),
            "warm_cache": _strip(warm),
            "reference_cold": _strip(reference),
            "packed_cold_stdlib": _strip(stdlib),
        },
        "disagree": {
            "unreduced": _strip(disagree_base),
            "reduced": _strip(disagree_reduced),
        },
        "speedup": {
            "reduction_cold": reduction_speedup,
            "cache_warm": warm_cache_speedup,
            "packed_cold": packed_speedup,
            "packed_cold_stdlib": packed_stdlib_speedup,
        },
        "passes_min_reduction_speedup": (
            reduction_speedup >= MIN_REDUCTION_SPEEDUP
        ),
        "passes_min_warm_cache_speedup": (
            warm_cache_speedup >= MIN_WARM_CACHE_SPEEDUP
        ),
        "passes_min_packed_speedup": packed_speedup >= MIN_PACKED_SPEEDUP,
        "passes_min_packed_stdlib_speedup": (
            packed_stdlib_speedup >= MIN_PACKED_STDLIB_SPEEDUP
        ),
    }


def bench_telemetry_overhead(
    telemetry_out: "Path | None" = None, runs: int = 2
) -> dict:
    """The observability gate: instrumentation must stay below
    :data:`MAX_TELEMETRY_OVERHEAD_PCT` on the cold reduced Fig. 7
    certification (the longest single-process search in the suite, so
    per-state costs have nowhere to hide).  Disabled and enabled runs
    are *interleaved* (off/on pairs, best of each) so slow machine
    drift cancels instead of biasing whichever side runs last.
    Verdict equality between the disabled and enabled runs is asserted
    — telemetry observes only — and the enabled runs' span breakdown
    is recorded so the committed JSON shows where certification time
    goes.

    The instrumented side runs with *tracing armed*: the certification
    executes inside a root trace span, so every per-exploration
    ``worker.run`` span record and histogram observation is part of
    the measured cost.  The gate therefore bounds the full
    observability stack — registries, JSONL events, trace spans, and
    histogram feeds together.
    """
    from repro.obs import tracing

    fig7 = fig7_gadget()

    def certify():
        return matrix_certification(
            instance=fig7,
            config=RunConfig(workers=1, queue_bound=2, reduction="ample"),
        )

    def certify_instrumented():
        telemetry = obs.Telemetry(
            telemetry_out, run={"command": "bench-telemetry"}
        )
        previous = obs.install(telemetry)
        try:
            with tracing.trace_span("bench.certify", timing=True):
                return certify(), telemetry.summary
        finally:
            obs.install(previous)
            telemetry.close()

    off_seconds = on_seconds = None
    summary: dict = {}
    for _ in range(runs):
        start = time.perf_counter()
        baseline = certify()
        elapsed = time.perf_counter() - start
        if off_seconds is None or elapsed < off_seconds:
            off_seconds = elapsed

        start = time.perf_counter()
        instrumented, summarize = certify_instrumented()
        elapsed = time.perf_counter() - start
        if on_seconds is None or elapsed < on_seconds:
            on_seconds = elapsed
            summary = summarize()

        assert {name: baseline[name].oscillates for name in baseline} == {
            name: instrumented[name].oscillates for name in instrumented
        }

    overhead_pct = round((on_seconds / off_seconds - 1.0) * 100.0, 2)
    return {
        "workload": "fig7_gadget all 24 models queue_bound=2, cold "
        "reduced, telemetry disabled vs enabled (best of "
        f"{runs})",
        "seconds_disabled": round(off_seconds, 4),
        "seconds_enabled": round(on_seconds, 4),
        "overhead_pct": overhead_pct,
        "spans": summary.get("spans", {}),
        "counters": summary.get("counters", {}),
        "passes_max_telemetry_overhead": (
            overhead_pct <= MAX_TELEMETRY_OVERHEAD_PCT
        ),
    }


def bench_faults_overhead(runs: int = 9, calibration_calls: int = 2_000_000) -> dict:
    """The robustness gate: disarmed fault points must stay below
    :data:`MAX_FAULTS_OVERHEAD_PCT` of the workload they sit in.

    The true disarmed cost — one module-global ``None`` check per
    crossing, a few dozen crossings per certification — is orders of
    magnitude below what interleaved differential timing can resolve on
    a shared machine (run-to-run scheduler noise alone is several
    percent).  So the gate measures the two factors directly and takes
    their product, each side of which is individually stable:

    * **crossings** — every consumer's ``fault_point`` binding is
      patched with a counting wrapper for one cold cache-enabled
      DISAGREE certification (the workload where the sites' relative
      share is largest: ``cache.read``/``cache.write`` per verdict,
      fan-out entry per task, the checkpointless minimum of writes);
    * **cost per disarmed crossing** — the real ``fault_point`` in a
      tight loop of ``calibration_calls`` (amortizing the loop itself
      would *under*-count, so the loop overhead is deliberately left
      in: the reported per-call cost is an upper bound);
    * **workload seconds** — the median certification wall time over
      ``runs`` repetitions with the layer in place, tempdir churn kept
      outside the timed region.

    ``overhead_pct = crossings × per-call / median seconds`` is then an
    upper bound on the disarmed layer's share of the gated workload.
    """
    import importlib

    from repro import faults
    from repro.faults import fault_point as real_fault_point

    assert faults.active_plan() is None, "faults gate requires a disarmed run"

    def timed_certify():
        # The tempdir setup/teardown stays *outside* the timed region:
        # filesystem variance there would swamp the signal.
        with tempfile.TemporaryDirectory() as cache_dir:
            config = RunConfig(
                workers=1, queue_bound=2, reduction="ample",
                cache_dir=cache_dir,
            )
            start = time.perf_counter()
            cert = matrix_certification(config=config)
            return time.perf_counter() - start, cert

    modules = [importlib.import_module(name) for name in _FAULT_POINT_CONSUMERS]

    # 1. Crossings per certification.
    crossings = 0

    def counting(site, payload=None):
        nonlocal crossings
        crossings += 1
        return real_fault_point(site, payload)

    timed_certify()  # warm imports, tables, and the allocator once
    originals = [module.fault_point for module in modules]
    for module in modules:
        module.fault_point = counting
    try:
        _, counted_cert = timed_certify()
    finally:
        for module, original in zip(modules, originals):
            module.fault_point = original
    assert sum(r.oscillates for r in counted_cert.values()) == 14

    # 2. Cost per disarmed crossing (upper bound: loop overhead included).
    payload = "x" * 4096  # a representative checkpoint-sized payload
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(calibration_calls):
            real_fault_point("cache.read", payload)
        per_call = (time.perf_counter() - start) / calibration_calls

        # 3. Workload seconds with the layer in place.
        samples = []
        for _ in range(runs):
            elapsed, cert = timed_certify()
            samples.append(elapsed)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    assert {name: counted_cert[name].oscillates for name in counted_cert} == {
        name: cert[name].oscillates for name in cert
    }

    seconds = statistics.median(samples)
    overhead_pct = round(crossings * per_call / seconds * 100.0, 4)
    return {
        "workload": "DISAGREE all 24 models queue_bound=2, cold reduced "
        "+ cache; disarmed overhead = crossings x per-call cost "
        f"/ median-of-{runs} wall time",
        "crossings": crossings,
        "ns_per_disarmed_call": round(per_call * 1e9, 2),
        "seconds": round(seconds, 4),
        "overhead_pct": overhead_pct,
        "passes_max_faults_overhead": overhead_pct <= MAX_FAULTS_OVERHEAD_PCT,
    }


def run(out_path: Path) -> dict:
    packed = bench_explorer("packed")
    reference = bench_explorer("reference")
    steps = bench_steps()
    matrix = bench_matrix()
    explorer_speedup = round(
        packed["states_per_sec"] / reference["states_per_sec"], 2
    )
    step_speedup = round(
        steps["codec_steps_per_sec"] / steps["reference_steps_per_sec"], 2
    )
    report = {
        "workload": "fig6_gadget REA queue_bound=2 (explorer), "
        "fig6_gadget UMS 1000-step schedule (steps), "
        "DISAGREE all 24 models (matrix)",
        "python": platform.python_version(),
        "explorer": {"packed": packed, "reference": reference},
        "steps": steps,
        "matrix_certification": matrix,
        "speedup": {
            "explorer_states": explorer_speedup,
            "replay_steps": step_speedup,
        },
        "passes_min_speedup": explorer_speedup >= MIN_EXPLORER_SPEEDUP,
    }
    seconds = {
        f"explorer_{engine}": entry["seconds"]
        for engine, entry in report["explorer"].items()
    }
    seconds["matrix_certification"] = matrix["seconds"]
    _append_history(out_path, report, seconds)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _git_rev(repo: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _append_history(out_path: Path, report: dict, seconds: dict) -> None:
    """Carry forward and extend the perf trajectory across PRs.

    Each run appends one timestamped entry — git revision, python, the
    headline workload ``seconds``, and the report's speedups — to a
    ``history`` list preserved from the previous file, so the committed
    JSON shows the trajectory rather than only the latest numbers.
    """
    history = []
    if out_path.exists():
        try:
            history = json.loads(out_path.read_text()).get("history", [])
        except (json.JSONDecodeError, OSError):
            history = []
    history.append(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "git_rev": _git_rev(out_path.resolve().parent),
            "python": platform.python_version(),
            "seconds": seconds,
            "speedup": dict(report.get("speedup", {})),
        }
    )
    report["history"] = history


def run_matrix(
    out_path: Path,
    telemetry_out: "Path | None" = None,
    skip_telemetry: bool = False,
    skip_faults: bool = False,
) -> dict:
    report = bench_matrix_workload()
    if not skip_telemetry:
        report["telemetry"] = bench_telemetry_overhead(telemetry_out)
    if not skip_faults:
        report["faults"] = bench_faults_overhead()
    seconds = {name: entry["seconds"] for name, entry in report["fig7"].items()}
    _append_history(out_path, report, seconds)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _check_telemetry(report: dict) -> bool:
    """Print the overhead verdict; ``True`` when the gate fails."""
    if not report["passes_max_telemetry_overhead"]:
        print(
            f"FAIL: telemetry overhead {report['overhead_pct']}% "
            f"> allowed {MAX_TELEMETRY_OVERHEAD_PCT}%"
        )
        return True
    return False


def _check_faults(report: dict) -> bool:
    """Print the disarmed-faults verdict; ``True`` when the gate fails."""
    if not report["passes_max_faults_overhead"]:
        print(
            f"FAIL: disarmed fault-point overhead {report['overhead_pct']}% "
            f"> allowed {MAX_FAULTS_OVERHEAD_PCT}%"
        )
        return True
    return False


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(repo / "BENCH_engine.json"))
    parser.add_argument(
        "--matrix-out", default=str(repo / "BENCH_matrix.json")
    )
    parser.add_argument(
        "--skip-matrix",
        action="store_true",
        help="skip the minutes-long reducer/cache workload",
    )
    parser.add_argument(
        "--telemetry-only",
        action="store_true",
        help="run only the telemetry overhead gate (CI observability job)",
    )
    parser.add_argument(
        "--skip-telemetry",
        action="store_true",
        help="omit the telemetry overhead gate (it has its own CI job)",
    )
    parser.add_argument(
        "--faults-only",
        action="store_true",
        help="run only the disarmed fault-point overhead gate "
        "(CI chaos-smoke job)",
    )
    parser.add_argument(
        "--skip-faults",
        action="store_true",
        help="omit the disarmed fault-point overhead gate "
        "(it has its own CI job)",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="write the instrumented runs' JSONL event stream to PATH",
    )
    args = parser.parse_args()
    telemetry_out = Path(args.telemetry_out) if args.telemetry_out else None
    if args.telemetry_only:
        report = bench_telemetry_overhead(telemetry_out)
        print(json.dumps(report, indent=2))
        return 1 if _check_telemetry(report) else 0
    if args.faults_only:
        report = bench_faults_overhead()
        print(json.dumps(report, indent=2))
        return 1 if _check_faults(report) else 0
    report = run(Path(args.out))
    print(json.dumps(report, indent=2))
    failed = False
    if not report["passes_min_speedup"]:
        print(
            f"FAIL: explorer speedup {report['speedup']['explorer_states']}x "
            f"< required {MIN_EXPLORER_SPEEDUP}x"
        )
        failed = True
    if not args.skip_matrix:
        matrix_report = run_matrix(
            Path(args.matrix_out),
            telemetry_out,
            args.skip_telemetry,
            args.skip_faults,
        )
        print(json.dumps(matrix_report, indent=2))
        if not matrix_report["passes_min_reduction_speedup"]:
            print(
                "FAIL: cold reduction speedup "
                f"{matrix_report['speedup']['reduction_cold']}x "
                f"< required {MIN_REDUCTION_SPEEDUP}x"
            )
            failed = True
        if not matrix_report["passes_min_warm_cache_speedup"]:
            print(
                "FAIL: warm cache speedup "
                f"{matrix_report['speedup']['cache_warm']}x "
                f"< required {MIN_WARM_CACHE_SPEEDUP}x"
            )
            failed = True
        if not matrix_report["passes_min_packed_speedup"]:
            print(
                "FAIL: packed cold speedup "
                f"{matrix_report['speedup']['packed_cold']}x "
                f"< required {MIN_PACKED_SPEEDUP}x"
            )
            failed = True
        if not matrix_report["passes_min_packed_stdlib_speedup"]:
            print(
                "FAIL: packed stdlib (numpy off) speedup "
                f"{matrix_report['speedup']['packed_cold_stdlib']}x "
                f"< required {MIN_PACKED_STDLIB_SPEEDUP}x"
            )
            failed = True
        if "telemetry" in matrix_report and _check_telemetry(
            matrix_report["telemetry"]
        ):
            failed = True
        if "faults" in matrix_report and _check_faults(
            matrix_report["faults"]
        ):
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
