"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands
-----------

* ``list`` — the taxonomy and the canonical instances.
* ``matrix`` — print the derived Figure 3/4 matrices and the comparison
  against the paper's published entries.
* ``simulate`` — run one fair random execution of an instance under a
  model and report convergence.
* ``explore`` — bounded model checking: can the instance oscillate
  under the model?
* ``trace`` — print the scripted Appendix A executions.
* ``experiments`` — run the full experiment suite (``--json`` for
  machine-readable results).
* ``campaign`` — resumable sharded surveys over random instance
  populations (``run``/``resume``/``status``/``report``).
* ``serve`` — long-running verdict daemon over the content-addressed
  cache (singleflight, micro-batching, admission control).
* ``query`` — client for a running ``repro serve`` daemon.
* ``cache`` — inspect (``stats``) or empty (``clear``) the
  content-addressed verdict cache shared by the search commands.
* ``doctor`` — fsck a cache root or campaign directory: verify
  checksums, digests, and checkpoints; ``--repair`` quarantines bad
  artifacts and rewrites derivable ones.
* ``stats`` — aggregate telemetry JSONL files (``--telemetry`` on the
  search commands) into a per-phase wall-time breakdown.
* ``explain`` / ``solve`` / ``wheel`` / ``sat`` / ``artifacts`` — targeted
  derivations, solution enumeration, dispute wheels, the NP-completeness
  reduction, and artifact regeneration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import faults, obs
from .analysis import experiments, reporting
from .analysis.traces import format_trace_table
from .campaign import Campaign, CampaignError, CampaignSpec, QueueError, render_report
from .config import DEFAULT_ENGINE, ENGINES, RunConfig
from .core.instances import ALL_NAMED_INSTANCES
from .engine.cache import DEFAULT_CACHE_DIR, VerdictCache
from .engine.convergence import simulate
from .engine.execution import Execution
from .engine.explorer import can_oscillate
from .engine.reduction import REDUCTIONS
from .models.taxonomy import ALL_MODELS, model
from .realization.closure import derive_matrix

__all__ = ["main", "build_parser"]


def _add_perf_flags(parser: argparse.ArgumentParser) -> None:
    """The shared engine/reduction/cache knobs of the search commands."""
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=DEFAULT_ENGINE,
        help="execution core: the bit-packed symmetry-quotienting engine "
        "(default) or the didactic reference search (identical verdicts)",
    )
    parser.add_argument(
        "--reduction",
        choices=REDUCTIONS,
        default="ample",
        help="partial-order reducer: 'ample' (default) merges "
        "ext-equivalent interleavings; 'none' searches the full graph",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="verdict-cache directory (default: $REPRO_CACHE_DIR or "
        f"{DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed verdict cache",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="append structured JSONL telemetry events to PATH "
        f"(default: ${obs.TELEMETRY_ENV_VAR} when set); verdicts are "
        "identical with telemetry on or off",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print live search heartbeats to stderr",
    )
    _add_fault_plan_flag(parser)


def _add_fault_plan_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="arm a fault-injection plan JSON for this run (chaos "
        f"testing; also exported as ${faults.FAULT_PLAN_ENV_VAR} so "
        "worker subprocesses inherit it)",
    )


def _resolve_cache_dir(args) -> "str | None":
    """The cache directory a command should use, or ``None`` when off."""
    if args.no_cache:
        return None
    return (
        args.cache_dir
        or os.environ.get("REPRO_CACHE_DIR")
        or DEFAULT_CACHE_DIR
    )


def _resolve_telemetry(args) -> "str | None":
    """The telemetry JSONL path, or ``None`` when telemetry is off."""
    explicit = getattr(args, "telemetry", None)
    return explicit or os.environ.get(obs.TELEMETRY_ENV_VAR) or None


def _config_from_args(args, workers: "int | None" = None) -> RunConfig:
    """The :class:`RunConfig` a search command's flags describe."""
    return RunConfig(
        engine=args.engine,
        reduction=args.reduction,
        cache_dir=_resolve_cache_dir(args),
        workers=workers,
        telemetry=_resolve_telemetry(args),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'The Impact of Communication Models on "
            "Routing-Algorithm Convergence' (ICDCS 2009)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list models and canonical instances")

    matrix = sub.add_parser("matrix", help="derive and print Figures 3/4")
    matrix.add_argument("--figure", choices=("3", "4", "both"), default="both")
    matrix.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for the 24-model explorer certification "
        "(verdicts are identical for every worker count)",
    )
    _add_perf_flags(matrix)

    sim = sub.add_parser("simulate", help="run one fair random execution")
    sim.add_argument("--instance", default="disagree", choices=sorted(ALL_NAMED_INSTANCES))
    sim.add_argument("--model", default="RMS")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--max-steps", type=int, default=2000)

    explore = sub.add_parser("explore", help="bounded oscillation search")
    explore.add_argument("--instance", default="disagree", choices=sorted(ALL_NAMED_INSTANCES))
    explore.add_argument("--model", default="R1O")
    explore.add_argument("--queue-bound", type=int, default=3)
    explore.add_argument("--max-states", type=int, default=500_000)
    _add_perf_flags(explore)

    trace = sub.add_parser(
        "trace",
        help="print a scripted Appendix A execution, or reconstruct a "
        "distributed request trace from telemetry streams",
    )
    trace.add_argument(
        "action",
        nargs="?",
        choices=("show", "list"),
        default=None,
        help="'show TRACE_ID' renders one request's cross-process span "
        "tree; 'list' enumerates trace IDs — both read --telemetry "
        "JSONL file(s); omit for the Appendix A execution printer",
    )
    trace.add_argument(
        "trace_id",
        nargs="?",
        default=None,
        help="trace ID (or unique prefix) for 'show'",
    )
    trace.add_argument("--example", choices=("fig6", "fig7", "fig8", "fig9"), default="fig6")
    trace.add_argument(
        "--telemetry",
        nargs="+",
        default=None,
        metavar="FILE",
        help="telemetry JSONL stream(s) to reconstruct from — pass the "
        "client's and the server's to see both sides of a query",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit the matched span records as JSON (CI artifact form)",
    )

    exp = sub.add_parser("experiments", help="run the experiment suite")
    exp.add_argument(
        "--full",
        action="store_true",
        help="include the minutes-long exhaustive fig6 polling verification",
    )
    exp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for the parallel exploration/simulation fan-outs "
        "(results are identical for every worker count)",
    )
    exp.add_argument(
        "--json",
        action="store_true",
        help="emit the suite results as one JSON document instead of text",
    )
    _add_perf_flags(exp)

    serve = sub.add_parser(
        "serve",
        help="run the verdict daemon (HTTP/JSON over the verdict cache)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8351,
        help="listen port (0 picks an ephemeral port, printed on startup)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="verdict-cache directory (default: $REPRO_CACHE_DIR or "
        f"{DEFAULT_CACHE_DIR})",
    )
    serve.add_argument(
        "--engine",
        choices=ENGINES,
        default=DEFAULT_ENGINE,
        help="default execution core for requests that do not pick one",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="serving worker threads draining the cold-miss batch queue",
    )
    serve.add_argument(
        "--compute-procs",
        type=int,
        default=1,
        help="process fan-out inside one batch (1 keeps batches "
        "in-process so per-instance tables are built once)",
    )
    serve.add_argument(
        "--queue-cap",
        type=int,
        default=64,
        help="admission control: maximum queued cold-miss batches "
        "before requests are shed with 429/Retry-After",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request deadline while waiting on cold computations",
    )
    serve.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="Retry-After hint sent with shed (429) responses",
    )
    serve.add_argument(
        "--response-cache",
        type=int,
        default=256,
        metavar="N",
        help="serve-level hot tier: complete responses kept for repeat "
        "byte-identical queries (0 disables)",
    )
    serve.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="append structured JSONL telemetry events to PATH "
        f"(default: ${obs.TELEMETRY_ENV_VAR} when set)",
    )
    _add_fault_plan_flag(serve)

    query = sub.add_parser(
        "query", help="query a running repro serve daemon"
    )
    query.add_argument(
        "--url",
        default="http://127.0.0.1:8351",
        help="server base URL (default: %(default)s)",
    )
    query.add_argument(
        "--instance", default="disagree", choices=sorted(ALL_NAMED_INSTANCES)
    )
    query.add_argument(
        "--instance-file",
        default=None,
        metavar="JSON",
        help="query an instance from a serialization JSON file instead "
        "of a canonical one",
    )
    query.add_argument(
        "--models",
        nargs="+",
        default=None,
        metavar="MODEL",
        help="model names to certify (default: all 24)",
    )
    query.add_argument("--queue-bound", type=int, default=3)
    query.add_argument("--max-states", type=int, default=None)
    query.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="execution core override (default: the server's)",
    )
    query.add_argument(
        "--reduction", choices=REDUCTIONS, default=None
    )
    query.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS"
    )
    query.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry a shed (429/503) response this many times, sleeping "
        "the server's Retry-After hint between attempts",
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="print the raw response JSON instead of a verdict table",
    )
    query.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="record the client side of the query's distributed trace "
        f"to PATH (default: ${obs.TELEMETRY_ENV_VAR} when set)",
    )

    top = sub.add_parser(
        "top",
        help="live operations dashboard: throughput, hit tiers, queue "
        "depth, shed rate, latency quantiles",
    )
    top.add_argument(
        "--url",
        default=None,
        help="poll this daemon's /metrics (default: "
        "http://127.0.0.1:8351 when no --telemetry is given)",
    )
    top.add_argument(
        "--telemetry",
        nargs="+",
        default=None,
        metavar="FILE",
        help="tail telemetry JSONL file(s) instead of polling /metrics",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh interval (default: %(default)s)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="render N frames then exit (default: run until Ctrl-C)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (same as --iterations 1)",
    )

    cache = sub.add_parser(
        "cache", help="inspect or clear the content-addressed verdict cache"
    )
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or "
        f"{DEFAULT_CACHE_DIR})",
    )
    cache.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE",
        help="also report hit/miss/write/evicted counters aggregated "
        "from a telemetry JSONL file (stats action only)",
    )

    stats = sub.add_parser(
        "stats", help="aggregate telemetry JSONL files into a phase table"
    )
    stats.add_argument(
        "files", nargs="+", metavar="FILE", help="telemetry JSONL file(s)"
    )
    stats.add_argument(
        "--counters",
        action="store_true",
        help="also print the raw counter/gauge totals",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the aggregate as JSON instead of a table",
    )

    camp = sub.add_parser(
        "campaign",
        help="resumable sharded surveys over random instance populations",
    )
    campsub = camp.add_subparsers(dest="campaign_command", required=True)

    def _add_campaign_exec_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--workers",
            type=int,
            default=None,
            help="processes per shard fan-out (default: $REPRO_WORKERS "
            "or one per core); results are identical for every value",
        )
        parser.add_argument(
            "--max-shards",
            type=int,
            default=None,
            metavar="N",
            help="stop after completing N pending shards (campaigns are "
            "resumable, so partial runs are always safe)",
        )
        parser.add_argument(
            "--telemetry",
            default=None,
            metavar="PATH",
            help="telemetry JSONL path (default: telemetry.jsonl inside "
            "the campaign directory)",
        )
        parser.add_argument(
            "--no-telemetry",
            action="store_true",
            help="disable the campaign's telemetry stream",
        )
        parser.add_argument(
            "--progress",
            action="store_true",
            help="print live shard heartbeats to stderr",
        )
        _add_fault_plan_flag(parser)

    crun = campsub.add_parser(
        "run", help="start (or continue) a campaign from a JSON spec file"
    )
    crun.add_argument("spec", help="campaign spec JSON file")
    crun.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="campaign directory (default: campaigns/<spec name>)",
    )
    _add_campaign_exec_flags(crun)

    cresume = campsub.add_parser(
        "resume", help="continue an interrupted campaign directory"
    )
    cresume.add_argument("dir", help="campaign directory")
    _add_campaign_exec_flags(cresume)

    cstatus = campsub.add_parser("status", help="shard/task progress")
    cstatus.add_argument("dir", help="campaign directory")
    cstatus.add_argument("--json", action="store_true")

    creport = campsub.add_parser(
        "report", help="aggregate a finished campaign into a survey report"
    )
    creport.add_argument("dir", help="campaign directory")
    creport.add_argument("--json", action="store_true")

    cserve = campsub.add_parser(
        "serve",
        help="coordinate a campaign over HTTP so other hosts can join",
    )
    cserve.add_argument("dir", help="campaign directory")
    cserve.add_argument("--host", default="127.0.0.1")
    cserve.add_argument(
        "--port",
        type=int,
        default=8643,
        help="listen port (default: %(default)s)",
    )
    cserve.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="heartbeat timeout before a worker's shard lease is "
        "reclaimed (default: %(default)s)",
    )
    cserve.add_argument(
        "--quarantine-after",
        type=int,
        default=3,
        metavar="N",
        help="quarantine a shard as poison after N distinct workers "
        "fail it (the report is then stamped partial; default: "
        "%(default)s)",
    )
    cserve.add_argument(
        "--until-complete",
        action="store_true",
        help="exit once every shard is done and report.json is written "
        "(instead of serving until SIGTERM)",
    )
    cserve.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="telemetry JSONL path (default: telemetry.jsonl inside "
        "the campaign directory)",
    )
    cserve.add_argument("--no-telemetry", action="store_true")
    _add_fault_plan_flag(cserve)

    cjoin = campsub.add_parser(
        "join",
        help="work a campaign's shard queue (directory or coordinator URL)",
    )
    cjoin.add_argument(
        "target",
        help="campaign directory (shared filesystem) or the "
        "http://host:port of a `repro campaign serve` coordinator",
    )
    cjoin.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes per shard fan-out (default: $REPRO_WORKERS or "
        "one per core, resolved once at join time)",
    )
    cjoin.add_argument(
        "--max-shards",
        type=int,
        default=None,
        metavar="N",
        help="leave after completing N shards (default: stay until the "
        "campaign completes)",
    )
    cjoin.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="lease TTL for path targets (URL targets use the "
        "coordinator's; default: %(default)s)",
    )
    cjoin.add_argument(
        "--quarantine-after",
        type=int,
        default=None,
        metavar="N",
        help="poison-shard quarantine threshold for path targets "
        "(URL targets use the coordinator's; default: 3)",
    )
    cjoin.add_argument(
        "--retry-budget",
        type=int,
        default=None,
        metavar="N",
        help="retries per coordinator call before the claim loop "
        "counts a failure (default: 8)",
    )
    cjoin.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="verdict cache directory for URL targets (path targets "
        "share the campaign's cache/)",
    )
    cjoin.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="telemetry JSONL path for this worker",
    )
    cjoin.add_argument("--no-telemetry", action="store_true")
    _add_fault_plan_flag(cjoin)

    explain = sub.add_parser(
        "explain", help="derive one matrix cell with its proof chain"
    )
    explain.add_argument("realized", help="the realized model, e.g. REA")
    explain.add_argument("realizer", help="the realizing model, e.g. R1O")

    solve = sub.add_parser("solve", help="enumerate stable solutions")
    solve.add_argument("--instance", default="disagree", choices=sorted(ALL_NAMED_INSTANCES))

    wheel = sub.add_parser("wheel", help="find a dispute wheel")
    wheel.add_argument("--instance", default="disagree", choices=sorted(ALL_NAMED_INSTANCES))

    sat = sub.add_parser(
        "sat", help="encode a CNF formula as an SPP instance (GSW reduction)"
    )
    sat.add_argument(
        "formula",
        help='compact CNF: clauses split by ";", literals by "," — e.g. "1,-2;2,3;-1,-3"',
    )

    artifacts = sub.add_parser(
        "artifacts", help="regenerate every paper artifact into a directory"
    )
    artifacts.add_argument("--out", default="artifacts")
    artifacts.add_argument("--full", action="store_true")

    doctor = sub.add_parser(
        "doctor",
        help="verify (and repair) a cache root or campaign directory",
    )
    doctor.add_argument(
        "path", help="cache root (e.g. .repro-cache) or campaign directory"
    )
    doctor.add_argument(
        "--repair",
        action="store_true",
        help="quarantine bad artifacts, rewrite derivable ones, and "
        "remove orphan tempfiles (nothing is ever deleted outright "
        "except tempfiles)",
    )
    doctor.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    return parser


def _cmd_list() -> int:
    print("Communication models (Sec. 2.2):")
    for m in ALL_MODELS:
        families = []
        if m.is_polling:
            families.append("polling")
        if m.is_message_passing:
            families.append("message-passing")
        if m.is_queueing:
            families.append("queueing")
        suffix = f"  ({', '.join(families)})" if families else ""
        print(f"  {m.name}{suffix}")
    print("\nCanonical instances:")
    for name, factory in sorted(ALL_NAMED_INSTANCES.items()):
        print(f"  {name}: {factory().describe().splitlines()[0]}")
    return 0


def _cmd_matrix(args) -> int:
    matrix = derive_matrix()
    config = _config_from_args(args, workers=args.workers)
    if args.figure in ("3", "both"):
        print("Derived Figure 3 (rows: realized model; columns: reliable realizers)")
        print(reporting.render_figure3(matrix))
        print()
        print(experiments.experiment_figure3(config=config).summary)
        print()
    if args.figure in ("4", "both"):
        print("Derived Figure 4 (rows: realized model; columns: unreliable realizers)")
        print(reporting.render_figure4(matrix))
        print()
        print(experiments.experiment_figure4(config=config).summary)
    return 0


def _cmd_simulate(args) -> int:
    instance = ALL_NAMED_INSTANCES[args.instance]()
    result = simulate(
        instance, model(args.model), seed=args.seed, max_steps=args.max_steps
    )
    print(f"instance: {instance.name}   model: {args.model}   seed: {args.seed}")
    print(f"converged: {result.converged} after {result.steps} steps")
    from .core.paths import format_path

    for node in sorted(result.final_assignment, key=repr):
        print(f"  {node}: {format_path(result.final_assignment[node])}")
    return 0


def _cmd_explore(args) -> int:
    instance = ALL_NAMED_INSTANCES[args.instance]()
    result = can_oscillate(
        instance,
        model(args.model),
        config=_config_from_args(args).replace(
            queue_bound=args.queue_bound, step_bound=args.max_states
        ),
    )
    print(f"instance: {instance.name}   model: {args.model}")
    print(
        f"oscillates: {result.oscillates}   complete search: {result.complete}"
        f"   states: {result.states_explored}"
        f"   pruned: {result.states_pruned}"
    )
    if result.witness:
        print(
            f"witness: prefix of {len(result.witness.prefix)} steps, "
            f"cycle of period {result.witness.period()}"
        )
    return 0


def _cmd_trace_show(args) -> int:
    """``repro trace show <id> --telemetry FILE...`` / ``trace list``."""
    from .obs import tracing

    if not args.telemetry:
        print(
            "error: trace show/list needs --telemetry FILE [FILE ...]",
            file=sys.stderr,
        )
        return 2
    records: list = []
    try:
        for path in args.telemetry:
            records.extend(obs.read_records(path))
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.action == "list":
        traces = tracing.list_traces(records)
        if not traces:
            print("(no trace spans recorded)")
            return 0
        for trace_id, count in sorted(traces.items()):
            print(f"{trace_id}  {count} span(s)")
        return 0
    if not args.trace_id:
        print("error: trace show needs a trace ID (or prefix)", file=sys.stderr)
        return 2
    try:
        spans = tracing.collect_trace(records, args.trace_id)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not spans:
        print(f"(no spans for trace {args.trace_id!r})")
        return 1
    if args.json:
        print(tracing.dump_trace_json(spans))
    else:
        print(tracing.render_trace_tree(spans))
    return 0


def _cmd_trace(example: str) -> int:
    from .core import instances as canonical

    scripted = {
        "fig6": (canonical.fig6_gadget, experiments.FIG6_REO_SCHEDULE, "one-each"),
        "fig7": (canonical.fig7_gadget, experiments.FIG7_REO_SCHEDULE, "one-each"),
        "fig8": (canonical.fig8_gadget, experiments.FIG8_REA_SCHEDULE, "poll"),
        "fig9": (canonical.fig9_gadget, experiments.FIG9_REA_SCHEDULE, "poll"),
    }
    factory, schedule, kind = scripted[example]
    instance = factory()
    print(instance.describe())
    print()
    execution = Execution(instance)
    execution.run_nodes(schedule, kind=kind)
    print(format_trace_table(execution.trace))
    return 0


def _cmd_experiments(args) -> int:
    full = args.full
    workers = args.workers
    config = _config_from_args(args, workers=workers)
    if args.json:
        print(json.dumps(experiments.suite_as_dict(full=full, config=config), indent=2))
        return 0
    print("— E1/E2: Figures 3 and 4 —")
    print(experiments.experiment_figure3(config=config).summary)
    print(experiments.experiment_figure4(config=config).summary)
    print("\n— E3: DISAGREE (Ex. A.1) —")
    print(experiments.experiment_disagree(config=config).summary)
    print("\n— E4: Fig. 6 separation (Ex. A.2) —")
    polling = ("R1A", "RMA", "REA") if full else ("REA",)
    print(
        experiments.experiment_fig6(
            polling_models=polling, config=config
        ).summary
    )
    print("\n— E5/E6/E7: Figs. 7–9 (Ex. A.3–A.5) —")
    print(experiments.experiment_fig7().summary)
    print(experiments.experiment_fig8().summary)
    print(experiments.experiment_fig9().summary)
    print("\n— E8: multi-node activation (Ex. A.6) —")
    print(experiments.experiment_multinode().summary)
    from .engine.multinode import can_oscillate_multinode

    lockstep = can_oscillate_multinode(
        ALL_NAMED_INSTANCES["disagree"](), model("R1A"), queue_bound=2
    )
    staggered = can_oscillate_multinode(
        ALL_NAMED_INSTANCES["disagree"](),
        model("R1A"),
        queue_bound=2,
        require_solo_activations=True,
    )
    print(
        f"exhaustive: lockstep R1A oscillates={lockstep.oscillates}, "
        f"with solo-activation fairness={staggered.oscillates}"
    )
    print("\n— E11: dispute wheels —")
    print(experiments.experiment_dispute_wheels().summary)
    print("\n— E13: message overhead —")
    print(experiments.experiment_message_overhead().summary)
    print("\n— E10: convergence-rate survey —")
    print(
        experiments.experiment_convergence_rates(
            config=RunConfig(workers=workers)
        ).format_table()
    )
    return 0


def _cmd_serve(args) -> int:
    from .serve import ReproServer, ServeConfig, VerdictService

    cache_dir = (
        args.cache_dir
        or os.environ.get("REPRO_CACHE_DIR")
        or DEFAULT_CACHE_DIR
    )
    try:
        config = ServeConfig(
            cache_dir=cache_dir,
            host=args.host,
            port=args.port,
            engine=args.engine,
            workers=args.workers,
            compute_procs=args.compute_procs,
            queue_cap=args.queue_cap,
            deadline_s=args.deadline,
            retry_after_s=args.retry_after,
            response_cache_entries=args.response_cache,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    service = VerdictService(config)
    try:
        server = ReproServer(service)
    except OSError as error:
        service.close()
        print(f"error: cannot bind {args.host}:{args.port}: {error}", file=sys.stderr)
        return 1
    print(f"repro serve: listening on {server.url}", flush=True)
    print(
        f"repro serve: cache {cache_dir}  engine {args.engine}  "
        f"workers {args.workers}  queue-cap {args.queue_cap}",
        flush=True,
    )
    server.serve_forever()
    print("repro serve: drained", flush=True)
    return 0


def _cmd_query(args) -> int:
    import time as _time

    from .core.serialization import instance_from_json
    from .serve.client import ServeClient, ServerError, ServerShedding

    if args.instance_file:
        with open(args.instance_file) as handle:
            instance = instance_from_json(handle.read())
    else:
        instance = ALL_NAMED_INSTANCES[args.instance]()
    try:
        with ServeClient(args.url, timeout=args.timeout) as client:
            attempt = 0
            while True:
                try:
                    response = client.query(
                        instance,
                        args.models,
                        queue_bound=args.queue_bound,
                        max_states=args.max_states,
                        engine=args.engine,
                        reduction=args.reduction,
                    )
                    break
                except ServerShedding as shed:
                    if attempt >= args.retries:
                        print(f"error: {shed}", file=sys.stderr)
                        return 3
                    attempt += 1
                    _time.sleep(shed.retry_after or 1.0)
    except ServerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as error:
        print(f"error: cannot reach {args.url}: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(response.data, indent=2, sort_keys=True))
        return 0
    results = response.results(instance)
    print(
        f"instance: {instance.name}   canonical: "
        f"{response.canonical_hash[:12]}…   hot replay: {response.hot}"
    )
    if response.trace_id:
        print(f"trace: {response.trace_id}")
    for name in sorted(results):
        result = results[name]
        served = response.served.get(name, "?")
        print(
            f"  {name:<4} oscillates={str(result.oscillates):<5} "
            f"complete={str(result.complete):<5} "
            f"states={result.states_explored:<8} served={served}"
        )
    return 0


def _cmd_cache(args) -> int:
    cache = VerdictCache(
        args.cache_dir
        or os.environ.get("REPRO_CACHE_DIR")
        or DEFAULT_CACHE_DIR
    )
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache root: {stats['root']}")
        print(f"entries: {stats['entries']}   bytes: {stats['bytes']}")
        if getattr(args, "telemetry", None):
            aggregate = obs.aggregate_files([args.telemetry])
            counters = aggregate.counters
            print(
                "recorded: "
                f"hits: {counters.get('cache.hit', 0)}   "
                f"misses: {counters.get('cache.miss', 0)}   "
                f"writes: {counters.get('cache.write', 0)}   "
                f"evicted: {counters.get('cache.evicted', 0)}"
            )
        return 0
    removed = cache.clear()
    print(f"removed {removed} cached verdict(s) from {cache.root}")
    return 0


def _cmd_stats(args) -> int:
    aggregate = obs.aggregate_files(args.files)
    if args.json:
        print(json.dumps(aggregate.as_dict(), indent=2, sort_keys=True))
        return 0
    print(obs.render_phase_table(aggregate))
    if args.counters:
        print()
        print(obs.render_counters(aggregate))
    return 0


def _cmd_top(args) -> int:
    from .obs import dashboard

    url = args.url
    telemetry = tuple(args.telemetry or ())
    if url and telemetry:
        print(
            "error: --url and --telemetry are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if not url and not telemetry:
        url = "http://127.0.0.1:8351"
    iterations = 1 if args.once else args.iterations
    try:
        return dashboard.run_dashboard(
            url=url,
            telemetry_paths=telemetry,
            interval_s=args.interval,
            iterations=iterations,
        )
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_explain(realized_name: str, realizer_name: str) -> int:
    matrix = derive_matrix()
    lines = matrix.explain(model(realized_name), model(realizer_name))
    print("\n".join(lines))
    return 0


def _cmd_solve(instance_name: str) -> int:
    from .core.paths import format_path
    from .core.solutions import enumerate_stable_solutions, greedy_solve

    instance = ALL_NAMED_INSTANCES[instance_name]()
    solutions = list(enumerate_stable_solutions(instance))
    print(f"{instance.name}: {len(solutions)} stable solution(s)")
    for index, solution in enumerate(solutions, start=1):
        rendered = ", ".join(
            f"{node}={format_path(path)}"
            for node, path in sorted(solution.items(), key=lambda kv: repr(kv[0]))
        )
        print(f"  #{index}: {rendered}")
    greedy = greedy_solve(instance)
    print(f"greedy construction succeeds: {greedy is not None}")
    return 0


def _cmd_wheel(instance_name: str) -> int:
    from .core.dispute import find_dispute_wheel

    instance = ALL_NAMED_INSTANCES[instance_name]()
    wheel = find_dispute_wheel(instance)
    if wheel is None:
        print(f"{instance.name}: no dispute wheel (convergence guaranteed)")
    else:
        print(f"{instance.name}: {wheel.describe()}")
    return 0


def _cmd_sat(text: str) -> int:
    from .core.sat import dpll, parse_formula
    from .core.satgadgets import formula_to_spp, solution_from_assignment
    from .core.paths import format_path
    from .core.solutions import is_solution

    formula = parse_formula(text)
    instance = formula_to_spp(formula)
    print(
        f"formula {formula} → instance {instance.name} "
        f"({len(instance.nodes)} nodes, {len(instance.edges)} edges)"
    )
    model_ = dpll(formula)
    if model_ is None:
        print("UNSATISFIABLE — the network has no stable routing and")
        print("oscillates under every communication model.")
        return 0
    print(f"satisfying assignment: {model_}")
    solution = solution_from_assignment(formula, model_)
    assert is_solution(instance, solution)
    print("corresponding stable routing:")
    for node, path in sorted(solution.items()):
        print(f"  {node}: {format_path(path)}")
    return 0


def _campaign_for_args(args) -> Campaign:
    """Create or open the campaign directory named by ``args``."""
    if args.campaign_command == "run":
        spec = CampaignSpec.from_file(args.spec)
        directory = args.dir or os.path.join("campaigns", spec.name)
        return Campaign.create(directory, spec)
    return Campaign.open(args.dir)


def _campaign_execute(campaign: Campaign, args) -> int:
    """Run pending shards under the campaign's own telemetry stream."""
    path = None
    if not args.no_telemetry:
        path = args.telemetry or str(campaign.paths.telemetry_path)
    telemetry = obs.configure(
        path,
        run={"command": "campaign", "campaign": campaign.spec.name},
    )
    if args.progress:
        telemetry.add_listener(obs.ProgressReporter())
    try:
        executed = campaign.run(workers=args.workers, max_shards=args.max_shards)
    finally:
        obs.shutdown()
    status = campaign.status()
    print(
        f"campaign {status['name']}: ran {len(executed)} shard(s), "
        f"{status['shards_completed']}/{status['shards_total']} complete"
    )
    if status["shards_pending"]:
        print(
            f"{status['shards_pending']} shard(s) pending — resume with: "
            f"repro campaign resume {campaign.paths.directory}"
        )
        return 0
    print(f"report written to {campaign.paths.report_path}")
    print()
    print(render_report(campaign.report()))
    return 0


def _cmd_campaign_serve(args) -> int:
    """``repro campaign serve <dir>`` — the coordinator daemon."""
    from .campaign.coordinator import CampaignCoordinator

    campaign = Campaign.open(args.dir)
    path = None
    if not args.no_telemetry:
        path = args.telemetry or str(campaign.paths.telemetry_path)
    obs.configure(
        path,
        run={"command": "campaign-serve", "campaign": campaign.spec.name},
    )
    try:
        try:
            coordinator = CampaignCoordinator(
                campaign,
                host=args.host,
                port=args.port,
                lease_ttl=args.lease_ttl,
                quarantine_after=args.quarantine_after,
            )
        except OSError as error:
            print(
                f"error: cannot bind {args.host}:{args.port}: {error}",
                file=sys.stderr,
            )
            return 1
        status = campaign.status()
        print(
            f"repro campaign serve: {campaign.spec.name} on "
            f"{coordinator.url}  ({status['shards_pending']} of "
            f"{status['shards_total']} shard(s) pending, "
            f"lease TTL {args.lease_ttl:g}s)",
            flush=True,
        )
        print(f"repro campaign serve: trace {coordinator.trace.trace_id}", flush=True)
        coordinator.serve_forever(until_complete=args.until_complete)
        if coordinator.complete:
            print(
                f"repro campaign serve: campaign complete, report at "
                f"{campaign.paths.report_path}"
            )
    finally:
        obs.shutdown()
    return 0


def _cmd_campaign_join(args) -> int:
    """``repro campaign join <dir-or-url>`` — one worker loop."""
    from .campaign.queue import default_worker_id
    from .campaign.worker import JoinError, join

    worker = default_worker_id()
    path = None
    if not args.no_telemetry:
        path = args.telemetry
        if path is None and not args.target.startswith(("http://", "https://")):
            # Path joiners share the campaign's stream (append-only
            # JSONL; repro stats/trace merge records by host+pid).
            path = os.path.join(args.target, "telemetry.jsonl")
    obs.configure(path, run={"command": "campaign-join", "worker": worker})
    try:
        summary = join(
            args.target,
            workers=args.workers,
            lease_ttl=args.lease_ttl,
            max_shards=args.max_shards,
            cache_dir=args.cache_dir,
            worker_id=worker,
            retry_budget=args.retry_budget,
            quarantine_after=args.quarantine_after,
        )
    except JoinError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        obs.shutdown()
    print(
        f"repro campaign join: worker {summary['worker']} ran "
        f"{len(summary['shards'])} shard(s)"
        + (f", lost {summary['lost_leases']} lease(s)" if summary["lost_leases"] else "")
        + (
            f", {summary['failed_shards']} shard(s) failed"
            if summary.get("failed_shards")
            else ""
        )
        + ("; campaign complete" if summary["complete"] else "")
    )
    return 0


def _cmd_campaign(args) -> int:
    if args.campaign_command in ("serve", "join"):
        handler = (
            _cmd_campaign_serve
            if args.campaign_command == "serve"
            else _cmd_campaign_join
        )
        try:
            return handler(args)
        except (CampaignError, QueueError, FileNotFoundError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    try:
        campaign = _campaign_for_args(args)
        if args.campaign_command in ("run", "resume"):
            return _campaign_execute(campaign, args)
        if args.campaign_command == "status":
            status = campaign.status()
            if args.json:
                print(json.dumps(status, indent=2, sort_keys=True))
                return 0
            for key in (
                "name",
                "mode",
                "directory",
                "shards_completed",
                "shards_pending",
                "checkpoints_discarded",
                "tasks_completed",
                "tasks_total",
                "report_written",
            ):
                print(f"{key}: {status[key]}")
            if status.get("report_written") and status.get("mode") == "simulate":
                report = campaign.report()
                print("steps per model (p50/p95/p99):")
                for name, row in sorted(report["per_model"].items()):
                    p50 = row.get("p50_steps", row["p95_steps"])
                    p99 = row.get("p99_steps", row["p95_steps"])
                    print(
                        f"  {name:<5} {p50:3.0f} / "
                        f"{row['p95_steps']:3.0f} / {p99:3.0f}"
                    )
            return 0
        # A written partial report (quarantined shards) is authoritative:
        # recomputing would refuse on the pending-but-quarantined shards.
        from .campaign.manifest import read_json

        report = read_json(campaign.paths.report_path)
        if report is None or not report.get("partial"):
            report = campaign.report()
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(render_report(report))
        return 0
    except (CampaignError, FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _cmd_doctor(args) -> int:
    from .doctor import DoctorError, diagnose

    try:
        report = diagnose(args.path, repair=args.repair)
    except DoctorError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok() else 1


#: Commands that report into the telemetry sink while they run.
_TELEMETRY_COMMANDS = frozenset(
    {"matrix", "explore", "experiments", "serve", "query"}
)


def _setup_telemetry(args) -> bool:
    """Activate telemetry/progress for a search command, if requested."""
    if args.command not in _TELEMETRY_COMMANDS:
        return False
    path = _resolve_telemetry(args)
    progress = getattr(args, "progress", False)
    if path is None and not progress:
        if args.command == "serve":
            # The daemon always keeps in-memory telemetry so that
            # ``GET /metrics`` has live histograms even when nobody
            # asked for a JSONL sink.
            obs.configure(None, run={"command": "serve"})
            return True
        return False
    telemetry = obs.configure(path, run={"command": args.command})
    if progress:
        telemetry.add_listener(obs.ProgressReporter())
    return True


def _setup_faults(args) -> None:
    """Arm ``--fault-plan`` (or the environment's plan) process-wide.

    The plan path is also exported so spawned worker subprocesses —
    which call :func:`repro.faults.ensure_armed_from_env` on entry —
    replay the same plan.
    """
    plan_path = getattr(args, "fault_plan", None)
    if plan_path:
        faults.arm(faults.FaultPlan.from_file(plan_path))
        os.environ[faults.FAULT_PLAN_ENV_VAR] = os.path.abspath(plan_path)
    else:
        faults.ensure_armed_from_env()


def main(argv: "list | None" = None) -> int:
    args = build_parser().parse_args(argv)
    _setup_faults(args)
    if _setup_telemetry(args):
        try:
            return _dispatch(args)
        finally:
            obs.shutdown()
    return _dispatch(args)


def _dispatch(args) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "matrix":
        return _cmd_matrix(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "explore":
        return _cmd_explore(args)
    if args.command == "trace":
        if args.action:
            return _cmd_trace_show(args)
        return _cmd_trace(args.example)
    if args.command == "experiments":
        return _cmd_experiments(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "explain":
        return _cmd_explain(args.realized, args.realizer)
    if args.command == "solve":
        return _cmd_solve(args.instance)
    if args.command == "wheel":
        return _cmd_wheel(args.instance)
    if args.command == "sat":
        return _cmd_sat(args.formula)
    if args.command == "doctor":
        return _cmd_doctor(args)
    if args.command == "artifacts":
        from .analysis.artifacts import generate_artifacts

        written = generate_artifacts(args.out, full=args.full)
        for path in written:
            print(f"wrote {path}")
        return 0
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
