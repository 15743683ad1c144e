"""Process-parallel fan-out for explorations and simulation sweeps.

The matrix experiments multiply one bounded model-checking run across
24 communication models (and the random-instance surveys multiply fair
simulations across instance × model × seed grids).  Each unit of work
is deterministic — an exploration verdict depends only on its
``(instance, model, bounds)`` triple, a simulation only on its explicit
seed — so the fan-out here is parallel *and* reproducible:

* every task carries its own seed/bounds (no shared RNG, no ordering
  dependence between workers);
* results are merged **in task-submission order** (``Executor.map``),
  so downstream aggregation is independent of completion order;
* ``workers=1`` (or a single task) degrades to a plain in-process loop
  with no executor involved, which keeps the serial path exactly the
  code the parallel path runs per worker;
* tasks that run in the calling process share searches:
  :func:`run_explorations` runs each search at most once per call, so
  an unreliable model's reliable-twin pre-pass reuses the batch's own
  task for that reliable model (pool workers share nothing).

Tasks and results travel by pickle: :class:`~repro.core.spp.SPPInstance`,
:class:`~repro.engine.explorer.ExplorationResult`, and witnesses are
all plain picklable values.  Workers rebuild per-instance codec tables
lazily on first use (see :func:`repro.engine.codec.codec_for`), so
shipping an instance costs one table build per process, not per task.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from functools import partial

from ..config import DEFAULT_ENGINE, RunConfig, validate_engine
from ..core.spp import SPPInstance
from ..faults import ensure_armed_from_env, fault_point
from ..obs import active as _telemetry
from ..obs import tracing as _tracing
from .explorer import _shared_searches

__all__ = [
    "ExplorationTask",
    "SimulationTask",
    "TaskFailure",
    "WORKERS_ENV_VAR",
    "default_workers",
    "parallel_map",
    "parallel_map_retrying",
    "run_explorations",
    "run_simulations",
]

#: Environment override for :func:`default_workers` — CI runners and
#: campaign shards pin their fan-out width with it instead of patching
#: every call site.
WORKERS_ENV_VAR = "REPRO_WORKERS"


def default_workers() -> int:
    """Worker count when the caller does not choose.

    ``$REPRO_WORKERS`` (when set to a positive integer) wins; otherwise
    one worker per core.
    """
    override = os.environ.get(WORKERS_ENV_VAR)
    if override:
        try:
            workers = int(override)
        except ValueError:
            raise ValueError(
                f"${WORKERS_ENV_VAR} must be an integer, got {override!r}"
            ) from None
        return max(1, workers)
    return max(1, os.cpu_count() or 1)


def _timed_call(function, task) -> tuple:
    """Worker-side wrapper: run ``function(task)`` and report telemetry.

    Returns ``(result, (pid, started_wall, elapsed_seconds, deltas))``
    — the parent turns these into per-worker task counts, queue-wait,
    and idle-time telemetry, and merges ``deltas`` (the counter and
    span registry growth this call produced in the worker, present when
    the worker inherited an enabled telemetry across ``fork``) into its
    own registry so ``cache.*``/``explore.*`` totals survive the worker
    processes.  Module-level (and invoked through
    :func:`functools.partial` over a picklable ``function``) so it
    crosses the process boundary.
    """
    tel = _telemetry()
    before_counters = dict(tel.counters) if tel.enabled else {}
    before_timings = (
        {name: tuple(cell) for name, cell in tel.timings.items()}
        if tel.enabled
        else {}
    )
    started = time.time()
    t0 = time.perf_counter()
    result = function(task)
    elapsed = time.perf_counter() - t0
    deltas = None
    if tel.enabled:
        counters = {
            name: value - before_counters.get(name, 0)
            for name, value in tel.counters.items()
            if value != before_counters.get(name, 0)
        }
        timings = {}
        for name, (calls, total, peak) in tel.timings.items():
            calls_0, total_0, _ = before_timings.get(name, (0, 0.0, 0.0))
            if calls != calls_0:
                timings[name] = (calls - calls_0, total - total_0, peak)
        deltas = (counters, timings)
    return result, (os.getpid(), started, elapsed, deltas)


from contextlib import contextmanager


@contextmanager
def _exported_trace_environment():
    """Export the current trace context to ``$REPRO_TRACEPARENT`` while
    a pool is being populated, so *spawn*-mode workers (which inherit
    no memory, only the environment) can still parent their
    ``worker.run`` spans.  Fork-mode workers inherit the thread-local
    directly and tasks from the serving tier carry their own
    traceparent; this is the fallback for everything else.  Restores
    the previous value on exit.
    """
    context = _tracing.current()
    if context is None:
        yield
        return
    variable = _tracing.TRACEPARENT_ENV_VAR
    previous = os.environ.get(variable)
    os.environ[variable] = context.to_traceparent()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(variable, None)
        else:
            os.environ[variable] = previous


def parallel_map(function, tasks, workers: "int | None" = None) -> list:
    """Apply a picklable ``function`` to ``tasks`` across processes.

    Returns results in task order.  ``workers=None`` uses
    :func:`default_workers`; ``workers<=1`` (or fewer than two tasks)
    runs serially in-process.

    With telemetry enabled the fan-out additionally records, in the
    *parent* process, per-worker task counts plus ``worker.task`` /
    ``worker.queue_wait`` / ``worker.idle`` span timings — results are
    identical either way (workers report timing alongside their result;
    merging still follows task-submission order).
    """
    tasks = list(tasks)
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(tasks) <= 1:
        return [function(task) for task in tasks]
    tel = _telemetry()
    pool_size = min(workers, len(tasks))
    if not tel.enabled:
        with _exported_trace_environment():
            with ProcessPoolExecutor(max_workers=pool_size) as pool:
                return list(pool.map(function, tasks))
    return _instrumented_map(tel, function, tasks, pool_size)


def _instrumented_map(tel, function, tasks, pool_size: int) -> list:
    """The telemetry-recording twin of the executor branch."""
    timed = partial(_timed_call, function)
    pool_start = time.perf_counter()
    with _exported_trace_environment(), ProcessPoolExecutor(
        max_workers=pool_size
    ) as pool:
        submitted = []
        for task in tasks:
            submitted.append((pool.submit(timed, task), time.time()))
        results = []
        worker_index: dict = {}
        busy = 0.0
        for future, submit_wall in submitted:
            result, (pid, started_wall, elapsed, deltas) = future.result()
            results.append(result)
            index = worker_index.setdefault(pid, len(worker_index))
            tel.count(f"worker.w{index}.tasks")
            tel.timing("worker.task", elapsed)
            tel.timing(
                "worker.queue_wait", max(0.0, started_wall - submit_wall)
            )
            busy += elapsed
            if deltas is not None:
                counters, timings = deltas
                for name, value in counters.items():
                    tel.count(name, value)
                for name, (calls, total, peak) in timings.items():
                    cell = tel.timings.get(name)
                    if cell is None:
                        tel.timings[name] = [calls, total, peak]
                    else:
                        cell[0] += calls
                        cell[1] += total
                        if peak > cell[2]:
                            cell[2] = peak
    pool_elapsed = time.perf_counter() - pool_start
    tel.gauge("worker.count", len(worker_index))
    tel.timing("worker.pool", pool_elapsed)
    tel.timing("worker.idle", max(0.0, pool_elapsed * pool_size - busy))
    return results


class TaskFailure(RuntimeError):
    """A task exhausted its retry budget in :func:`parallel_map_retrying`."""

    def __init__(self, index: int, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"task {index} failed after {attempts} attempt(s): {cause!r}"
        )
        self.index = index
        self.attempts = attempts


def parallel_map_retrying(
    function,
    tasks,
    workers: "int | None" = None,
    retries: int = 2,
    backoff: float = 0.25,
    task_timeout: "float | None" = None,
) -> list:
    """:func:`parallel_map` hardened against worker crashes and hangs.

    Every task is retried up to ``retries`` extra times; between retry
    rounds the caller sleeps ``backoff * 2**round`` seconds
    (exponential backoff, capped at 30s).  A worker-process crash
    (``BrokenProcessPool``) poisons only that round — the pool is
    rebuilt and the unfinished tasks re-run.  With ``task_timeout`` set,
    a task that has not produced a result that many seconds after its
    round started is treated as hung: the pool's workers are terminated
    and the task is retried.  Raises :class:`TaskFailure` once a task
    exhausts its budget.

    Safe for deterministic workloads: every task is a pure function of
    its payload, so a retried task returns exactly the result its first
    attempt would have, and results are merged in task order — the
    output is bit-identical to :func:`parallel_map` on the same tasks.
    Retries are visible as the ``parallel.task.retry`` telemetry
    counter.
    """
    tasks = list(tasks)
    if workers is None:
        workers = default_workers()
    results: list = [None] * len(tasks)
    pending = list(range(len(tasks)))
    serial = workers <= 1 or len(tasks) <= 1
    tel = _telemetry()
    for attempt in range(retries + 1):
        if not pending:
            break
        if attempt:
            time.sleep(min(backoff * (2 ** (attempt - 1)), 30.0))
            tel.count("parallel.task.retry", len(pending))
        if serial:
            failures = _retry_round_serial(function, tasks, pending, results)
        else:
            failures = _retry_round_pooled(
                function, tasks, pending, results, workers, task_timeout
            )
        if failures and attempt == retries:
            index, cause = failures[0]
            raise TaskFailure(index, attempt + 1, cause) from cause
        pending = [index for index, _ in failures]
    return results


def _retry_round_serial(function, tasks, pending, results) -> list:
    """One in-process attempt over ``pending``; returns the failures."""
    failures = []
    for index in pending:
        try:
            results[index] = function(tasks[index])
        except Exception as error:
            failures.append((index, error))
    return failures


def _retry_round_pooled(
    function, tasks, pending, results, workers, task_timeout
) -> list:
    """One pooled attempt over ``pending``; returns the failures.

    Futures are drained in submission order.  On a timeout the pool's
    worker processes are terminated outright — a hung worker would
    otherwise block the executor's shutdown forever — which makes the
    pool unusable, so every task still outstanding fails over to the
    next round alongside the hung one.
    """
    failures = []
    pool_size = min(workers, len(pending))
    pool = ProcessPoolExecutor(max_workers=pool_size)
    killed = False
    try:
        futures = [
            (index, pool.submit(function, tasks[index])) for index in pending
        ]
        for index, future in futures:
            try:
                results[index] = future.result(timeout=task_timeout)
            except Exception as error:
                failures.append((index, error))
                if isinstance(error, _FuturesTimeout) and not killed:
                    killed = True
                    future.cancel()
                    for process in getattr(pool, "_processes", {}).values():
                        process.terminate()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return failures


# ----------------------------------------------------------------------
# Exploration fan-out
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExplorationTask:
    """One ``can_oscillate`` unit: an (instance, model) cell of a matrix."""

    instance: SPPInstance
    model_name: str
    key: tuple = ()
    queue_bound: int = 3
    max_states: int = 200_000
    reliable_twin_first: bool = True
    engine: str = DEFAULT_ENGINE
    reduction: str = "ample"
    #: Directory of a shared :class:`repro.engine.cache.VerdictCache`
    #: (``None`` disables caching).  Safe across workers: entries are
    #: write-once and written via atomic renames, so racing processes
    #: only ever duplicate work, never corrupt the store.
    cache_dir: "str | None" = None
    #: W3C traceparent linking this task's ``worker.run`` span to the
    #: submitting request's trace (``None`` = untraced).  Purely
    #: observational — no verdict depends on it, and it is excluded
    #: from the task's identity-bearing fields by never entering
    #: :meth:`resolved_key` or the cache key.
    traceparent: "str | None" = None

    def __post_init__(self) -> None:
        validate_engine(self.engine)

    def resolved_key(self) -> tuple:
        return self.key or (self.instance.name, self.model_name)

    @classmethod
    def from_config(
        cls,
        instance: SPPInstance,
        model_name: str,
        config: RunConfig,
        key: tuple = (),
        reliable_twin_first: bool = True,
    ) -> "ExplorationTask":
        """Build a task whose bounds/engine knobs come from ``config``.

        ``config.cache``/``cache_dir`` collapse to the task's
        ``cache_dir`` (tasks cross process boundaries, so only the
        directory path travels, never a live cache object).
        """
        cache = config.resolved_cache()
        if cache is True:
            from .cache import DEFAULT_CACHE_DIR

            cache = DEFAULT_CACHE_DIR
        elif cache is not None and not isinstance(cache, (str, os.PathLike)):
            cache = str(cache.root)
        return cls(
            instance=instance,
            model_name=model_name,
            key=key,
            queue_bound=config.queue_bound,
            max_states=config.max_states,
            reliable_twin_first=reliable_twin_first,
            engine=config.engine,
            reduction=config.reduction,
            cache_dir=None if cache is None else str(cache),
        )

    def run_config(self) -> RunConfig:
        """This task's knobs as the :class:`RunConfig` it round-trips to."""
        return RunConfig(
            engine=self.engine,
            reduction=self.reduction,
            cache_dir=self.cache_dir,
            queue_bound=self.queue_bound,
            step_bound=self.max_states,
        )


def _explore_one(task: ExplorationTask):
    from ..models.taxonomy import model
    from .cache import shared_cache
    from .explorer import can_oscillate

    # Chaos harness: pick up $REPRO_FAULT_PLAN in spawn-mode workers
    # (forked workers inherit the armed state directly) and expose this
    # task to worker-level faults (crash, stall).
    ensure_armed_from_env()
    fault_point("worker.run", task)
    # Parent resolution order: the task payload (the serving tier
    # stamps its serve.compute span on every task), then the calling
    # thread (serial in-process fan-out), then the spawn environment
    # (workers started with $REPRO_TRACEPARENT exported).
    parent = (
        _tracing.TraceContext.from_traceparent(task.traceparent)
        or _tracing.current()
        or _tracing.from_environment()
    )
    with _tracing.trace_span("worker.run", parent=parent, timing=True) as span:
        span.note(instance=task.instance.name, model=task.model_name)
        config = task.run_config()
        if task.cache_dir is not None:
            # One cache object (and thus one in-memory hot tier) per
            # directory per process: in-process fan-out and thread-based
            # callers (the serving tier) share verified payloads instead
            # of re-reading them into private memos.
            config = config.replace(cache=shared_cache(task.cache_dir))
        return can_oscillate(
            task.instance,
            model(task.model_name),
            reliable_twin_first=task.reliable_twin_first,
            config=config,
        )


def run_explorations(tasks, *, config: "RunConfig | None" = None) -> list:
    """Run exploration tasks across workers; ordered ``(key, result)``s.

    ``config.workers`` sets the fan-out width (``None``, also without a
    config, = one per core).  Verdicts are identical for every worker
    count: each exploration is a deterministic function of its task,
    and merging follows task order.  Within the call, tasks run in this
    process search each ``(instance, model, bounds)`` once.
    """
    tasks = list(tasks)
    workers = None if config is None else config.workers
    with _shared_searches():
        results = parallel_map(_explore_one, tasks, workers=workers)
    return [
        (task.resolved_key(), result)
        for task, result in zip(tasks, results)
    ]


# ----------------------------------------------------------------------
# Simulation fan-out
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimulationTask:
    """A batch of seeded fair simulations of one (instance, model) pair."""

    instance: SPPInstance
    model_name: str
    seeds: tuple = (0,)
    max_steps: int = 600
    drop_prob: float = 0.2
    key: tuple = ()

    def resolved_key(self) -> tuple:
        return self.key or (self.instance.name, self.model_name)

    @classmethod
    def from_config(
        cls,
        instance: SPPInstance,
        model_name: str,
        config: RunConfig,
        seeds: tuple = (0,),
        drop_prob: float = 0.2,
        key: tuple = (),
    ) -> "SimulationTask":
        """Build a batch whose step budget comes from ``config``."""
        return cls(
            instance=instance,
            model_name=model_name,
            seeds=tuple(seeds),
            max_steps=config.max_steps,
            drop_prob=drop_prob,
            key=key,
        )


def _simulate_batch(task: SimulationTask) -> tuple:
    from ..engine.convergence import simulate
    from ..engine.schedulers import RandomScheduler
    from ..models.taxonomy import model as model_by_name

    ensure_armed_from_env()
    fault_point("worker.run", task)
    model = model_by_name(task.model_name)
    outcomes = []
    for seed in task.seeds:
        scheduler = RandomScheduler(
            task.instance, model, seed=seed, drop_prob=task.drop_prob
        )
        result = simulate(
            task.instance,
            model,
            scheduler=scheduler,
            max_steps=task.max_steps,
        )
        outcomes.append((result.converged, result.steps))
    return tuple(outcomes)


def run_simulations(tasks, *, config: "RunConfig | None" = None) -> list:
    """Run simulation batches across workers; ordered ``(key, outcomes)``.

    Each outcome is a ``(converged, steps)`` tuple per seed, in seed
    order — deterministic because every batch owns its explicit seeds.
    ``config.workers`` sets the fan-out width (``None`` = one per core).
    """
    tasks = list(tasks)
    workers = None if config is None else config.workers
    results = parallel_map(_simulate_batch, tasks, workers=workers)
    return [
        (task.resolved_key(), outcomes)
        for task, outcomes in zip(tasks, results)
    ]
