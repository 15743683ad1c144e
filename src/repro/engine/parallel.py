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
* ``workers=1`` (or a single work item) degrades to a plain in-process
  loop with no executor involved, which keeps the serial path exactly
  the code the parallel path runs per worker;
* the instance is the unit of work: the tasks of one instance object
  travel to a worker as one item, with one store read, one search memo
  (so each model is searched at most once per call at every worker
  count, DESIGN.md §7.4), one word layout (DESIGN.md §6.4) and one
  store write.

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
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

from ..config import DEFAULT_ENGINE, RunConfig, validate_engine
from ..core.spp import SPPInstance
from ..faults import ensure_armed_from_env, fault_point
from ..models.taxonomy import model as _model
from ..obs import active as _telemetry
from ..obs import tracing as _tracing
from .explorer import _certify

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

    Returns ``(result, (pid, started_wall, elapsed_seconds, growth))``
    — the parent turns these into per-worker task counts, queue-wait,
    and idle-time telemetry, and merges ``growth`` (the registry growth
    this call produced in the worker, see
    :meth:`~repro.obs.telemetry.Telemetry.growth_since`; present when
    the worker inherited an enabled telemetry across ``fork``) into its
    own registry so ``cache.*``/``explore.*`` totals and histograms
    survive the worker processes.  Module-level (and invoked through
    :func:`functools.partial` over a picklable ``function``) so it
    crosses the process boundary.
    """
    tel = _telemetry()
    mark = tel.mark() if tel.enabled else None
    started = time.time()
    t0 = time.perf_counter()
    result = function(task)
    elapsed = time.perf_counter() - t0
    growth = tel.growth_since(mark) if tel.enabled else None
    return result, (os.getpid(), started, elapsed, growth)


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
    runs serially in-process.  The first failing task (in task order)
    raises its exception; tasks not yet started are cancelled.
    """
    tasks = list(tasks)
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(tasks) <= 1:
        return [function(task) for task in tasks]
    return _pooled(function, tasks, workers)


def _pooled(function, tasks, workers: int, failures=None, task_timeout=None) -> list:
    """The one pooled path: ``function`` over ``tasks`` in a fresh pool.

    Returns results in task order.  Every item runs through
    :func:`_timed_call` with the trace context exported
    (:func:`_exported_trace_environment`).  With telemetry live the
    parent records per-worker task counts and the ``worker.task`` /
    ``worker.queue_wait`` / ``worker.pool`` / ``worker.idle`` timings,
    and merges the workers' registry growth, so ``cache.*`` and
    ``explore.*`` totals and histograms survive the worker processes.

    A failed item raises, unless ``failures`` is a list: then
    ``(position, error)`` is appended and its result slot stays
    ``None``.  An item without a result ``task_timeout`` seconds into
    the wait is treated as hung: the pool's worker processes are
    terminated outright (a hung worker would otherwise block the
    executor's shutdown forever), so every item still outstanding
    fails alongside it.
    """
    tel = _telemetry()
    pool_size = min(workers, len(tasks))
    timed = partial(_timed_call, function)
    results: list = [None] * len(tasks)
    worker_index: dict = {}
    busy = 0.0
    killed = False
    pool_start = time.perf_counter()
    with _exported_trace_environment():
        pool = ProcessPoolExecutor(max_workers=pool_size)
        try:
            submitted = [(pool.submit(timed, task), time.time()) for task in tasks]
            for position, (future, submit_wall) in enumerate(submitted):
                try:
                    result, (pid, started_wall, elapsed, growth) = future.result(
                        timeout=task_timeout
                    )
                except Exception as error:
                    if failures is None:
                        raise
                    failures.append((position, error))
                    if isinstance(error, _FuturesTimeout) and not killed:
                        killed = True
                        future.cancel()
                        for process in getattr(pool, "_processes", {}).values():
                            process.terminate()
                    continue
                results[position] = result
                if not tel.enabled:
                    continue
                index = worker_index.setdefault(pid, len(worker_index))
                tel.count(f"worker.w{index}.tasks")
                tel.timing("worker.task", elapsed)
                tel.timing("worker.queue_wait", max(0.0, started_wall - submit_wall))
                busy += elapsed
                if growth is not None:
                    tel.merge(growth)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    if tel.enabled:
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
        round_tasks = [tasks[index] for index in pending]
        failures: list = []
        if serial:
            outcomes = _serial_round(function, round_tasks, failures)
        else:
            outcomes = _pooled(
                function, round_tasks, workers,
                failures=failures, task_timeout=task_timeout,
            )
        for index, result in zip(pending, outcomes):
            results[index] = result
        if failures and attempt == retries:
            position, cause = failures[0]
            raise TaskFailure(pending[position], attempt + 1, cause) from cause
        pending = [pending[position] for position, _ in failures]
    return results


def _serial_round(function, tasks, failures: list) -> list:
    """The in-process twin of :func:`_pooled` for one retry round."""
    results: list = [None] * len(tasks)
    for position, task in enumerate(tasks):
        try:
            results[position] = function(task)
        except Exception as error:
            failures.append((position, error))
    return results


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
    #: (``None`` disables caching).  Safe across workers: rows are
    #: write-once (``INSERT OR IGNORE``) with one text per key, so
    #: racing processes only ever duplicate work.
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


@contextmanager
def _task_run(task: ExplorationTask):
    """One task's ``worker.run`` fault site and span."""
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
    with _tracing.trace_span("worker.run", parent=parent) as span:
        span.note(instance=task.instance.name, model=task.model_name)
        yield


def _explore_together(tasks) -> list:
    """Answer the tasks of one instance object in this process
    (:func:`repro.engine.explorer._certify`), each task under its own
    ``worker.run`` span and fault site."""
    # Chaos harness: pick up $REPRO_FAULT_PLAN in spawn-mode workers
    # (forked workers inherit the armed state directly).
    ensure_armed_from_env()
    requests = [
        (_model(task.model_name), task.reliable_twin_first, task.run_config())
        for task in tasks
    ]
    return _certify(
        tasks[0].instance, requests, around=lambda index: _task_run(tasks[index])
    )


def _explore_grouped(fan_out, tasks) -> list:
    """:func:`_explore_together` over ``tasks`` through ``fan_out``, in
    task order.

    ``fan_out(function, items)`` is :func:`parallel_map` or
    :func:`parallel_map_retrying` with its worker settings bound.  The
    tasks of one instance object form one item, so a pool never has
    more processes than the call has instances, and no twin lookup
    (DESIGN.md §7.4) crosses items.
    """
    groups: dict = {}
    for index, task in enumerate(tasks):
        groups.setdefault(id(task.instance), []).append(index)
    members = list(groups.values())
    batches = fan_out(
        _explore_together, [[tasks[index] for index in group] for group in members]
    )
    results: list = [None] * len(tasks)
    for group, batch in zip(members, batches):
        for index, result in zip(group, batch):
            results[index] = result
    return results


def run_explorations(tasks, *, config: "RunConfig | None" = None) -> list:
    """Run exploration tasks across workers; ordered ``(key, result)``s.

    ``config.workers`` sets the fan-out width (``None``, also without a
    config, = one per core).  Verdicts are identical for every worker
    count: each exploration is a deterministic function of its task,
    and merging follows task order.  The instance is the unit of work
    (:func:`_explore_grouped`): within the call each ``(instance, model,
    bounds)`` is searched at most once, whichever worker runs it, and
    each instance's verdicts take one store read and one store write.
    """
    tasks = list(tasks)
    workers = None if config is None else config.workers
    results = _explore_grouped(partial(parallel_map, workers=workers), tasks)
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
