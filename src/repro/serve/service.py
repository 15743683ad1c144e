"""The serving tier: two-tier cache, singleflight, micro-batching,
admission control.

:class:`VerdictService` is transport-agnostic — `server.py` wires it to
HTTP, and tests drive :meth:`VerdictService.handle_query` directly with
raw request bytes.  One request flows through:

1. **Response hot tier** — an LRU of complete response bodies keyed by
   the sha256 of the raw request bytes.  A repeat of a byte-identical
   query returns without parsing anything (this is what makes the p50
   hot-hit < 1 ms: no JSON decode, no canonical hash, no disk).
2. **Verdict lookup** — per requested model, the content-addressed
   :func:`~repro.engine.cache.verdict_key` is probed through the
   :class:`~repro.engine.cache.VerdictCache` payload memo and then the
   checksummed disk store (:meth:`VerdictCache.get_payload`).
3. **Singleflight** — each still-missing key either *joins* an
   in-flight computation (another request is already producing it) or
   *owns* a new one.  Owners never hold a lock while computing; joiners
   block on an event with the request deadline.  A failed computation
   resolves its waiters with the error — they never hang.
4. **Micro-batching** — owned keys for the same
   ``(instance, bounds, engine, reduction)`` group merge into one batch
   while that batch is still queued; a worker turns a batch into one
   ``run_explorations`` call over a *shared instance object*, so codec
   and reduction tables are built once per instance, not per model.
5. **Admission control** — the batch queue is bounded
   (``queue_cap``); a full queue sheds the request with
   :class:`Shed` (HTTP 429 + Retry-After) after failing its own
   in-flight registrations so joiners elsewhere are not stranded.

Fault points: ``serve.request`` fires at request admission,
``serve.compute`` at batch execution (a raise here exercises the
leader-dies path), ``serve.shed`` on queue overflow.
"""

from __future__ import annotations

import hashlib
import json
import queue as queue_module
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..config import DEFAULT_ENGINE, RunConfig, validate_engine
from ..core.canonical import canonical_hash
from ..engine.cache import result_to_payload, shared_cache, verdict_key
from ..engine.parallel import ExplorationTask, run_explorations
from ..faults import fault_point
from ..obs import active as _telemetry
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from .protocol import PROTOCOL_VERSION, QueryRequest, parse_query

__all__ = [
    "ComputeFailed",
    "DeadlineExceeded",
    "Draining",
    "ServeConfig",
    "ServeError",
    "Shed",
    "VerdictService",
]


class ServeError(Exception):
    """Base of the service's request-rejection hierarchy."""

    status = 500


class Shed(ServeError):
    """Admission control rejected the request (queue full)."""

    status = 429

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"compute queue is full; retry after {retry_after:g}s"
        )
        self.retry_after = retry_after


class Draining(ServeError):
    """The server is shutting down and not admitting new work."""

    status = 503

    def __init__(self, retry_after: float) -> None:
        super().__init__("server is draining")
        self.retry_after = retry_after


class DeadlineExceeded(ServeError):
    """The request's deadline elapsed before its verdicts resolved."""

    status = 504

    def __init__(self, deadline_s: float) -> None:
        super().__init__(f"deadline of {deadline_s:g}s exceeded")


class ComputeFailed(ServeError):
    """The computation this request waited on raised."""

    status = 500

    def __init__(self, cause: BaseException) -> None:
        super().__init__(f"verdict computation failed: {cause!r}")
        self.cause = cause


@dataclass(frozen=True)
class ServeConfig:
    """Deployment knobs for one :class:`VerdictService`.

    ``workers`` is the number of serving worker *threads* draining the
    batch queue; ``compute_procs`` is the process fan-out *inside* one
    batch (1 keeps batches in-process, which is what lets a batch share
    one instance object and build reduction tables once — raise it only
    for huge per-batch workloads).
    """

    cache_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    engine: str = DEFAULT_ENGINE
    workers: int = 2
    compute_procs: int = 1
    queue_cap: int = 64
    deadline_s: float = 30.0
    retry_after_s: float = 1.0
    response_cache_entries: int = 256

    def __post_init__(self) -> None:
        if not self.cache_dir:
            raise ValueError("cache_dir is required")
        validate_engine(self.engine)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.compute_procs < 1:
            raise ValueError("compute_procs must be at least 1")
        # queue.Queue treats maxsize<=0 as unbounded, which would turn
        # admission control off silently — reject it here instead.
        if self.queue_cap < 1:
            raise ValueError("queue_cap must be at least 1")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.retry_after_s <= 0:
            raise ValueError("retry_after_s must be positive")
        if self.response_cache_entries < 0:
            raise ValueError("response_cache_entries must be non-negative")


class _InFlight:
    """One in-progress verdict computation; waiters block on ``event``.

    ``leader_span`` is the owning request's span ID at registration
    time (``None`` when the owner was untraced): a joiner's
    ``serve.wait`` span records it, which is how ``repro trace show``
    names the singleflight leader a request waited on.
    """

    __slots__ = ("event", "payload", "error", "leader_span")

    def __init__(self, leader_span: "str | None" = None) -> None:
        self.event = threading.Event()
        self.payload = None
        self.error: "BaseException | None" = None
        self.leader_span = leader_span


@dataclass
class _Batch:
    """Cold misses for one (instance, bounds, engine, reduction) group.

    ``jobs`` maps verdict key -> model name; new jobs merge in only
    while ``started`` is false (i.e. while the batch is still queued).
    ``instance`` is the first owner's instance object, shared by every
    job so per-instance memoized tables are built once.
    """

    group: tuple
    request: QueryRequest
    jobs: "OrderedDict[str, str]" = field(default_factory=OrderedDict)
    started: bool = False
    #: The creating request's trace context — the worker thread parents
    #: its ``serve.compute`` span on it, crossing the queue boundary.
    trace: "_tracing.TraceContext | None" = None


_COUNTERS = (
    "requests",
    "hot_hits",
    "mem_hits",
    "disk_hits",
    "computed",
    "joined",
    "inflight_joins",
    "batches",
    "batch_joins",
    "shed",
    "errors",
)


#: The counter each ``served`` tier is tallied under.
_TIER_COUNTERS = {
    "memory": "mem_hits",
    "disk": "disk_hits",
    "computed": "computed",
    "joined": "joined",
}


class VerdictService:
    """The verdict-serving engine behind ``repro serve``."""

    def __init__(self, config: ServeConfig, *, start_workers: bool = True) -> None:
        self.config = config
        self.cache = shared_cache(config.cache_dir)
        self._lock = threading.Lock()
        self._inflight: "dict[str, _InFlight]" = {}
        self._pending: "dict[tuple, _Batch]" = {}
        self._queue: "queue_module.Queue[_Batch]" = queue_module.Queue(
            maxsize=config.queue_cap
        )
        self._responses: "OrderedDict[str, bytes]" = OrderedDict()
        self._draining = False
        self._stopping = False
        self._threads: list = []
        self.counters = {name: 0 for name in _COUNTERS}
        if start_workers:
            self.start()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Start the batch-queue worker threads (idempotent)."""
        if self._threads:
            return
        for index in range(self.config.workers):
            # Daemon so an abandoned service never blocks interpreter
            # exit; graceful shutdown still joins via close()/drain().
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"verdict-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def drain(self) -> None:
        """Stop admitting queries; queued/in-flight batches still finish."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    def close(self) -> None:
        """Drain and stop: workers finish every queued batch, then exit."""
        self.drain()
        self._stopping = True
        for thread in self._threads:
            thread.join()
        self._threads.clear()

    # -- bookkeeping ----------------------------------------------------
    def _count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] += value
        _telemetry().count(f"serve.{name}", value)

    def statz(self) -> dict:
        """Live counters for ``/statz`` (service + cache + queue state)."""
        with self._lock:
            counters = dict(self.counters)
            inflight = len(self._inflight)
            pending = len(self._pending)
            responses = len(self._responses)
        return {
            "v": PROTOCOL_VERSION,
            "protocol": PROTOCOL_VERSION,
            "serve": counters,
            "queue_depth": self._queue.qsize(),
            "queue_cap": self.config.queue_cap,
            "inflight": inflight,
            "pending_batches": pending,
            "response_cache": responses,
            "draining": self._draining,
            "cache": self.cache.stats(),
        }

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body (Prometheus text exposition).

        Counters merge the live telemetry registry (cache, explore, and
        worker counters) with the service's own — the service values
        win for ``serve.*`` since they are authoritative even when
        telemetry is disabled.  Latency histograms come from the
        process-wide metrics registry that span timings feed.
        """
        tel = _telemetry()
        counters = dict(getattr(tel, "counters", None) or {})
        gauges = dict(getattr(tel, "gauges", None) or {})
        with self._lock:
            for name, value in self.counters.items():
                counters[f"serve.{name}"] = value
            gauges["serve.inflight"] = len(self._inflight)
            gauges["serve.pending_batches"] = len(self._pending)
            gauges["serve.response_cache"] = len(self._responses)
            gauges["serve.draining"] = self._draining
        gauges["serve.queue_depth"] = self._queue.qsize()
        gauges["serve.queue_cap"] = self.config.queue_cap
        registry = getattr(tel, "metrics", None) or _metrics.registry()
        return _metrics.render_prometheus(
            metrics=registry, counters=counters, gauges=gauges
        )

    # -- request path ---------------------------------------------------
    def handle_query(
        self, raw: bytes, *, deadline_s: "float | None" = None
    ) -> "tuple[bytes, bool]":
        """Answer one raw ``/v1/query`` body.

        Returns ``(response_bytes, hot)`` where ``hot`` marks a
        response-tier replay.  Raises :class:`ProtocolError` or a
        :class:`ServeError` subclass on rejection.  ``deadline_s``, if
        given (the ``X-Repro-Deadline`` header), clamps this request's
        deadline below the configured one.
        """
        tel = _telemetry()
        # trace_span(timing=True) keeps the serve.request wall-time
        # accounting the flat span gave us, and additionally emits the
        # request's span record under the caller's trace (the HTTP
        # layer installs the client's traceparent as the current
        # context before calling in).
        with _tracing.trace_span("serve.request", timing=True) as req_span:
            self._count("requests")
            fault_point("serve.request", None)
            if self._draining:
                raise Draining(self.config.retry_after_s)
            body_key = hashlib.sha256(raw).hexdigest()
            with self._lock:
                cached = self._responses.get(body_key)
                if cached is not None:
                    self._responses.move_to_end(body_key)
            if cached is not None:
                self._count("hot_hits")
                req_span.note(hot=True)
                return cached, True
            request = parse_query(raw, default_engine=self.config.engine)
            req_span.note(instance=request.instance.name, models=len(request.models))
            response = self._resolve(request, tel, deadline_s=deadline_s)
            body = json.dumps(
                response, separators=(",", ":"), sort_keys=True, allow_nan=False
            )
            encoded = body.encode("utf-8")
            if self.config.response_cache_entries:
                with self._lock:
                    self._responses[body_key] = encoded
                    self._responses.move_to_end(body_key)
                    while len(self._responses) > self.config.response_cache_entries:
                        self._responses.popitem(last=False)
            return encoded, False

    def _resolve(
        self, request: QueryRequest, tel, *, deadline_s: "float | None" = None
    ) -> dict:
        canonical = canonical_hash(request.instance)
        budget = self.config.deadline_s
        if deadline_s is not None:
            budget = min(budget, deadline_s)
        deadline = time.monotonic() + budget
        keys = {
            model_name: verdict_key(
                request.instance,
                model_name,
                queue_bound=request.queue_bound,
                max_states=request.max_states,
                reliable_twin_first=request.reliable_twin_first,
                reduction=request.reduction,
            )
            for model_name in request.models
        }
        results: dict = {}
        served: dict = {}
        missing: dict = {}
        with _tracing.trace_span("serve.lookup", timing=True) as lookup_span:
            for model_name, key in keys.items():
                payload, tier = self.cache.get_payload(key)
                if payload is not None:
                    results[model_name] = payload
                    served[model_name] = tier
                else:
                    missing[model_name] = key
            lookup_span.note(hits=len(served), misses=len(missing))
        if missing:
            owned, joined = self._register(request, canonical, missing, results, served)
            with _tracing.trace_span("serve.wait", timing=True) as wait_span:
                leaders = sorted(
                    {e.leader_span for e in joined.values() if e.leader_span}
                )
                if leaders:
                    # Which singleflight leader(s) this request's
                    # joined keys are waiting on — the cross-request
                    # edge the span tree cannot express as a parent
                    # link (the leader belongs to another trace).
                    wait_span.note(waited_on=",".join(leaders))
                wait_span.note(owned=len(owned), joined=len(joined))
                self._await(owned, joined, results, served, deadline, budget)
        # Every tier is tallied once, here, from what was served: a key
        # that missed the lookup may still be answered from the memo at
        # registration, which no earlier count would see.
        for tier, counter in _TIER_COUNTERS.items():
            count = sum(1 for value in served.values() if value == tier)
            if count:
                self._count(counter, count)
        return {
            "v": PROTOCOL_VERSION,
            "protocol": PROTOCOL_VERSION,
            "instance": request.instance.name,
            "canonical_hash": canonical,
            "results": results,
            "served": served,
        }

    def _register(
        self, request: QueryRequest, canonical: str, missing: dict, results: dict, served: dict
    ) -> "tuple[dict, dict]":
        """Singleflight admission for this request's cold keys.

        Returns ``(owned, joined)`` — both map model name to the
        :class:`_InFlight` entry to wait on.  Owned keys have been
        merged into a pending batch or submitted as a new one; a full
        queue fails the owned entries (so their joiners see the error)
        and raises :class:`Shed`.
        """
        owned: dict = {}
        joined: dict = {}
        batch_joins = 0
        new_batch = None
        group = request.group_key(canonical)
        trace_context = _tracing.current()
        leader_span = trace_context.span_id if trace_context else None
        with self._lock:
            for model_name, key in missing.items():
                entry = self._inflight.get(key)
                if entry is not None:
                    joined[model_name] = entry
                    continue
                # Close the lookup/registration race: the computation
                # we would have joined may have finished (and warmed
                # the memo) between our cache probe and here.
                payload = self.cache.peek_memo(key)
                if payload is not None:
                    results[model_name] = payload
                    served[model_name] = "memory"
                    continue
                entry = _InFlight(leader_span=leader_span)
                self._inflight[key] = entry
                owned[model_name] = entry
                batch = self._pending.get(group)
                if batch is not None and not batch.started:
                    batch.jobs[key] = model_name
                    batch_joins += 1
                    continue
                if new_batch is None:
                    new_batch = _Batch(
                        group=group, request=request, trace=trace_context
                    )
                    self._pending[group] = new_batch
                new_batch.jobs[key] = model_name
        # Counted after the lock is released: _count takes it itself.
        if joined:
            self._count("inflight_joins", len(joined))
        if batch_joins:
            self._count("batch_joins", batch_joins)
        if new_batch is not None:
            self._submit(new_batch, owned)
        return owned, joined

    def _submit(self, batch: _Batch, owned: dict) -> None:
        try:
            self._queue.put_nowait(batch)
        except queue_module.Full:
            shed = Shed(self.config.retry_after_s)
            with self._lock:
                self._pending.pop(batch.group, None)
            self._fail_jobs(batch.jobs, shed)
            self._count("shed")
            fault_point("serve.shed", batch.group)
            raise shed
        self._count("batches")

    def _await(
        self,
        owned: dict,
        joined: dict,
        results: dict,
        served: dict,
        deadline: float,
        budget: float,
    ) -> None:
        for tier, waiting in (("computed", owned), ("joined", joined)):
            for model_name, entry in waiting.items():
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not entry.event.wait(remaining):
                    self._count("errors")
                    raise DeadlineExceeded(budget)
                if entry.error is not None:
                    self._count("errors")
                    if isinstance(entry.error, ServeError):
                        raise entry.error
                    raise ComputeFailed(entry.error)
                results[model_name] = entry.payload
                served[model_name] = tier

    # -- compute path ---------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            try:
                batch = self._queue.get(timeout=0.1)
            except queue_module.Empty:
                if self._stopping:
                    return
                continue
            with self._lock:
                batch.started = True
                if self._pending.get(batch.group) is batch:
                    del self._pending[batch.group]
            try:
                fault_point("serve.compute", batch.group)
                self._compute(batch)
            except BaseException as exc:  # waiters must never hang
                self._fail_jobs(batch.jobs, exc)

    def _compute(self, batch: _Batch) -> None:
        """Run one merged batch as a single multi-model certification.

        Every task shares ``batch.request.instance`` — the per-instance
        memoized artifacts (canonical labeling, route universe,
        reduction tables, codec) are built once for the whole batch.
        """
        request = batch.request
        run_config = RunConfig(
            engine=request.engine,
            reduction=request.reduction,
            cache_dir=self.config.cache_dir,
            workers=self.config.compute_procs,
            queue_bound=request.queue_bound,
            step_bound=request.max_states,
        )
        # The worker thread has no ambient trace context — the batch
        # carries its creator's, crossing the queue boundary explicitly.
        with _tracing.trace_span(
            "serve.compute", parent=batch.trace, timing=True
        ) as compute_span:
            compute_span.note(batch_size=len(batch.jobs))
            traceparent = (
                compute_span.context.to_traceparent()
                if compute_span.context is not None
                else None
            )
            tasks = [
                ExplorationTask(
                    instance=request.instance,
                    model_name=model_name,
                    key=(model_name,),
                    queue_bound=request.queue_bound,
                    max_states=request.max_states,
                    reliable_twin_first=request.reliable_twin_first,
                    engine=request.engine,
                    reduction=request.reduction,
                    cache_dir=self.config.cache_dir,
                    traceparent=traceparent,
                )
                for model_name in batch.jobs.values()
            ]
            outcomes = run_explorations(tasks, config=run_config)
        for (key, (_, result)) in zip(batch.jobs, outcomes):
            # can_oscillate already stored the verdict through the
            # shared cache, warming the payload memo; fall back to
            # encoding directly when the hot tier is disabled.
            payload = self.cache.peek_memo(key)
            if payload is None:
                payload = result_to_payload(result, request.instance)
            self._finish_job(key, payload)

    def _finish_job(self, key: str, payload: dict) -> None:
        with self._lock:
            entry = self._inflight.pop(key, None)
        if entry is not None:
            entry.payload = payload
            entry.event.set()

    def _fail_jobs(self, jobs, error: BaseException) -> None:
        for key in jobs:
            with self._lock:
                entry = self._inflight.pop(key, None)
            if entry is not None:
                entry.error = error
                entry.event.set()
