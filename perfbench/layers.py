"""Per-layer self-time accounting for the traced benchmark runs.

The benchmark measures layers from its own files only: it wraps the
public functions of each module named in :data:`LAYERS` for the length
of a traced pass and restores them afterwards.  Nothing inside the
``repro`` package is edited.

Accounting model.  Every workload drives the program as a single chain
of control -- one closed-loop client, one service worker, one joiner,
``workers=1`` -- so at any moment at most one thread runs wrapped code.
That lets one *process-wide* span stack nest calls across threads: the
server's ``handle_query`` becomes a child of the client's ``query_raw``
that is blocked waiting for it, and the batch worker's
``run_explorations`` a child of the blocked ``handle_query``.  A span's
self time is its duration minus the durations of its direct children,
so self times telescope: summed over all spans they equal the summed
durations of the root spans.  The time inside measured operation
windows that no root span covers is reported as ``unattributed``.
Interleaved (non-LIFO) exits would break the model; they are counted
as ``violations`` and fail the run's layer check.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, NamedTuple

#: Largest allowed gap, as a share of the traced wall time, between
#: (sum of layer self times + unattributed) and the traced wall time.
LAYER_SUM_TOLERANCE = 0.001


class Tracer:
    """Span stack plus per-layer ``[calls, self_s, total_s]`` cells."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._stack: list = []
        self.recording = False
        self.layers: dict = {}
        self.counts: Counter = Counter()
        self.root_s = 0.0
        self.wall_s = 0.0
        self.violations = 0

    # -- spans -----------------------------------------------------------
    def enter(self, name: str, context=None):
        """Open a span (``None`` when no operation window is open)."""
        if not self.recording:
            return None
        frame = [name, 0.0, 0.0, context]
        with self._lock:
            self._stack.append(frame)
        frame[1] = self._clock()
        return frame

    def exit(self, frame) -> float:
        """Close ``frame``; returns its self time."""
        if frame is None:
            return 0.0
        end = self._clock()
        duration = end - frame[1]
        with self._lock:
            stack = self._stack
            if stack and stack[-1] is frame:
                stack.pop()
            else:
                self.violations += 1
                if frame in stack:
                    stack.remove(frame)
            cell = self.layers.get(frame[0])
            if cell is None:
                cell = self.layers[frame[0]] = [0, 0.0, 0.0]
            own = duration - frame[2]
            cell[0] += 1
            cell[1] += own
            cell[2] += duration
            if stack:
                stack[-1][2] += duration
            else:
                self.root_s += duration
        return own

    def nearest(self, name: str):
        """The context of the innermost open span called ``name``."""
        with self._lock:
            for frame in reversed(self._stack):
                if frame[0] == name:
                    return frame[3]
        return None

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    # -- operation windows ---------------------------------------------
    @contextmanager
    def window(self):
        """One measured operation; only spans inside windows count."""
        self.recording = True
        start = self._clock()
        try:
            yield
        finally:
            self.wall_s += self._clock() - start
            self.recording = False
            with self._lock:
                if self._stack:
                    self.violations += len(self._stack)
                    self._stack.clear()

    # -- results ---------------------------------------------------------
    def self_s(self, name: str) -> float:
        cell = self.layers.get(name)
        return cell[1] if cell else 0.0

    def total_s(self, name: str) -> float:
        cell = self.layers.get(name)
        return cell[2] if cell else 0.0

    def calls(self, name: str) -> int:
        cell = self.layers.get(name)
        return cell[0] if cell else 0

    @property
    def unattributed_s(self) -> float:
        return self.wall_s - self.root_s

    def check(self) -> "str | None":
        """Why the layer breakdown does not add up, or ``None``."""
        if self.violations:
            return f"{self.violations} span(s) exited out of nesting order"
        attributed = sum(cell[1] for cell in self.layers.values())
        gap = abs(attributed + self.unattributed_s - self.wall_s)
        slack = LAYER_SUM_TOLERANCE * max(self.wall_s, 1e-9)
        if gap > slack:
            return f"layers + unattributed miss the wall time by {gap:.6f}s"
        if self.unattributed_s < -slack:
            return f"root spans overlap: unattributed {self.unattributed_s:.6f}s"
        negative = [name for name, cell in self.layers.items() if cell[1] < -slack]
        if negative:
            return f"negative self time in {', '.join(sorted(negative))}"
        return None


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
# Hooks count only what the package does not: cache hits and misses
# come from VerdictCache's own counters (workloads.py).
def _write_size(args, kwargs):
    blob = args[1] if len(args) > 1 else kwargs.get("text", "")
    return len(blob)


def _write_done(tracer, args, kwargs, result, size, own) -> None:
    tracer.count("fsutil.write_bytes", size)


def _model_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("model")


def _packed_done(tracer, args, kwargs, result, before, own) -> None:
    # Per search, to match the explore() time.  The package's
    # explore.states counts per verdict (a twin search that finds
    # nothing is not counted) and only with telemetry armed.
    tracer.count("engine.packed.states", result.states_explored)
    tracer.count("engine.packed.pruned", result.states_pruned)
    explorer = args[0]
    requested = tracer.nearest("engine.explorer.can_oscillate")
    if (
        requested is not None
        and requested.reliability.name == "UNRELIABLE"
        and explorer.model.reliability.name == "RELIABLE"
    ):
        tracer.count("engine.explorer.twin_searches")
        if result.oscillates:
            tracer.count("engine.explorer.twin_hits")


def _computed_before(args, kwargs):
    return args[0].counters["computed"]


def _handle_done(tracer, args, kwargs, result, before, own) -> None:
    # A request that computed verdicts waited on the batch queue: its
    # self time is that wait plus the response encoding.
    if args[0].counters["computed"] > before:
        tracer.count("serve.cold_wait_s", own)


class Layer(NamedTuple):
    """One wrapped callable: ``module:attr`` or ``module:Class.method``.

    ``before(args, kwargs)`` runs ahead of the span and its value is
    handed to ``after(tracer, args, kwargs, result, value, self_s)``,
    which runs once the span closed; ``context(args, kwargs)`` is
    stored on the span for :meth:`Tracer.nearest`.
    """

    name: str
    target: str
    before: "Callable | None" = None
    after: "Callable | None" = None
    context: "Callable | None" = None


#: Layer name -> the callables whose time it owns.  Names follow the
#: package's module layout; the layer -> end-to-end map is in README.md.
LAYERS = (
    Layer("core.canonical.hash", "repro.core.canonical:canonical_hash"),
    Layer("core.canonical.automorphisms", "repro.core.canonical:automorphisms"),
    Layer("engine.reduction.tables", "repro.engine.reduction:representative_tables"),
    Layer("engine.packed.init", "repro.engine.packed:PackedExplorer.__init__"),
    Layer("engine.packed.explore", "repro.engine.packed:PackedExplorer.explore",
          after=_packed_done),
    Layer("engine.explorer.can_oscillate", "repro.engine.explorer:can_oscillate",
          context=_model_arg),
    Layer("engine.cache.get", "repro.engine.cache:VerdictCache.get"),
    Layer("engine.cache.get_payload", "repro.engine.cache:VerdictCache.get_payload"),
    Layer("engine.cache.put", "repro.engine.cache:VerdictCache.put"),
    Layer("engine.cache.encode", "repro.engine.cache:result_to_payload"),
    Layer("fsutil.write", "repro.fsutil:atomic_write_text",
          before=_write_size, after=_write_done),
    Layer("engine.parallel.fanout", "repro.engine.parallel:run_explorations"),
    Layer("engine.parallel.fanout", "repro.engine.parallel:parallel_map_retrying"),
    Layer("serve.http_overhead", "repro.serve.client:ServeClient.query_raw"),
    Layer("serve.protocol.parse", "repro.serve.protocol:parse_query"),
    Layer("serve.service.handle", "repro.serve.service:VerdictService.handle_query",
          before=_computed_before, after=_handle_done),
    Layer("campaign.worker.claim", "repro.campaign.worker:CoordinatorClient.claim"),
    Layer("campaign.worker.complete", "repro.campaign.worker:CoordinatorClient.complete"),
    Layer("campaign.coordinator.claim",
          "repro.campaign.coordinator:CampaignCoordinator.handle_claim"),
    Layer("campaign.coordinator.complete",
          "repro.campaign.coordinator:CampaignCoordinator.handle_complete"),
    Layer("campaign.queue.claim", "repro.campaign.queue:SQLiteWorkQueue.claim"),
    Layer("campaign.queue.complete", "repro.campaign.queue:SQLiteWorkQueue.complete"),
    Layer("campaign.runner.checkpoint",
          "repro.campaign.runner:Campaign.write_shard_checkpoint"),
    Layer("campaign.runner.compute", "repro.campaign.runner:compute_shard_records"),
    Layer("campaign.report.aggregate", "repro.campaign.report:aggregate_report"),
)

#: Distinct layer names, in table order.
LAYER_NAMES = tuple(dict.fromkeys(layer.name for layer in LAYERS))


def wrap(tracer: Tracer, layer: Layer, function):
    """``function`` timed as a span of ``layer.name`` on ``tracer``."""
    name, before, after, context = layer.name, layer.before, layer.after, layer.context

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return function(*args, **kwargs)
        noted = before(args, kwargs) if before is not None else None
        frame = tracer.enter(name, context(args, kwargs) if context else None)
        own = 0.0
        try:
            result = function(*args, **kwargs)
        finally:
            own = tracer.exit(frame)
        if after is not None:
            after(tracer, args, kwargs, result, noted, own)
        return result

    return wrapper


class Patches:
    """Every binding of every :data:`LAYERS` target, wrapped for ``tracer``.

    A module-level function is rebound in *each* ``repro`` module that
    holds it (``from .canonical import automorphisms`` copies the
    reference at import, so patching only the defining module would
    miss those callers).  Methods are patched on their class.  Nothing
    is patched until :meth:`apply`; :meth:`restore` undoes it.
    """

    def __init__(self, tracer: Tracer, layers=LAYERS) -> None:
        # Import every submodule first, so that each module that copies
        # a target at import time is loaded (and found) before the scan.
        package = importlib.import_module("repro")
        for info in pkgutil.walk_packages(package.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        self._bindings: list = []
        for layer in layers:
            module_name, _, attr = layer.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._bindings.append(
                    (owner, method, original, wrap(tracer, layer, original))
                )
                continue
            original = getattr(module, attr)
            wrapper = wrap(tracer, layer, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._bindings.append((loaded, key, original, wrapper))

    def apply(self) -> None:
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def restore(self) -> None:
        for owner, key, original, _ in self._bindings:
            setattr(owner, key, original)
