"""The benchmark's four workloads, each driven through the public API.

A workload is a sequence of *operations*.  ``op(mode, watch)`` runs one
and returns an :class:`Op`; only the code inside ``with watch:`` is
timed, and every output is checked before the op is returned.  ``mode``
is ``"off"`` (untraced), ``"traced"`` (the layer wrappers of
``layers.py`` are live) or ``"telemetry"`` (the package's own telemetry
and tracing are armed); only the serving client reacts to it.

* ``certify-fig7`` / ``certify-sym`` -- one cold 24-model
  ``matrix_certification`` of a seeded relabeling of ``fig7_gadget()``
  / ``disagree_grid(2)`` per op (verdict cache off, ``queue_bound=2``).
* ``serve-mix`` -- one block of closed-loop queries against an
  in-process ``VerdictService`` + ``ReproServer`` per op.
* ``campaign-loopback`` -- one explore campaign served by a
  ``CampaignCoordinator`` and worked by one ``join`` over loopback per op.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import repro.campaign.api as campaigns
from repro.analysis.experiments import MATRIX_CERTIFIED_SAFE, matrix_certification
from repro.campaign.spec import CampaignSpec
from repro.config import RunConfig
from repro.core.canonical import canonical_hash
from repro.core.compose import rename_nodes
from repro.core.generators import random_instance
from repro.core.instances import disagree, disagree_grid, fig7_gadget
from repro.engine.cache import VerdictCache, shared_cache, verdict_key
from repro.engine.execution import Execution
from repro.engine.explorer import Explorer
from repro.models.constraints import is_legal_entry
from repro.models.dimensions import Reliability
from repro.models.taxonomy import ALL_MODELS, CommunicationModel, model
from repro.serve.client import ServeClient, ServerError, build_query_body
from repro.serve.server import ReproServer
from repro.serve.service import ServeConfig, VerdictService

MODEL_NAMES = tuple(m.name for m in ALL_MODELS)
QUEUE_BOUND = 2


class Stopwatch:
    """Times the ``with`` block; ``elapsed`` holds the last duration."""

    def __init__(self, window=None) -> None:
        self._window = window  # a Tracer.window factory in traced mode
        self.elapsed = 0.0

    def __enter__(self):
        self._scope = self._window() if self._window is not None else None
        if self._scope is not None:
            self._scope.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.elapsed = time.perf_counter() - self._start
        if self._scope is not None:
            self._scope.__exit__(*exc_info)
        return False


@dataclass
class Op:
    """One measured operation and what its checks found."""

    seconds: float  # timed work in the op (sum of its timed regions)
    latencies: list  # per-request latencies inside the op, seconds
    units: int  # throughput units: certifications, queries or shards
    verdicts: int = 0  # distinct verdicts the op produced
    incomplete: int = 0  # ... of which complete=False
    attempted: int = 1
    failed: int = 0  # refused requests, failed or quarantined shards
    wrong: "list | None" = None  # descriptions of incorrect outputs
    setup: "list | None" = None  # set-up times paid by the op, outside ``seconds``


def relabeled(instance, rng: random.Random):
    """``instance`` with its non-destination nodes renamed at random.

    Relabeling keeps the canonical hash and every verdict; it only
    changes the interning order the engines enumerate in.
    """
    nodes = sorted((n for n in instance.nodes if n != instance.dest), key=repr)
    names = [f"n{index}" for index in range(len(nodes))]
    rng.shuffle(names)
    mapping = dict(zip(nodes, names))
    mapping[instance.dest] = instance.dest
    return rename_nodes(instance, renamer=mapping.__getitem__, name=instance.name)


def witness_replays(instance, model_name: str, result) -> bool:
    """The witness is a legal, fair-cycle-closing reference execution.

    The check of ``tests/engine/test_packed_differential.py``: every
    step passes ``is_legal_entry`` under the model, the cycle returns
    to its canonicalized start, and it visits two path assignments.  A
    witness found on the drop-free twin of an unreliable model closes
    under the twin's canonicalization (Prop. 3.3(1)), so both are tried.
    """
    requested = model(model_name)
    canonicalizers = [requested]
    if requested.reliability is Reliability.UNRELIABLE:
        canonicalizers.append(
            CommunicationModel(Reliability.RELIABLE, requested.scope, requested.count)
        )
    witness = result.witness
    if witness is None or not witness.cycle:
        return False
    for canon_model in canonicalizers:
        explorer = Explorer(
            instance, canon_model, queue_bound=QUEUE_BOUND, engine="reference"
        )
        execution = Execution(instance)
        for entry in witness.prefix:
            if not is_legal_entry(requested, instance, entry):
                return False
            execution.step(entry)
        start = explorer.canonicalize(execution.state)
        assignments = set()
        for entry in witness.cycle:
            if not is_legal_entry(requested, instance, entry):
                return False
            execution.step(entry)
            assignments.add(execution.state.assignment_key)
        if explorer.canonicalize(execution.state) == start and len(assignments) >= 2:
            return True
    return False


def _fresh_dir(root: Path, name: str) -> Path:
    path = root / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    name = ""
    #: Percentile reported as ``latency_tail_ms``.
    tail_percentile = 50.0
    #: Fewest untraced latencies a measuring run collects.
    min_samples = 0

    def __init__(self, seed: int, work: Path, src: Path) -> None:
        self.seed = seed
        self.work = work
        self.src = src

    def setup_samples(self):
        """Yields set-up times measured before the first op (seconds),
        each as soon as it is taken; a workload that sets up per op
        reports them in ``Op.setup``."""
        return iter(())

    def start(self) -> None:
        """Untimed preparation and warm-up after set-up."""

    def op(self, mode: str, watch: Stopwatch) -> Op:
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything the workload started."""

    def layer_extras(self) -> dict:
        """Workload-specific per-layer numbers, ``name -> (value, unit)``."""
        return {}


# ----------------------------------------------------------------------
# certify-fig7 / certify-sym
# ----------------------------------------------------------------------
#: The line the cold CLI must print (DISAGREE certification).
CLI_EXPECTED = "certified on DISAGREE: 14 models oscillate, 10 proved safe"
CLI_SETUPS = 3


class Certify(Workload):
    """Repeated cold 24-model certifications of one paper gadget."""

    def __init__(self, seed, work, src, name, factory, oscillating, incomplete) -> None:
        super().__init__(seed, work, src)
        self.name = name
        self._factory = factory
        self._oscillating = frozenset(oscillating)
        self._incomplete = frozenset(incomplete)
        self._config = RunConfig(
            engine="packed", workers=1, queue_bound=QUEUE_BOUND, cache=False
        )
        self._first = None

    def _instance(self):
        # A fresh object per op: per-instance memo tables start cold.
        return relabeled(self._factory(), random.Random(self.seed))

    def setup_samples(self):
        """A fresh interpreter running the cold ``repro matrix`` CLI."""
        env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(self.src)}
        for index in range(CLI_SETUPS):
            cwd = _fresh_dir(self.work, f"cli-{index}")
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-m", "repro", "matrix", "--engine", "packed",
                 "--no-cache"],
                cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
            )
            elapsed = time.perf_counter() - start
            if done.returncode != 0 or CLI_EXPECTED not in done.stdout:
                raise RuntimeError(
                    f"cold CLI failed (exit {done.returncode}): {done.stderr[-500:]}"
                )
            yield elapsed

    def start(self) -> None:
        # The first certification in a process pays lazy imports; the
        # cold-process cost is what setup_s measures.
        self.op("off", Stopwatch())

    def op(self, mode, watch) -> Op:
        instance = self._instance()
        with watch:
            results = matrix_certification(instance=instance, config=self._config)
        wrong = []
        oscillating = {name for name, result in results.items() if result.oscillates}
        if set(results) != set(MODEL_NAMES) or oscillating != self._oscillating:
            wrong.append(f"{self.name}: oscillating models {sorted(oscillating)}")
        for name in sorted(oscillating):
            if not witness_replays(instance, name, results[name]):
                wrong.append(f"{self.name}: {name} witness does not replay")
        # Completeness may grow (a certificate, a bigger budget) but a
        # model proved at the parent must never fall back to bounded.
        lost = {n for n, r in results.items() if not r.complete} - self._incomplete
        if lost:
            wrong.append(f"{self.name}: {sorted(lost)} no longer complete")
        if self._first is None:
            self._first = results
        elif results != self._first:
            wrong.append(f"{self.name}: results differ between identical runs")
        return Op(
            seconds=watch.elapsed,
            latencies=[watch.elapsed],
            units=1,
            verdicts=len(results),
            incomplete=sum(not r.complete for r in results.values()),
            wrong=wrong,
        )


def certify_fig7(seed, work, src) -> Certify:
    return Certify(
        seed, work, src, "certify-fig7", fig7_gadget, (),
        ("REF", "REO", "RES", "UEA", "UEF", "UEO", "UES"),
    )


def certify_sym(seed, work, src) -> Certify:
    return Certify(
        seed, work, src, "certify-sym", lambda: disagree_grid(2),
        set(MODEL_NAMES) - MATRIX_CERTIFIED_SAFE,
        ("U1F", "U1O", "U1S", "UES", "UMF", "UMO", "UMS"),
    )


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
# The traffic shape below is assumed, not derived from recorded daemon
# traffic (the repository holds none); perfbench/README.md gives the
# reason for each number and the tier shares the runs measured.
#: Keeps a cold 4-5 node compute at tens of milliseconds.
SERVE_MAX_STATES = 300
SERVE_BOOTS = 25
#: Random pool members form a fixed cycle that every run walks from its
#: start (see ``ServeMix._new_member``).
SERVE_POOL_CYCLE = 1024
#: One block: (kind, count), shuffled within the block.  The two first
#: sights (2 %) put the p99 inside the cold tail; the warm kinds share
#: the rest equally, for want of a trace to weight them.
SERVE_BLOCK = (("cold", 1), ("disk", 1), ("relabel", 16), ("subset", 16), ("hot", 16))
#: Hot repeats draw from the most recent distinct bodies, fewer than
#: the 256 the response tier keeps, so a repeat is never an eviction.
HOT_WINDOW = 200


def _cache_counts(stats: dict) -> dict:
    """The verdict cache's own hit/miss counters, as per-layer metrics."""
    return {
        "engine.cache.memory_hits": (stats["mem_hits"], "count"),
        "engine.cache.disk_hits": (stats["hits"] - stats["mem_hits"], "count"),
        "engine.cache.misses": (stats["misses"], "count"),
    }


def _digest(data: dict) -> str:
    """The answer's identity: verdict payloads, not which tier served them."""
    answer = {"canonical_hash": data["canonical_hash"], "results": data["results"]}
    return hashlib.sha256(
        json.dumps(answer, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


class ServeMix(Workload):
    """Closed-loop mixed traffic from one keep-alive client."""

    name = "serve-mix"
    tail_percentile = 99.0
    min_samples = 1000  # at least ten latencies lie beyond the p99

    def __init__(self, seed, work, src) -> None:
        super().__init__(seed, work, src)
        self._rng = random.Random(seed)
        self._members = {"cold": 0, "disk": 0}
        self._config = RunConfig(
            engine="packed", workers=1, queue_bound=QUEUE_BOUND,
            step_bound=SERVE_MAX_STATES, cache=False,
        )
        self._seen: list = []  # (instance, reference results)
        self._hashes: set = set()  # canonical hashes of the seen instances
        self._recent: list = []  # (body, response digest)
        self._server = self._client = None
        self.statz: dict = {}  # service + cache counters, read at close

    # -- set-up ----------------------------------------------------------
    def _boot(self, cache_dir: Path):
        start = time.perf_counter()
        service = VerdictService(
            ServeConfig(cache_dir=str(cache_dir), engine="packed", workers=1)
        )
        server = ReproServer(service)
        server.start_background()
        client = ServeClient(server.url)
        client.healthz()
        return time.perf_counter() - start, server, client

    def setup_samples(self):
        """Service + server boot until ``/healthz`` answers.

        Each boot but the last (which serves the run) is closed before
        the next starts, so idle services never compete with a boot.
        """
        for index in range(SERVE_BOOTS):
            elapsed, server, client = self._boot(_fresh_dir(self.work, f"boot-{index}"))
            if index < SERVE_BOOTS - 1:
                client.close()
                server.close()
            else:
                self._server, self._client = server, client
            yield elapsed
        self._store = self.work / f"boot-{SERVE_BOOTS - 1}"
        # A private cache object on the same directory: entries it
        # writes reach the service only through the disk tier.
        self._disk = VerdictCache(self._store, memo_entries=0)

    # -- pool --------------------------------------------------------------
    def _reference(self, instance) -> dict:
        return matrix_certification(instance=instance, config=self._config)

    def _new_member(self, kind: str):
        """The next unseen pool member for a ``cold`` or ``disk`` first sight.

        Cold first sights take the even pool indices and disk ones the
        odd, in order from the start of the cycle whatever the seed, so
        every run meets the same cold members (whose compute times set
        the p99) whatever order blocks shuffle to; the seed drives the
        traffic around them.  A member isomorphic to one already seen is
        skipped: the service would answer it from the other's canonical
        payload, so it is no first sight, and its witness would be the
        other's, relabeled.
        """
        while True:
            count = self._members[kind]
            self._members[kind] += 1
            index = (2 * count + (kind == "disk")) % SERVE_POOL_CYCLE
            instance = random_instance(index, n_nodes=4 + index // 2 % 2)
            if canonical_hash(instance) not in self._hashes:
                return instance, self._reference(instance)

    def _remember(self, instance, results) -> None:
        self._seen.append((instance, results))
        self._hashes.add(canonical_hash(instance))

    def _prewrite(self, instance, results) -> None:
        for name, result in results.items():
            key = verdict_key(
                instance, name, queue_bound=QUEUE_BOUND, max_states=SERVE_MAX_STATES,
                reliable_twin_first=True, reduction="ample",
            )
            self._disk.put(key, instance, result)

    def _body(self, instance, models=None) -> bytes:
        return build_query_body(
            instance, models, queue_bound=QUEUE_BOUND, max_states=SERVE_MAX_STATES,
            engine="packed",
        )

    def _plan(self, kinds) -> list:
        """One block's queries: ``(kind, body, check)`` in send order.

        ``check`` is ``(decode instance, reference results, models)`` or,
        for hot repeats, the digest the byte-identical query got before.
        """
        queries = []
        for kind in kinds:
            if kind in ("cold", "disk"):
                instance, results = self._new_member(kind)
                if kind == "disk":
                    self._prewrite(instance, results)
                self._remember(instance, results)
                queries.append((kind, self._body(instance), (instance, results, MODEL_NAMES)))
            elif kind == "relabel":
                instance, results = self._rng.choice(self._seen)
                alias = relabeled(instance, self._rng)
                queries.append((kind, self._body(alias), (instance, results, MODEL_NAMES)))
            elif kind == "subset":
                instance, results = self._rng.choice(self._seen)
                models = tuple(self._rng.sample(MODEL_NAMES, self._rng.randint(3, 12)))
                queries.append((kind, self._body(instance, models), (instance, results, models)))
            else:
                body, digest = self._rng.choice(self._recent[-HOT_WINDOW:])
                queries.append((kind, body, digest))
        return queries

    def _send(self, queries, mode, watch, op) -> None:
        for kind, body, check in queries:
            op.attempted += 1
            try:
                with watch:
                    response = self._client.query_raw(body, trace=mode == "telemetry")
            except ServerError:
                op.failed += 1
                continue
            op.latencies.append(watch.elapsed)
            op.seconds += watch.elapsed
            digest = _digest(response.data)
            if kind == "hot":
                if digest != check:
                    op.wrong.append("serve-mix: a repeated query changed its answer")
                continue
            instance, reference, models = check
            try:
                # Payloads are keyed by canonical labeling, so decoding
                # a relabeled query's answer with the original instance
                # must give the original's reference results exactly.
                decoded = response.results(instance)
            except ValueError as exc:
                op.wrong.append(f"serve-mix: undecodable payload ({exc})")
                continue
            if decoded != {name: reference[name] for name in models}:
                op.wrong.append(f"serve-mix: {kind} answer differs from the library")
            if kind in ("cold", "disk"):
                op.verdicts += len(decoded)
                op.incomplete += sum(not r.complete for r in decoded.values())
            self._recent.append((body, digest))

    def start(self) -> None:
        # Warm-up (untimed, checked): the paper gadgets and two random
        # members become the first "seen" pool, so relabelings and
        # subsets have something to refer to from the first block on.
        gadgets = []
        for instance in (disagree(), disagree_grid(2)):
            gadgets.append(("cold", self._body(instance),
                            (instance, self._reference(instance), MODEL_NAMES)))
            self._remember(instance, gadgets[-1][2][1])
        warm = Op(seconds=0.0, latencies=[], units=0, attempted=0, wrong=[])
        self._send(gadgets + self._plan(["cold", "disk"]), "off", Stopwatch(), warm)
        if warm.wrong or warm.failed:
            raise RuntimeError(f"serve-mix warm-up failed: {warm.wrong or warm.failed}")

    def op(self, mode, watch) -> Op:
        kinds = [kind for kind, count in SERVE_BLOCK for _ in range(count)]
        self._rng.shuffle(kinds)
        op = Op(seconds=0.0, latencies=[], units=0, attempted=0, wrong=[])
        self._send(self._plan(kinds), mode, watch, op)
        op.units = len(op.latencies)
        return op

    def close(self) -> None:
        if self._server is not None:
            self.statz = self._client.statz()
            self._client.close()
            self._server.close()
            self._server = None

    def layer_extras(self) -> dict:
        counters = self.statz["serve"]
        verdicts = sum(counters[k] for k in ("mem_hits", "disk_hits", "computed", "joined"))
        extras = {
            "serve.tier.hot_pct": (100.0 * counters["hot_hits"] / max(1, counters["requests"]), "%"),
            **_cache_counts(self.statz["cache"]),
        }
        for key, tier in (("mem_hits", "memory"), ("disk_hits", "disk"),
                          ("computed", "computed"), ("joined", "joined")):
            extras[f"serve.tier.{tier}_pct"] = (100.0 * counters[key] / max(1, verdicts), "%")
        for key in ("batches", "batch_joins", "shed", "errors"):
            extras[f"serve.{key}"] = (counters[key], "count")
        return extras


# ----------------------------------------------------------------------
# campaign-loopback
# ----------------------------------------------------------------------
CAMPAIGN_SHARDS = 16
#: Every op works the same population of random instances.  Costs of
#: 16-instance populations differ by up to a third, which would swamp
#: any comparison of runs with different seeds or op counts, so the
#: seed only names the campaign (its id, digest and report bytes).  One
#: population also lets a run compute its single-host reference report
#: once (each joiner still starts from an empty verdict cache).
CAMPAIGN_BASE_SEED = 0


def _healthz(url: str) -> None:
    host, port = url.rsplit("/", 1)[-1].rsplit(":", 1)
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        response.read()
        if response.status != 200:
            raise RuntimeError(f"coordinator /healthz answered {response.status}")
    finally:
        connection.close()


class CampaignLoopback(Workload):
    """Coordinator + one loopback joiner over many single-instance shards."""

    name = "campaign-loopback"

    def __init__(self, seed, work, src) -> None:
        super().__init__(seed, work, src)
        self._index = 0
        self._report = None  # (report bytes, records) of the single-host run
        self.lost_leases = 0
        self.failed_shards = 0
        self.cache_stats = {"hits": 0, "mem_hits": 0, "misses": 0}
        self._spec = CampaignSpec(
            name=f"perfbench-{seed}",
            count=CAMPAIGN_SHARDS,
            shard_size=1,
            base_seed=CAMPAIGN_BASE_SEED,
            n_nodes=4,
            max_paths_per_node=3,
            max_path_length=4,
            queue_bound=QUEUE_BOUND,
            step_bound=200,
            engine="packed",
            cache=True,
        )

    def _boot(self, spec, directory):
        """Create + coordinator boot until a claim can be served.

        Every op boots its own campaign, so these are the set-up
        samples, spread over the whole run.
        """
        start = time.perf_counter()
        handle = campaigns.create(spec, directory)
        coordinator = handle.serve(port=0)
        coordinator.start_background()
        try:
            _healthz(coordinator.url)
        except BaseException:
            coordinator.close()
            raise
        return time.perf_counter() - start, handle, coordinator

    def start(self) -> None:
        self.op("off", Stopwatch())

    def _reference(self, directory) -> tuple:
        """The single-host ``Campaign.run`` report of the spec (memoized)."""
        if self._report is None:
            local = campaigns.create(self._spec, directory)
            local.run(workers=1)
            self._report = (local.raw.paths.report_path.read_bytes(), local.records())
        return self._report

    def op(self, mode, watch) -> Op:
        spec = self._spec
        root = _fresh_dir(self.work, f"campaign-{self._index}")
        self._index += 1
        boot_s, handle, coordinator = self._boot(spec, root / "served")
        cache_dir = str(root / "joiner-cache")
        try:
            with watch:
                summary = campaigns.join(coordinator.url, workers=1, cache_dir=cache_dir)
            finished = coordinator.wait_complete(timeout=60)
            quarantined = coordinator.queue.quarantined()
        finally:
            coordinator.close()
        # The joiner's explorations share the process-wide cache of
        # their directory; read its own counters.
        cache = shared_cache(cache_dir)
        for key, value in (("hits", cache.hits), ("mem_hits", cache.mem_hits),
                           ("misses", cache.misses)):
            self.cache_stats[key] += value
        wrong = []
        served = handle.raw.paths.report_path
        report, records = self._reference(root / "local")
        if not finished or not served.is_file():
            wrong.append("campaign-loopback: campaign did not complete")
        elif served.read_bytes() != report:
            wrong.append("campaign-loopback: report differs from the single-host run")
        shutil.rmtree(root, ignore_errors=True)
        self.lost_leases += summary["lost_leases"]
        self.failed_shards += summary["failed_shards"] + len(quarantined)
        return Op(
            seconds=watch.elapsed,
            latencies=[watch.elapsed],
            units=len(summary["shards"]),
            verdicts=len(records),
            incomplete=sum(not r["result"]["complete"] for r in records),
            attempted=spec.n_shards,
            failed=summary["failed_shards"] + len(quarantined),
            wrong=wrong,
            setup=[boot_s],
        )

    def layer_extras(self) -> dict:
        return {
            "campaign.lost_leases": (self.lost_leases, "count"),
            "campaign.failed_shards": (self.failed_shards, "count"),
            **_cache_counts(self.cache_stats),
        }


WORKLOADS = {
    "certify-fig7": certify_fig7,
    "certify-sym": certify_sym,
    "serve-mix": ServeMix,
    "campaign-loopback": CampaignLoopback,
}
