"""Compiled execution core: integer-interned instances and packed states.

The reference engine (:mod:`repro.engine.execution`,
:mod:`repro.engine.explorer`) manipulates rich values — node names,
path tuples, repr-sorted snapshot dictionaries.  That is the semantics
of Def. 2.1–2.3 written down as directly as possible, and it stays the
source of truth.  This module is the *fast path*: an
:class:`InstanceCodec` interns every node, channel, and permitted path
of an :class:`~repro.core.spp.SPPInstance` into dense integer ids and
precomputes flat lookup tables —

* ``ext[channel_id][route_id]`` — the feasible extension of a known
  route through the channel's receiver (Def. 2.3 step 2 candidates),
* ``pref_index[node_id][route_id]`` — the position of a path in the
  node's total preference order ``(λ_v, repr)`` (Def. 2.1's ranking
  with the engine's deterministic tie-break), and
* fixed in/out channel iteration orders matching the instance's
  canonical (repr-sorted) orders,

so that one algorithm step is a handful of list copies and integer
table lookups.  A **packed state** is the 4-tuple

    ``(π, ρ, channels, last_announced)``

where π and last_announced are tuples of route ids indexed by node id,
ρ is a tuple of route ids indexed by channel id, and channels is a
tuple of per-channel FIFO tuples of route ids.  Packing is a bijection
onto the reference :class:`~repro.engine.state.NetworkState` value
space (every route that can ever appear in a snapshot is ε or a
permitted path, hence interned), so hashing/equality of packed states
induce exactly the reference equivalence classes — the property the
bounded model checker relies on.

:class:`CompiledExplorer` ports the :class:`~repro.engine.explorer.Explorer`
search loop to packed states *without changing a single enumeration
order*: successor generation, DFS, checkpointing, Tarjan SCC order,
fairness checks, and witness reconstruction all mirror the reference
step for step, so verdicts, state counts, and witnesses are
bit-identical (``tests/engine/test_compiled_differential.py`` enforces
this).  Decoding back to ``NetworkState``/``ActivationEntry`` happens
only at API boundaries.
"""

from __future__ import annotations

import itertools
import time

from ..core.paths import EPSILON
from ..core.spp import SPPInstance
from ..models.dimensions import MessageCount, NeighborScope, Reliability
from ..models.taxonomy import CommunicationModel
from ..obs import active as _telemetry
from .activation import INFINITY, ActivationEntry
from .reduction import (
    absorption_allowed,
    representative_tables,
    validate_reduction,
)
from .state import NetworkState

__all__ = [
    "InstanceCodec",
    "CompiledExplorer",
    "codec_for",
    "apply_packed",
    "replay_schedule",
]

_NO_DROPS = frozenset()


class InstanceCodec:
    """Dense integer interning of one SPP instance, plus flat tables.

    Ids follow the instance's canonical orders: node id = index into
    ``instance.sorted_nodes``, channel id = index into
    ``instance.channels``, route id = index into :attr:`routes` (ε is
    always id 0).  The codec is immutable and safe to share.
    """

    __slots__ = (
        "instance",
        "nodes",
        "node_id",
        "dest_id",
        "dest_route_id",
        "channels",
        "channel_id",
        "routes",
        "route_id",
        "eps_id",
        "no_choice",
        "ext",
        "pref_index",
        "route_by_pref",
        "in_ch",
        "out_ch",
        "dest_in",
    )

    def __init__(self, instance: SPPInstance) -> None:
        self.instance = instance
        self.nodes = instance.sorted_nodes
        self.node_id = {node: i for i, node in enumerate(self.nodes)}
        self.dest_id = self.node_id[instance.dest]
        self.channels = instance.channels
        self.channel_id = {c: i for i, c in enumerate(self.channels)}

        # Route universe: ε plus every permitted path of every node.
        # Everything a snapshot can hold (π, ρ, messages, announcements)
        # is drawn from this set, so the interning is total.
        route_id: dict = {EPSILON: 0}
        routes: list = [EPSILON]
        for node in self.nodes:
            for path in instance.permitted_at(node):
                if path not in route_id:
                    route_id[path] = len(routes)
                    routes.append(path)
        self.routes = tuple(routes)
        self.route_id = route_id
        self.eps_id = 0
        self.dest_route_id = route_id[(instance.dest,)]

        # Per-channel extension table: route announced on (u, v) → the
        # feasible extension v·route (ε when looping / not permitted).
        self.ext = tuple(
            tuple(
                route_id[instance.feasible_extension(channel[1], route)]
                for route in self.routes
            )
            for channel in self.channels
        )

        # Total preference order per node: (rank, repr) ascending —
        # exactly the order `best_choice` minimizes over.
        n_routes = len(self.routes)
        self.no_choice = n_routes + 1
        pref_index: list = []
        route_by_pref: list = []
        for node in self.nodes:
            order = sorted(
                instance.permitted_at(node),
                key=lambda p: (instance.rank_of(node, p), repr(p)),
            )
            index = [self.no_choice] * n_routes
            table = []
            for position, path in enumerate(order):
                index[route_id[path]] = position
                table.append(route_id[path])
            pref_index.append(tuple(index))
            route_by_pref.append(tuple(table))
        self.pref_index = tuple(pref_index)
        self.route_by_pref = tuple(route_by_pref)

        self.in_ch = tuple(
            tuple(self.channel_id[c] for c in instance.in_channels(node))
            for node in self.nodes
        )
        self.out_ch = tuple(
            tuple(self.channel_id[c] for c in instance.out_channels(node))
            for node in self.nodes
        )
        self.dest_in = tuple(
            cid
            for cid, channel in enumerate(self.channels)
            if channel[1] == instance.dest
        )

    # ------------------------------------------------------------------
    # State packing
    # ------------------------------------------------------------------
    def initial_packed(self) -> tuple:
        """The packed t = 0 state of Def. 2.1."""
        pi = [self.eps_id] * len(self.nodes)
        pi[self.dest_id] = self.dest_route_id
        rho = (self.eps_id,) * len(self.channels)
        channels = ((),) * len(self.channels)
        announced = (self.eps_id,) * len(self.nodes)
        return (tuple(pi), rho, channels, announced)

    def pack_state(self, state: NetworkState) -> tuple:
        """Intern a reference snapshot (raises ``KeyError`` on routes
        outside the instance's permitted universe)."""
        rid = self.route_id
        pi_map = state.pi
        rho_map = state.rho
        channel_map = state.channels
        announced_map = state.announced
        return (
            tuple(rid[pi_map[node]] for node in self.nodes),
            tuple(rid[rho_map[c]] for c in self.channels),
            tuple(
                tuple(rid[m] for m in channel_map[c]) for c in self.channels
            ),
            tuple(rid[announced_map[node]] for node in self.nodes),
        )

    def unpack_state(self, packed: tuple) -> NetworkState:
        """Decode a packed state back to the reference representation."""
        pi, rho, channels, announced = packed
        routes = self.routes
        return NetworkState.from_instance_order(
            self.instance,
            pi={n: routes[r] for n, r in zip(self.nodes, pi)},
            rho={c: routes[r] for c, r in zip(self.channels, rho)},
            channels={
                c: tuple(routes[m] for m in queue)
                for c, queue in zip(self.channels, channels)
            },
            announced={n: routes[r] for n, r in zip(self.nodes, announced)},
        )

    # ------------------------------------------------------------------
    # Entry packing
    # ------------------------------------------------------------------
    def compile_entry(self, entry: ActivationEntry) -> tuple:
        """Intern an activation entry as ``(node_ids, combo)`` where
        ``combo`` is a tuple of ``(channel_id, f, drop_set)``."""
        node_ids = tuple(sorted(self.node_id[n] for n in entry.nodes))
        reads = entry.reads
        drops = entry.drops
        combo = tuple(
            (
                self.channel_id[channel],
                count,
                drops.get(channel, _NO_DROPS),
            )
            for channel, count in reads.items()
        )
        return (node_ids, combo)

    def entry_of(self, packed_entry: tuple) -> ActivationEntry:
        """Decode a packed entry into a reference :class:`ActivationEntry`."""
        node_ids, combo = packed_entry
        channels = [self.channels[cid] for cid, _, _ in combo]
        reads = {self.channels[cid]: count for cid, count, _ in combo}
        drops = {
            self.channels[cid]: dropped
            for cid, _, dropped in combo
            if dropped
        }
        return ActivationEntry(
            nodes=[self.nodes[i] for i in node_ids],
            channels=channels,
            reads=reads,
            drops=drops,
        )

    def assignment_key(self, packed_pi: tuple) -> tuple:
        """The reference ``NetworkState.assignment_key`` of a packed π."""
        routes = self.routes
        return tuple(
            (node, routes[r]) for node, r in zip(self.nodes, packed_pi)
        )


def codec_for(instance: SPPInstance) -> InstanceCodec:
    """The (memoized) codec of an instance.

    The codec is attached to the instance object itself, so repeated
    explorations — and every worker process after unpickling — build
    the tables exactly once per instance.
    """
    codec = instance.__dict__.get("_codec_cache")
    if codec is None:
        codec = InstanceCodec(instance)
        object.__setattr__(instance, "_codec_cache", codec)
    return codec


def apply_packed(codec: InstanceCodec, state: tuple, node_ids, combo) -> tuple:
    """One Def. 2.3 step on a packed state (export-everything policy).

    Mirrors :func:`repro.engine.execution.apply_entry`: all reads happen
    against the step's initial channel contents, then every updating
    node re-selects, then changed selections are appended to the
    node's outgoing channels.
    """
    pi, rho, channels, announced = state
    channels = list(channels)
    rho_list = None

    # Step 1 — process the selected channels.
    for cid, count, drops in combo:
        queue = channels[cid]
        pending = len(queue)
        take = pending if count == INFINITY else min(count, pending)
        if not take:
            continue
        channels[cid] = queue[take:]
        if drops:
            surviving = 0
            for index in range(take, 0, -1):
                if index not in drops:
                    surviving = index
                    break
            if not surviving:
                continue
            new_route = queue[surviving - 1]
        else:
            new_route = queue[take - 1]
        if rho_list is None:
            rho_list = list(rho)
        rho_list[cid] = new_route
    rho_out = rho if rho_list is None else tuple(rho_list)

    # Step 2 — best responses over the (updated) known routes.
    pi_list = list(pi)
    dest_id = codec.dest_id
    ext = codec.ext
    no_choice = codec.no_choice
    for nid in node_ids:
        if nid == dest_id:
            pi_list[nid] = codec.dest_route_id
            continue
        best = no_choice
        pref = codec.pref_index[nid]
        for cid in codec.in_ch[nid]:
            position = pref[ext[cid][rho_out[cid]]]
            if position < best:
                best = position
        pi_list[nid] = (
            codec.route_by_pref[nid][best] if best < no_choice else codec.eps_id
        )

    # Step 3 — announce changed selections.
    announced_list = None
    for nid in node_ids:
        new_route = pi_list[nid]
        if new_route != announced[nid]:
            if announced_list is None:
                announced_list = list(announced)
            announced_list[nid] = new_route
            for ocid in codec.out_ch[nid]:
                channels[ocid] = channels[ocid] + (new_route,)
    return (
        tuple(pi_list),
        rho_out,
        tuple(channels),
        announced if announced_list is None else tuple(announced_list),
    )


def replay_schedule(
    instance: SPPInstance,
    schedule,
    initial_state: "NetworkState | None" = None,
) -> list:
    """Run a finite schedule through the compiled step.

    Returns the list of post-step :class:`NetworkState` snapshots — the
    compiled twin of ``Execution(instance).run(schedule).states`` (under
    the default export-everything policy).  Used by the differential
    tests to prove compiled ≡ reference trace semantics.
    """
    codec = codec_for(instance)
    packed = (
        codec.initial_packed()
        if initial_state is None
        else codec.pack_state(initial_state)
    )
    states = []
    for entry in schedule:
        node_ids, combo = codec.compile_entry(entry)
        packed = apply_packed(codec, packed, node_ids, combo)
        states.append(codec.unpack_state(packed))
    return states


class CompiledExplorer:
    """The packed-state port of :class:`repro.engine.explorer.Explorer`.

    Every enumeration order (successors, DFS, checkpoints, Tarjan, BFS
    witness reconstruction) mirrors the reference explorer exactly, so
    the two produce bit-identical :class:`ExplorationResult` values —
    the compiled one just does it on tuples of small ints.  Constructed
    by ``Explorer.explore()`` when the engine is ``"compiled"``; not
    part of the public API surface.
    """

    def __init__(
        self,
        instance: SPPInstance,
        model: CommunicationModel,
        queue_bound: int = 3,
        max_states: int = 200_000,
        reduction: str = "ample",
    ) -> None:
        if model.concurrency.name != "ONE":
            raise ValueError("the explorer supports one-node-per-step models only")
        self.instance = instance
        self.model = model
        self.queue_bound = queue_bound
        self.max_states = max_states
        self.reduction = validate_reduction(reduction)
        self.codec = codec_for(instance)
        self._dest_in = frozenset(self.codec.dest_in)
        self._collapse = (
            model.count is MessageCount.ALL
            and model.reliability is Reliability.RELIABLE
        )
        self._combo_cache: dict = {}
        self._count_all = model.count is MessageCount.ALL
        if self.reduction == "ample":
            self._rep = representative_tables(instance)
            self._absorb = absorption_allowed(model)
            self._receiver_of = tuple(
                self.codec.node_id[channel[1]] for channel in self.codec.channels
            )
        else:
            self._rep = None
            self._absorb = False
            self._receiver_of = ()
        self._pruned = 0

    # ------------------------------------------------------------------
    # State canonicalization (packed twin of Explorer.canonicalize)
    # ------------------------------------------------------------------
    def canonicalize(self, packed: tuple) -> tuple:
        pi, rho, channels, announced = packed
        needs_work = False
        for cid in self.codec.dest_in:
            if channels[cid] or rho[cid]:
                needs_work = True
                break
        if not needs_work and self._collapse:
            for queue in channels:
                if len(queue) > 1:
                    needs_work = True
                    break
        if needs_work:
            channels = list(channels)
            rho = list(rho)
            for cid in self.codec.dest_in:
                channels[cid] = ()
                rho[cid] = 0
            if self._collapse:
                for cid, queue in enumerate(channels):
                    if len(queue) > 1:
                        channels[cid] = (queue[-1],)
            rho = tuple(rho)
            channels = tuple(channels)
        rep = self._rep
        if rep is not None:
            # ext-projection quotient: known routes and queued messages
            # are only ever observed through their feasible extension,
            # so each is replaced by its ext-class representative.
            new_rho = None
            for cid, r in enumerate(rho):
                if rep[cid][r] != r:
                    if new_rho is None:
                        new_rho = list(rho)
                    new_rho[cid] = rep[cid][r]
            new_channels = None
            for cid, queue in enumerate(channels):
                table = rep[cid]
                for m in queue:
                    if table[m] != m:
                        if new_channels is None:
                            new_channels = list(channels)
                        new_channels[cid] = tuple(table[m] for m in queue)
                        break
            if new_rho is not None:
                rho = tuple(new_rho)
            if new_channels is not None:
                channels = tuple(new_channels)
        return (pi, rho, channels, announced)

    # ------------------------------------------------------------------
    # Successor enumeration (same orders as the reference explorer)
    # ------------------------------------------------------------------
    def _channel_sets(self, nid: int, channels: tuple) -> tuple:
        in_cids = self.codec.in_ch[nid]
        busy = tuple(cid for cid in in_cids if channels[cid])
        scope = self.model.scope
        if scope is NeighborScope.ONE:
            return tuple((cid,) for cid in busy)
        if scope is NeighborScope.EVERY:
            return (in_cids,) if busy else ()
        subsets = []
        for size in range(1, len(busy) + 1):
            subsets.extend(itertools.combinations(busy, size))
        return tuple(subsets)

    def _count_options(self, pending: int) -> tuple:
        kind = self.model.count
        if kind is MessageCount.ONE:
            return (1,)
        if kind is MessageCount.ALL:
            return (INFINITY,)
        if pending == 0:
            return (1,)
        behaviours = list(range(1, pending + 1))
        behaviours[-1] = INFINITY
        if (
            kind is MessageCount.SOME
            and self.model.scope is NeighborScope.EVERY
        ):
            behaviours.insert(0, 0)
        return tuple(behaviours)

    def _drop_options(self, effective: int) -> tuple:
        if self.model.reliability is Reliability.RELIABLE or effective == 0:
            return (_NO_DROPS,)
        options = []
        for survivor in range(effective, 0, -1):
            options.append(frozenset(range(survivor + 1, effective + 1)))
        options.append(frozenset(range(1, effective + 1)))
        return tuple(options)

    def _combos_for(self, pending: int) -> tuple:
        """Behaviourally distinct ``(f, g)`` pairs for one channel."""
        cached = self._combo_cache.get(pending)
        if cached is None:
            combos = []
            for count in self._count_options(pending):
                effective = (
                    pending if count == INFINITY else min(count, pending)
                )
                for dropped in self._drop_options(effective):
                    combos.append((count, dropped))
            cached = tuple(combos)
            self._combo_cache[pending] = cached
        return cached

    def _kickoff(self, packed: tuple) -> "tuple | None":
        codec = self.codec
        if packed[3][codec.dest_id] == codec.dest_route_id:
            return None
        in_cids = codec.in_ch[codec.dest_id]
        scope = self.model.scope
        if scope is NeighborScope.ONE and in_cids:
            cids: tuple = (in_cids[0],)
        elif scope is NeighborScope.EVERY:
            cids = in_cids
        else:
            cids = ()
        count: "int | float" = (
            INFINITY if self.model.count is MessageCount.ALL else 1
        )
        combo = tuple((cid, count, _NO_DROPS) for cid in cids)
        return ((codec.dest_id,), combo)

    def _absorption(self, packed: tuple) -> "tuple | None":
        """The forced absorption step at ``packed``, if one applies.

        Scans channels in canonical order for a front message whose
        ext-class equals the channel's known route; reading it is a
        pure queue-shortening no-op (see :mod:`repro.engine.reduction`),
        so it is expanded as the state's sole successor.  The successor
        is built directly — ρ keeps its (ext-equal) old value, π and
        announcements provably cannot change — and then canonicalized,
        which projects ρ onto the shared representative.
        """
        rep = self._rep
        rho = packed[1]
        channels = packed[2]
        count_all = self._count_all
        dest_id = self.codec.dest_id
        for cid, queue in enumerate(channels):
            if not queue:
                continue
            if count_all and len(queue) != 1:
                # An ∞-read consumes the whole queue; only a singleton
                # is a pure front-absorption.  (Reliable count-A queues
                # are collapsed to ≤ 1 by canonicalization already.)
                continue
            table = rep[cid]
            if table[queue[0]] != table[rho[cid]]:
                continue
            nid = self._receiver_of[cid]
            if nid == dest_id:
                continue
            count: "int | float" = INFINITY if count_all else 1
            entry = ((nid,), ((cid, count, _NO_DROPS),))
            nxt = (
                packed[0],
                rho,
                channels[:cid] + (queue[1:],) + channels[cid + 1 :],
                packed[3],
            )
            return entry, self.canonicalize(nxt)
        return None

    def _full_entry_count(self, packed: tuple) -> int:
        """How many entries unreduced enumeration would yield here.

        Pure counting twin of :meth:`successors` (no states are built);
        used to account ``states_pruned`` when absorption replaces the
        full successor set.
        """
        codec = self.codec
        channels = packed[2]
        total = 0 if self._kickoff(packed) is None else 1
        scope = self.model.scope
        for nid in range(len(codec.nodes)):
            counts = [
                len(self._combos_for(len(channels[cid])))
                for cid in codec.in_ch[nid]
                if channels[cid]
            ]
            if not counts:
                continue
            if scope is NeighborScope.ONE:
                total += sum(counts)
            elif scope is NeighborScope.EVERY:
                product = 1
                for cid in codec.in_ch[nid]:
                    product *= len(self._combos_for(len(channels[cid])))
                total += product
            else:
                product = 1
                for n in counts:
                    product *= n + 1
                total += product - 1
        return total

    def successors(self, packed: tuple):
        """Yield ``(packed_entry, canonical_next)`` — reference order."""
        if self._absorb:
            forced = self._absorption(packed)
            if forced is not None:
                self._pruned += self._full_entry_count(packed) - 1
                yield forced
                return
        codec = self.codec
        apply_step = apply_packed
        canonicalize = self.canonicalize
        kickoff = self._kickoff(packed)
        if kickoff is not None:
            yield kickoff, canonicalize(
                apply_step(codec, packed, kickoff[0], kickoff[1])
            )
        channels = packed[2]
        for nid in range(len(codec.nodes)):
            node_ids = (nid,)
            for cids in self._channel_sets(nid, channels):
                per_channel = [
                    [
                        (cid, count, dropped)
                        for count, dropped in self._combos_for(
                            len(channels[cid])
                        )
                    ]
                    for cid in cids
                ]
                if len(per_channel) == 1:
                    for choice in per_channel[0]:
                        combo = (choice,)
                        yield (node_ids, combo), canonicalize(
                            apply_step(codec, packed, node_ids, combo)
                        )
                else:
                    for combo in itertools.product(*per_channel):
                        yield (node_ids, combo), canonicalize(
                            apply_step(codec, packed, node_ids, combo)
                        )

    # ------------------------------------------------------------------
    # Search (packed twin of Explorer.explore)
    # ------------------------------------------------------------------
    def explore(self):
        from .explorer import ExplorationResult

        tel = _telemetry()
        search_start = time.perf_counter()
        self._pruned = 0
        initial = self.canonicalize(self.codec.initial_packed())
        index_of: dict = {initial: 0}
        states: list = [initial]
        edges: dict = {}
        parent: dict = {0: None}
        truncated = 0
        frontier = [0]
        overflow = False
        checkpoint = 1024
        queue_bound = self.queue_bound
        total_bound = queue_bound * max(1, len(self.codec.channels))
        max_states = self.max_states

        def result(witness, complete) -> "ExplorationResult":
            tel.timing("explore.search", time.perf_counter() - search_start)
            return ExplorationResult(
                model_name=self.model.name,
                instance_name=self.instance.name,
                oscillates=witness is not None,
                complete=complete,
                states_explored=len(states),
                truncated_states=truncated,
                states_pruned=self._pruned,
                witness=witness,
            )

        while frontier:
            current = frontier.pop()
            adjacency: list = []
            for packed_entry, nxt in self.successors(states[current]):
                total = 0
                over = False
                for queue in nxt[2]:
                    length = len(queue)
                    total += length
                    if length > queue_bound:
                        over = True
                        break
                if over or total > total_bound:
                    truncated += 1
                    continue
                index = index_of.get(nxt)
                if index is None:
                    if len(states) >= max_states:
                        overflow = True
                        truncated += 1
                        continue
                    index = len(states)
                    index_of[nxt] = index
                    states.append(nxt)
                    parent[index] = (current, packed_entry)
                    frontier.append(index)
                adjacency.append((packed_entry, index))
            edges[current] = adjacency
            if len(states) >= checkpoint:
                checkpoint *= 4
                if tel.enabled:
                    tel.heartbeat(
                        "explore",
                        instance=self.instance.name,
                        model=self.model.name,
                        engine="compiled",
                        states=len(states),
                        pruned=self._pruned,
                        truncated=truncated,
                        frontier=len(frontier),
                        elapsed_s=round(
                            time.perf_counter() - search_start, 6
                        ),
                    )
                witness = self._find_fair_oscillation(states, edges, parent)
                if witness is not None:
                    return result(witness, complete=False)

        witness = self._find_fair_oscillation(states, edges, parent)
        return result(witness, complete=(truncated == 0 and not overflow))

    # ------------------------------------------------------------------
    # SCC + fairness (packed twins of the reference implementations)
    # ------------------------------------------------------------------
    def _sccs(self, node_count: int, edges: dict):
        index_counter = itertools.count()
        indexes: dict = {}
        lowlink: dict = {}
        on_stack: set = set()
        stack: list = []

        for root in range(node_count):
            if root in indexes:
                continue
            work = [(root, iter(edges.get(root, ())))]
            indexes[root] = lowlink[root] = next(index_counter)
            stack.append(root)
            on_stack.add(root)
            while work:
                vertex, iterator = work[-1]
                advanced = False
                for _, target in iterator:
                    if target not in indexes:
                        indexes[target] = lowlink[target] = next(index_counter)
                        stack.append(target)
                        on_stack.add(target)
                        work.append((target, iter(edges.get(target, ()))))
                        advanced = True
                        break
                    if target in on_stack:
                        lowlink[vertex] = min(lowlink[vertex], indexes[target])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent_vertex = work[-1][0]
                    lowlink[parent_vertex] = min(
                        lowlink[parent_vertex], lowlink[vertex]
                    )
                if lowlink[vertex] == indexes[vertex]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == vertex:
                            break
                    yield component

    def _fairness_ok(self, component: list, states, edges) -> bool:
        codec = self.codec
        members = set(component)
        inner_edges = [
            (source, entry, target)
            for source in component
            for entry, target in edges.get(source, ())
            if target in members
        ]
        relevant = [
            cid
            for cid in range(len(codec.channels))
            if cid not in self._dest_in
        ]
        empty_somewhere = {
            cid
            for cid in relevant
            if any(not states[s][2][cid] for s in component)
        }
        serviced: set = set()
        dropped_from: set = set()
        delivered_from: set = set()
        activated: set = set()
        full_activation: set = set()
        for source, (node_ids, combo), _ in inner_edges:
            attempts = frozenset(cid for cid, count, _ in combo if count != 0)
            serviced |= attempts
            for nid in node_ids:
                activated.add(nid)
                in_cids = set(codec.in_ch[nid])
                if in_cids and in_cids <= attempts:
                    full_activation.add(nid)
            for cid, count, dropped in combo:
                if count == 0:
                    continue
                pending = len(states[source][2][cid])
                batch = pending if count == INFINITY else min(count, pending)
                if any(index in dropped for index in range(1, batch + 1)):
                    dropped_from.add(cid)
                if any(
                    index not in dropped for index in range(1, batch + 1)
                ):
                    delivered_from.add(cid)
        for cid in relevant:
            if cid not in serviced and cid not in empty_somewhere:
                return False
        if self.model.scope is NeighborScope.EVERY:
            for nid in range(len(codec.nodes)):
                in_cids = set(codec.in_ch[nid]) - self._dest_in
                if not in_cids:
                    continue
                all_empty_somewhere = any(
                    all(not states[s][2][cid] for cid in in_cids)
                    for s in component
                )
                if nid not in full_activation and not all_empty_somewhere:
                    return False
        if self.model.reliability is Reliability.UNRELIABLE:
            for cid in dropped_from:
                if cid not in delivered_from and cid not in empty_somewhere:
                    return False
        return True

    def _find_fair_oscillation(self, states, edges, parent):
        for component in self._sccs(len(states), edges):
            members = set(component)
            has_inner_edge = any(
                target in members
                for source in component
                for _, target in edges.get(source, ())
            )
            if not has_inner_edge:
                continue
            assignments = {states[s][0] for s in component}
            if len(assignments) < 2:
                continue
            if not self._fairness_ok(component, states, edges):
                continue
            return self._build_witness(component, states, edges, parent)
        return None

    def _build_witness(self, component, states, edges, parent):
        from .explorer import OscillationWitness

        codec = self.codec
        members = set(component)
        anchor = min(component)

        def path_within(start: int, goal: int) -> list:
            if start == goal:
                return []
            queue = [start]
            back: dict = {start: None}
            while queue:
                current = queue.pop(0)
                for entry, target in edges.get(current, ()):
                    if target in members and target not in back:
                        back[target] = (current, entry)
                        if target == goal:
                            steps = []
                            cursor = goal
                            while back[cursor] is not None:
                                previous, entry_taken = back[cursor]
                                steps.append((entry_taken, cursor))
                                cursor = previous
                            steps.reverse()
                            return steps
                        queue.append(target)
            raise AssertionError("SCC members must be mutually reachable")

        anchor_pi = states[anchor][0]
        other = next(
            s for s in component if states[s][0] != anchor_pi
        )
        period = path_within(anchor, other) + path_within(other, anchor)
        cycle_entries = tuple(codec.entry_of(entry) for entry, _ in period)

        prefix_entries = []
        cursor = anchor
        while parent.get(cursor) is not None:
            previous, entry = parent[cursor]
            prefix_entries.append(codec.entry_of(entry))
            cursor = previous
        prefix_entries.reverse()

        visited_assignments = {
            codec.assignment_key(anchor_pi),
            codec.assignment_key(states[other][0]),
        }
        return OscillationWitness(
            prefix=tuple(prefix_entries),
            cycle=cycle_entries,
            assignments=tuple(sorted(visited_assignments, key=repr)),
        )
