"""Partial-order reduction for the bounded oscillation search.

The explorer expands every behaviourally distinct interleaving of
activation entries, but large fractions of those interleavings are
redundant: they differ only in *when* a node consumes a message whose
content it has already seen.  This module implements two sound
reductions, applied by both the reference :class:`~repro.engine.explorer.Explorer`
and the packed :class:`~repro.engine.packed.PackedExplorer` when
``reduction="ample"`` (the default; ``reduction="none"`` opts out):

**Extension-projection quotient.**  A known route ``ρ(c)`` and the
queued messages of a channel ``c = (u, v)`` influence the algorithm
only through the feasible extension ``ext_c(r) = v·r if permitted else
ε`` (Def. 2.3 step 2 forms candidates exclusively from extensions).
Mapping every route observed on ``c`` to a fixed *representative* of
its ``ext_c``-class (the first route in the codec's interning order
with the same extension) is therefore a strong bisimulation on
canonical states: it preserves π, queue lengths and emptiness, entry
menus, and every predicate of the fairness criterion.  States that
differ only in which ``ext``-equivalent route sits in ``ρ`` or in a
queue are merged.

**Redundant-message absorption.**  If the *front* message ``m`` of a
non-empty channel ``c`` satisfies ``rep(m) = rep(ρ(c))``, then the
entry "receiver of ``c`` reads one message from ``c``" is, in the
projected space, a pure queue-shortening no-op: ρ stays in its class,
the receiver's best response is unchanged (selection depends only on
extensions, and in-channel ρ values cannot have changed since the
receiver's last activation), hence no announcement fires.  The reducer
expands that absorption step as the *sole* successor of the state.
Soundness (DESIGN.md §7 gives the full argument): the absorption entry
commutes with every other entry — it touches only the front of ``c``
while other entries append to channel backs or read other channels —
and any fair cycle through the state must consume ``m`` somewhere
(a cycle that never services the permanently non-empty ``c`` violates
the fairness criterion itself), so rotating that consumption to the
front maps every fair cycle of the full graph onto one of the reduced
graph with pointwise shorter queues.  Guards: absorption is disabled
for E-scope models (their entries must list every in-channel, so a
single-channel read is not model-legal) and, for count-A models on
unreliable channels, restricted to singleton queues (an ∞-read of a
longer queue would consume more than the front message; reliable
count-A queues are already collapsed to length ≤ 1 by
canonicalization).

Because absorption only ever *shortens* queues, the reduced search can
terminate without truncation where the unreduced one hits the queue
bound: ``complete=True`` then certifies the absence of fair
oscillations among behaviours whose absorption normal form respects
the bound — a superset of the behaviours the unreduced bounded search
covers, so verdict-strength is monotone (differential tests pin this:
``oscillates`` never flips, ``complete`` only ever strengthens).

Classical static ample/persistent sets degenerate here — routing
gadgets are strongly connected, so every node's dependency closure is
the whole system — which is why the reduction is built from the two
dynamic, domain-specific rules above instead.
"""

from __future__ import annotations

from ..core.paths import EPSILON
from ..models.dimensions import NeighborScope
from ..obs import active as _telemetry
from ..obs import trace_span

__all__ = [
    "REDUCTIONS",
    "REDUCTION_REVISION",
    "validate_reduction",
    "route_universe",
    "representative_tables",
    "representative_paths",
    "absorption_allowed",
]

#: Recognized reduction modes.
REDUCTIONS = ("ample", "none")

#: Bumped whenever the reduction changes semantics or state counts —
#: part of every verdict-cache key, so stale cached results can never
#: be replayed against a different reducer.
REDUCTION_REVISION = 1


def validate_reduction(reduction: str) -> str:
    """Return ``reduction`` or raise on an unknown mode."""
    if reduction not in REDUCTIONS:
        raise ValueError(
            f"unknown reduction {reduction!r} (choose from {REDUCTIONS})"
        )
    return reduction


def route_universe(instance) -> tuple:
    """ε plus every permitted path, in the codec's interning order.

    Mirrors :class:`repro.engine.codec.InstanceCodec` exactly so the
    integer tables of :func:`representative_tables` index the codec's
    route ids directly.  Memoized on the instance — every
    explorer construction consults it (directly and via the
    representative tables), and the interning order is a pure function
    of the instance.
    """
    cached = instance.__dict__.get("_route_universe")
    if cached is not None:
        return cached
    routes = [EPSILON]
    seen = {EPSILON}
    for node in instance.sorted_nodes:
        for path in instance.permitted_at(node):
            if path not in seen:
                seen.add(path)
                routes.append(path)
    routes = tuple(routes)
    object.__setattr__(instance, "_route_universe", routes)
    return routes


def representative_tables(instance) -> tuple:
    """Per-channel route-id → representative-route-id tables.

    ``tables[cid][rid]`` is the first route id (in interning order)
    whose feasible extension through channel ``cid``'s receiver equals
    that of route ``rid`` — the canonical member of ``rid``'s
    ``ext``-class.  ε is always its own representative (its extension
    is ε, and ε is interned first).  Memoized on the instance, like the
    instance codec.
    """
    cached = instance.__dict__.get("_reduction_tables")
    if cached is not None:
        _telemetry().count("reduction.table_hits")
        return cached
    with trace_span("reduction.tables"):
        routes = route_universe(instance)
        tables = []
        for channel in instance.channels:
            receiver = channel[1]
            first: dict = {}
            table = []
            for rid, route in enumerate(routes):
                ext = instance.feasible_extension(receiver, route)
                table.append(first.setdefault(ext, rid))
            tables.append(tuple(table))
        tables = tuple(tables)
    _telemetry().count("reduction.table_builds")
    object.__setattr__(instance, "_reduction_tables", tables)
    return tables


def representative_paths(instance) -> dict:
    """The path-level twin of :func:`representative_tables`.

    Returns ``{channel: {route: representative route}}`` for the
    reference engine; representative choices coincide with the integer
    tables, which keeps the two engines bit-identical under reduction.
    """
    cached = instance.__dict__.get("_reduction_paths")
    if cached is not None:
        return cached
    tables = representative_tables(instance)
    with trace_span("reduction.tables"):
        routes = route_universe(instance)
        mapping = {
            channel: {
                routes[rid]: routes[table[rid]] for rid in range(len(routes))
            }
            for channel, table in zip(instance.channels, tables)
        }
    object.__setattr__(instance, "_reduction_paths", mapping)
    return mapping


def absorption_allowed(model) -> bool:
    """Whether the absorption rule may fire at all under ``model``.

    E-scope entries must process every in-channel of the updating node,
    so the single-channel absorption entry is not model-legal there
    (the projection quotient still applies).
    """
    return model.scope is not NeighborScope.EVERY
