"""Constructive activation-sequence transformations from the proofs.

Each function takes a schedule that is legal in the *realized* model and
returns a schedule legal in the *realizing* model whose induced
π-sequence relates to the original as the corresponding result claims:

=========================== ============ =======================
function                    result       relation
=========================== ============ =======================
:func:`embed`               Prop. 3.3    exact (same schedule)
:func:`pad_to_every_scope`  Prop. 3.4    exact
:func:`split_multi_scope`   Thm. 3.5     with repetition
:func:`expand_r1s_to_r1o`   Prop. 3.6    subsequence
:func:`expand_u1s_to_u1o`   Prop. 3.6    with repetition
:func:`batch_u1o_to_r1s`    Thm. 3.7     exact
=========================== ============ =======================

The transforms that depend on runtime quantities (how many messages a
step actually consumed, which channel supplied the selected route) run
the source execution to obtain them — the proofs do the same thing
implicitly when they speak of "the channel from which v learns the path
it selects".  Every transform is verified end-to-end by the test suite
using :mod:`repro.realization.verify`.
"""

from __future__ import annotations

from typing import Sequence

from ..core.paths import EPSILON, next_hop
from ..core.spp import SPPInstance
from ..engine.activation import INFINITY, ActivationEntry
from ..engine.execution import Execution, apply_entry
from ..engine.state import NetworkState
from ..models.constraints import require_legal_entry
from ..models.taxonomy import CommunicationModel

__all__ = [
    "embed",
    "pad_to_every_scope",
    "split_multi_scope",
    "expand_r1s_to_r1o",
    "expand_u1s_to_u1o",
    "batch_u1o_to_r1s",
    "find_noop_entry",
]


def embed(
    instance: SPPInstance,
    schedule: Sequence[ActivationEntry],
    target: CommunicationModel,
) -> tuple:
    """Prop. 3.3: a schedule re-used verbatim in a more general model.

    Verifies legality in ``target`` and returns the schedule unchanged —
    the containments U ⊇ R, M ⊇ {1, E}, S ⊇ F ⊇ {O, A} are syntactic.
    """
    for entry in schedule:
        require_legal_entry(target, instance, entry)
    return tuple(schedule)


def pad_to_every_scope(
    instance: SPPInstance, schedule: Sequence[ActivationEntry]
) -> tuple:
    """Prop. 3.4 (wMS → wES): pad each step's channel set with f = 0 reads.

    The padded channels process nothing, so the induced execution is
    bitwise identical — an exact realization.
    """
    padded = []
    for entry in schedule:
        node = entry.node
        channels = instance.in_channels(node)
        reads = {channel: 0 for channel in channels}
        reads.update(entry.reads)
        padded.append(
            ActivationEntry(
                nodes=[node], channels=channels, reads=reads, drops=entry.drops
            )
        )
    return tuple(padded)


def find_noop_entry(
    instance: SPPInstance,
    state: NetworkState,
    count: "int | float" = 1,
) -> ActivationEntry:
    """A single-channel entry that provably leaves ``state`` unchanged.

    Used to pad realizations-with-repetition when the source model takes
    a step that changes nothing (e.g. an M-scope step with X = ∅) and
    the target model cannot take an empty step.  Reading an *empty*
    channel of a node whose assignment is already settled is such a
    no-op; one always exists in the schedules our transforms handle, and
    a ``LookupError`` is raised otherwise.
    """
    for channel in instance.channels:
        if state.channel_contents(channel):
            continue
        entry = ActivationEntry.single(channel[1], channel, count=count)
        next_state, _ = apply_entry(instance, state, entry)
        if next_state == state:
            return entry
    raise LookupError("no state-preserving single-channel read exists here")


def _same_node_noop(
    instance: SPPInstance,
    state: NetworkState,
    node,
    count: "int | float" = 1,
) -> ActivationEntry:
    """An entry activating ``node`` that reads nothing (empty channel).

    Needed when a source step performs no reads yet still *announces*
    (the destination's kickoff): the realizing model must activate the
    same node, and reading an empty channel does so without consuming
    messages the source kept.  Raises ``LookupError`` when every channel
    of the node is busy (a corner the paper's constructions silently
    assume away; it cannot arise before the node's first announcement
    in the schedules our schedulers and examples produce).
    """
    for channel in instance.in_channels(node):
        if not state.channel_contents(channel):
            return ActivationEntry.single(node, channel, count=count)
    raise LookupError(
        f"every channel of {node!r} holds messages; cannot mirror a "
        "read-free activation"
    )


def split_multi_scope(
    instance: SPPInstance,
    schedule: Sequence[ActivationEntry],
    padding_count: "int | float" = 1,
) -> tuple:
    """Thm. 3.5 (wMy → w1y): split multi-channel steps, ordered carefully.

    Each step processing channels X = {c₁…c_k} becomes k single-channel
    steps.  The proof's ordering rule keeps the intermediate assignments
    from straying: the channel ``c`` supplying the *newly selected* path
    goes first and the channel ``d`` that supplied the *previous* path
    goes last; if they coincide, the position depends on whether the new
    path outranks the old.  Empty steps (X = ∅) become no-op reads so the
    block structure of exact-realization-with-repetition is preserved.

    ``padding_count`` is the f-value used for those fabricated no-op
    reads: leave it at 1 for y ∈ {O, S, F}; pass
    :data:`~repro.engine.activation.INFINITY` when the target model is
    w1A (where every read must request all messages).
    """
    execution = Execution(instance)
    result: list = []
    previous_hop_channel: dict = {}

    for entry in schedule:
        node = entry.node
        state_before = execution.state
        old_path = state_before.path_of(node)
        old_source = previous_hop_channel.get(node)
        if old_source is None and old_path != EPSILON and len(old_path) >= 2:
            old_source = (next_hop(old_path), node)
        record = execution.step(entry)
        new_path = execution.state.path_of(node)
        new_source = record.selected_source.get(node)

        channels = sorted(entry.channels, key=repr)
        if not channels:
            if record.announcements:
                # A read-free step that announced (destination kickoff):
                # the target must activate the same node.
                result.append(
                    _same_node_noop(
                        instance, state_before, node, count=padding_count
                    )
                )
            else:
                result.append(
                    find_noop_entry(instance, state_before, count=padding_count)
                )
            continue
        ordered = _order_channels(
            instance, node, channels, old_path, new_path, old_source, new_source
        )
        for channel in ordered:
            result.append(
                ActivationEntry(
                    nodes=[node],
                    channels=[channel],
                    reads={channel: entry.read_count(channel)},
                    drops={channel: entry.drop_set(channel)},
                )
            )
        previous_hop_channel[node] = new_source
    return tuple(result)


def _order_channels(
    instance, node, channels, old_path, new_path, old_source, new_source
) -> list:
    ordered = list(channels)

    def move_to_front(channel) -> None:
        ordered.remove(channel)
        ordered.insert(0, channel)

    def move_to_back(channel) -> None:
        ordered.remove(channel)
        ordered.append(channel)

    if new_source != old_source:
        if new_source in ordered:
            move_to_front(new_source)
        if old_source in ordered and len(ordered) > 1:
            move_to_back(old_source)
    elif new_source in ordered:
        # Same channel supplied both paths: position depends on rank.
        if new_path != EPSILON and old_path != EPSILON:
            if instance.rank_of(node, new_path) < instance.rank_of(node, old_path):
                move_to_front(new_source)
            else:
                move_to_back(new_source)
        else:
            move_to_front(new_source)
    return ordered


def expand_r1s_to_r1o(
    instance: SPPInstance, schedule: Sequence[ActivationEntry]
) -> tuple:
    """Prop. 3.6 (R1S → R1O): realize batched reads as single reads.

    The proof "flags" the announcements a node emits at the end of each
    batch; a later batch consuming ``j`` (R1S-level) messages is
    realized by single reads that consume messages up to and including
    the ``j``-th flagged one, absorbing the unflagged transients the
    R1O system generated mid-batch.  The result realizes the R1S
    π-sequence as a subsequence.
    """
    source = Execution(instance)
    target = Execution(instance)
    # Per channel, a flag per queued message (parallel to the queue).
    flags: dict = {channel: [] for channel in instance.channels}
    result: list = []

    for entry in schedule:
        node = entry.node
        (channel,) = sorted(entry.channels, key=repr)
        available = source.state.message_count(channel)
        requested = entry.read_count(channel)
        batch = available if requested == INFINITY else min(requested, available)
        record = source.step(entry)
        if batch == 0:
            if record.announcements:
                # The step read nothing yet announced — the destination's
                # kickoff (π_d ≠ last announcement).  Mirror it with a
                # no-op read and flag the announcement: the R1S system
                # sent the same message.
                result.append(
                    _mirror_readless_step(instance, target, node, flags)
                )
            else:
                # A read-nothing step still emits one assignment into the
                # source π-sequence; give the target a matching no-op so
                # trailing repeats embed as a subsequence.
                try:
                    noop = _same_node_noop(instance, target.state, node)
                except LookupError:
                    noop = find_noop_entry(instance, target.state)
                result.append(noop)
                target.step(noop)
            continue
        consumed_flags = 0
        start_path = target.state.path_of(node)
        while consumed_flags < batch:
            single = ActivationEntry.single(node, channel, count=1)
            result.append(single)
            if not flags[channel]:
                raise AssertionError(
                    "flag bookkeeping lost synchronization with the channel"
                )
            was_flagged = flags[channel].pop(0)
            record = target.step(single)
            if was_flagged:
                consumed_flags += 1
            last_batch_read = consumed_flags == batch
            _register_announcements(
                flags, record, flag_value=False
            )
            if last_batch_read:
                _flag_last_batch_announcements(
                    flags, target, node, start_path, instance
                )
        if target.state.path_of(node) != source.state.path_of(node):
            raise AssertionError("R1O expansion diverged from the R1S run")
    return tuple(result)


def _register_announcements(flags, record, flag_value: bool) -> None:
    for channel, _ in record.announcements:
        flags[channel].append(flag_value)


def _mirror_readless_step(
    instance: SPPInstance, target: Execution, node, flags
) -> ActivationEntry:
    """Replay a read-nothing-but-announce step (destination kickoff).

    Chooses an in-channel whose read is harmless in the target system:
    preferably an empty one, otherwise one whose oldest message is an
    unflagged transient (consuming it cannot upset later batch
    bookkeeping; the value lands in a ρ entry the destination never
    uses).
    """
    chosen = None
    for candidate in instance.in_channels(node):
        if not target.state.channel_contents(candidate):
            chosen = candidate
            break
    if chosen is None:
        for candidate in instance.in_channels(node):
            if flags[candidate] and not flags[candidate][0]:
                chosen = candidate
                break
    if chosen is None:
        raise LookupError(
            f"no harmless channel available to mirror {node!r}'s kickoff"
        )
    if target.state.channel_contents(chosen):
        flags[chosen].pop(0)
    entry = ActivationEntry.single(node, chosen, count=1)
    record = target.step(entry)
    _register_announcements(flags, record, flag_value=True)
    return entry


def _flag_last_batch_announcements(
    flags, target: Execution, node, start_path, instance: SPPInstance
) -> None:
    """Promote the batch's net announcement (if any) to flagged status.

    The most recent message the node wrote on each out-channel carries
    the batch's final assignment exactly when the assignment changed
    over the batch; that message is the one the R1S system also sends.
    """
    end_path = target.state.path_of(node)
    if end_path == start_path:
        return
    for out_channel in instance.out_channels(node):
        queue = target.state.channel_contents(out_channel)
        if queue and queue[-1] == end_path and flags[out_channel]:
            flags[out_channel][-1] = True


def expand_u1s_to_u1o(
    instance: SPPInstance, schedule: Sequence[ActivationEntry]
) -> tuple:
    """Prop. 3.6 (U1S → U1O): one lossy read per batched message.

    A batch that processes messages 1…j and uses index ``u`` (the
    largest non-dropped index) becomes j single reads dropping every
    message except the ``u``-th.  Only the used message survives, so the
    target run repeats assignments but never strays — an exact
    realization with repetition.  Batches that touch nothing become
    no-op reads to preserve the block structure.
    """
    source = Execution(instance)
    result: list = []
    for entry in schedule:
        node = entry.node
        (channel,) = sorted(entry.channels, key=repr)
        available = source.state.message_count(channel)
        requested = entry.read_count(channel)
        batch = available if requested == INFINITY else min(requested, available)
        dropped = entry.drop_set(channel)
        surviving = [i for i in range(1, batch + 1) if i not in dropped]
        used = surviving[-1] if surviving else None
        state_before = source.state
        record = source.step(entry)
        if batch == 0:
            if available == 0:
                # The channel is empty in both systems; re-activating the
                # same node on it is a faithful no-op (and performs the
                # destination kickoff when applicable).
                result.append(ActivationEntry.single(node, channel, count=1))
            elif record.announcements:
                result.append(_same_node_noop(instance, state_before, node))
            else:
                result.append(find_noop_entry(instance, state_before))
            continue
        for index in range(1, batch + 1):
            drop = () if index == used else (1,)
            result.append(
                ActivationEntry.single(node, channel, count=1, drop=drop)
            )
    return tuple(result)


def batch_u1o_to_r1s(
    instance: SPPInstance, schedule: Sequence[ActivationEntry]
) -> tuple:
    """Thm. 3.7 (U1O → R1S): drops become deferred batched reads.

    A dropped U1O read becomes an f = 0 no-op; a delivering read becomes
    a batch consuming every message the U1O system consumed on that
    channel since (and including) the last delivery — the batch's last
    message is precisely the delivered one, so ρ, π and all subsequent
    announcements coincide step for step: an exact realization.
    """
    source = Execution(instance)
    consumed_since_delivery: dict = {channel: 0 for channel in instance.channels}
    result: list = []
    for entry in schedule:
        node = entry.node
        (channel,) = sorted(entry.channels, key=repr)
        record = source.step(entry)
        consumed = len(record.processed.get(channel, ()))
        consumed_since_delivery[channel] += consumed
        delivered = consumed == 1 and 1 not in entry.drop_set(channel)
        if delivered:
            batch = consumed_since_delivery[channel]
            consumed_since_delivery[channel] = 0
            result.append(
                ActivationEntry.single(node, channel, count=batch)
            )
        else:
            result.append(ActivationEntry.single(node, channel, count=0))
    return tuple(result)
