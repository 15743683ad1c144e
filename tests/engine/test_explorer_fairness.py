"""Focused tests for the explorer's fair-oscillation criterion.

The SCC criterion (DESIGN.md note 5) is the heart of every
cannot-oscillate proof, so its clauses are exercised one by one.
"""

import pytest

from repro.config import RunConfig
from repro.core.builders import SPPBuilder
from repro.core.instances import disagree
from repro.engine.explorer import Explorer, can_oscillate
from repro.models.taxonomy import model


class TestPiDiversityClause:
    def test_single_assignment_cycles_are_not_oscillations(self):
        """A convergent instance's state graph still has trivial SCCs
        (e.g. no-op self-structures); none may count as oscillation."""
        instance = (
            SPPBuilder("d").node("x", "xd").node("y", "yd").build("STATIC")
        )
        for name in ("R1O", "RMS", "U1S"):
            result = can_oscillate(
                instance, model(name), config=RunConfig(queue_bound=3)
            )
            assert not result.oscillates
            assert result.complete


class TestChannelServiceClause:
    def test_disagree_witness_services_every_busy_channel(self):
        """Within the witness cycle, every channel is either processed
        by some entry or empty at some point of the cycle — otherwise
        the loop could not be extended fairly."""
        instance = disagree()
        explorer = Explorer(instance, model("R1O"), queue_bound=3)
        result = explorer.explore()
        witness = result.witness
        from repro.engine.execution import Execution

        execution = Execution(instance)
        for entry in witness.prefix:
            execution.step(entry)
        # Track service over one period.
        processed = set()
        empty_somewhere = set()
        for entry in witness.cycle:
            for channel in instance.channels:
                if not execution.state.channel_contents(channel):
                    empty_somewhere.add(channel)
            for channel, count in entry.reads.items():
                if count != 0:
                    processed.add(channel)
            execution.step(entry)
        non_dest = [
            c for c in instance.channels if c[1] != instance.dest
        ]
        for channel in non_dest:
            assert channel in processed or channel in empty_somewhere, channel


class TestDropClause:
    def test_unreliable_witnesses_do_not_drop_forever(self):
        """In a U-model witness cycle, any channel dropped from is also
        delivered from (Def. 2.4's drop fairness)."""
        instance = disagree()
        result = can_oscillate(instance, model("U1O"), config=RunConfig(queue_bound=3))
        witness = result.witness
        assert witness is not None
        dropped_from = set()
        delivered_from = set()
        for entry in witness.cycle:
            for channel, count in entry.reads.items():
                if count == 0:
                    continue
                drops = entry.drop_set(channel)
                if drops:
                    dropped_from.add(channel)
                if count == float("inf") or len(drops) < count:
                    delivered_from.add(channel)
        assert dropped_from <= delivered_from | {
            c for c in instance.channels if c[1] == instance.dest
        }


class TestDestinationProjectionSoundness:
    def test_projection_does_not_create_false_negatives(self):
        """Raising the queue bound (which lets the un-projected states
        grow) never flips a safe verdict on the projected graph."""
        instance = disagree()
        for bound in (2, 3, 4):
            result = can_oscillate(
                instance, model("REA"), config=RunConfig(queue_bound=bound)
            )
            assert not result.oscillates
            assert result.complete

    def test_projection_does_not_create_false_positives(self):
        """A gadget whose only 'cycle' would involve destination-bound
        channels must stay convergent."""
        instance = (
            SPPBuilder("d")
            .node("x", "xd")
            .node("y", "yxd", "yd")
            .build("FUNNEL")
        )
        for name in ("R1O", "UMS"):
            result = can_oscillate(
                instance, model(name), config=RunConfig(queue_bound=3)
            )
            assert not result.oscillates
            assert result.complete


class TestEveryScopeNodeClause:
    def test_e_scope_safety_requires_whole_node_activations(self):
        """REO on DISAGREE is safe precisely because an activated node
        must drain one message from *every* channel — the criterion's
        per-node clause."""
        result = can_oscillate(
            disagree(), model("REO"), config=RunConfig(queue_bound=4)
        )
        assert not result.oscillates
        assert result.complete
