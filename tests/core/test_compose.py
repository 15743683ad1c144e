"""Tests for instance renaming and shared-destination composition."""

import pytest

from repro.config import RunConfig
from repro.core import instances as canonical
from repro.core.compose import rename_nodes, shared_destination_union
from repro.core.dispute import has_dispute_wheel
from repro.core.solutions import enumerate_stable_solutions
from repro.engine.explorer import can_oscillate
from repro.models.taxonomy import model


class TestRename:
    def test_prefix_rename(self, disagree):
        renamed = rename_nodes(disagree, prefix="p.")
        assert "p.x" in renamed.nodes
        assert renamed.dest == "d"
        assert renamed.permitted_at("p.x")[0] == ("p.x", "p.y", "d")

    def test_custom_renamer_can_move_destination(self, disagree):
        renamed = rename_nodes(disagree, renamer=lambda n: f"{n}{n}")
        assert renamed.dest == "dd"
        assert renamed.permitted_at("xx")[0] == ("xx", "yy", "dd")

    def test_requires_renamer_or_prefix(self, disagree):
        with pytest.raises(ValueError):
            rename_nodes(disagree)

    def test_rename_preserves_solution_structure(self, disagree):
        renamed = rename_nodes(disagree, prefix="q.")
        assert len(list(enumerate_stable_solutions(renamed))) == 2
        assert has_dispute_wheel(renamed)


class TestUnion:
    def test_solutions_multiply(self):
        union = shared_destination_union(
            [canonical.disagree(), canonical.disagree()]
        )
        assert len(list(enumerate_stable_solutions(union))) == 4

    def test_safety_carries_over(self):
        union = shared_destination_union(
            [canonical.good_gadget(), canonical.linear_chain(2)]
        )
        assert not has_dispute_wheel(union)
        result = can_oscillate(union, model("RMS"), config=RunConfig(queue_bound=2))
        assert not result.oscillates

    def test_divergence_carries_over_from_one_component(self):
        union = shared_destination_union(
            [canonical.good_gadget(), canonical.bad_gadget()]
        )
        assert has_dispute_wheel(union)
        assert can_oscillate(
            union, model("R1O"), config=RunConfig(queue_bound=2)
        ).oscillates

    def test_oscillation_model_dependence_is_preserved(self):
        """DISAGREE ⊕ chain inherits DISAGREE's verdict pattern."""
        union = shared_destination_union(
            [canonical.disagree(), canonical.linear_chain(1)]
        )
        assert can_oscillate(
            union, model("R1O"), config=RunConfig(queue_bound=3)
        ).oscillates
        safe = can_oscillate(union, model("REA"), config=RunConfig(queue_bound=2))
        assert not safe.oscillates and safe.complete

    def test_destination_mismatch_rejected(self):
        other = rename_nodes(canonical.disagree(), renamer=lambda n: f"z{n}")
        with pytest.raises(ValueError, match="share the destination"):
            shared_destination_union([canonical.disagree(), other])

    def test_collision_detection_without_auto_prefix(self):
        with pytest.raises(ValueError, match="share nodes"):
            shared_destination_union(
                [canonical.disagree(), canonical.disagree()],
                auto_prefix=False,
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            shared_destination_union([])

    def test_matches_disagree_grid(self):
        """The grid factory is the special case of the combinator."""
        union = shared_destination_union(
            [canonical.disagree(), canonical.disagree()]
        )
        grid = canonical.disagree_grid(2)
        assert len(union.nodes) == len(grid.nodes)
        assert len(list(enumerate_stable_solutions(union))) == len(
            list(enumerate_stable_solutions(grid))
        )
