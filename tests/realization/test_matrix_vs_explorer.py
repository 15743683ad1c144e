"""Cross-validation: the derived matrix versus concrete model checking.

The realization matrix makes *universal* claims ("every execution of A
embeds in B"); the explorer decides *existential* ones ("this instance
can oscillate under M").  The two meet at oscillation preservation
(Def. 3.1): whenever B realizes A at any positive level and instance I
oscillates under A, I must oscillate under B.  These tests check that
implication over the paper's gadgets for every ordered model pair —
several hundred concrete instantiations of Def. 3.1.
"""

import pytest

from repro.config import RunConfig
from repro.core import instances as canonical
from repro.engine.explorer import can_oscillate
from repro.models.taxonomy import ALL_MODELS
from repro.realization.closure import derive_matrix
from repro.realization.relations import Level


@pytest.fixture(scope="module")
def matrix():
    return derive_matrix()


@pytest.fixture(scope="module")
def disagree_verdicts():
    instance = canonical.disagree()
    return {
        m: can_oscillate(
            instance, m, config=RunConfig(queue_bound=3)
        ) for m in ALL_MODELS
    }


class TestOscillationPreservationOnDisagree:
    def test_positive_cells_transport_oscillation(self, matrix, disagree_verdicts):
        """lo(A→B) ≥ oscillation ∧ A oscillates ⇒ B oscillates."""
        violations = []
        for a in ALL_MODELS:
            if not disagree_verdicts[a].oscillates:
                continue
            for b in ALL_MODELS:
                if matrix.get(a, b).lo >= Level.OSCILLATION:
                    if not disagree_verdicts[b].oscillates:
                        violations.append((a.name, b.name))
        assert not violations

    def test_safe_models_only_realize_safe_models_positively(
        self, matrix, disagree_verdicts
    ):
        """Contrapositive: if B is DISAGREE-safe (complete search) it
        cannot positively realize any DISAGREE-oscillating model."""
        for b in ALL_MODELS:
            verdict = disagree_verdicts[b]
            if verdict.oscillates or not verdict.complete:
                continue
            for a in ALL_MODELS:
                if disagree_verdicts[a].oscillates:
                    assert matrix.get(a, b).lo < Level.OSCILLATION, (
                        a.name,
                        b.name,
                    )

    def test_negative_cells_match_thm_38_evidence(self, matrix, disagree_verdicts):
        """Every hi = NONE cell in the R1O row is explained by DISAGREE:
        the realizer is DISAGREE-safe while R1O oscillates."""
        r1o = next(m for m in ALL_MODELS if m.name == "R1O")
        assert disagree_verdicts[r1o].oscillates
        for b in ALL_MODELS:
            if matrix.get(r1o, b).hi == Level.NONE:
                verdict = disagree_verdicts[b]
                assert not verdict.oscillates, b.name
                assert verdict.complete, b.name


class TestOscillationPreservationOnBadGadget:
    def test_universally_divergent_instance_is_model_independent(self, matrix):
        """BAD GADGET oscillates under every model, so it can never
        witness a negative realization cell — sanity for the evidence
        logic above."""
        instance = canonical.bad_gadget()
        sample = [m for m in ALL_MODELS if m.name in (
            "R1O", "REO", "REF", "R1A", "RMA", "REA", "UEA", "UMS",
        )]
        for m in sample:
            assert can_oscillate(
                instance, m, config=RunConfig(queue_bound=2)
            ).oscillates, m.name


class TestUniversalRealizersAgainstGadgets:
    def test_universal_realizers_oscillate_wherever_anything_does(
        self, matrix, disagree_verdicts
    ):
        anything_oscillates = any(
            v.oscillates for v in disagree_verdicts.values()
        )
        assert anything_oscillates
        for b in matrix.universal_realizers():
            assert disagree_verdicts[b].oscillates, b.name
