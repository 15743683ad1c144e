"""Tests for the transitivity closure — the engine behind Figures 3/4."""

import hashlib

import pytest

from repro.models.taxonomy import ALL_MODELS, model
from repro.realization.closure import RealizationMatrix, derive_matrix
from repro.realization.facts import Fact, foundational_facts
from repro.realization.paper_tables import (
    FIGURE3_COLUMNS,
    FIGURE4_COLUMNS,
    compare_with_derived,
)
from repro.realization.relations import Bounds, Level


@pytest.fixture(scope="module")
def derived():
    return derive_matrix()


class TestClosureMechanics:
    def test_empty_matrix_is_unknown(self):
        matrix = RealizationMatrix()
        assert matrix.get(model("R1O"), model("RMS")).is_unknown

    def test_set_tightens(self):
        matrix = RealizationMatrix()
        changed = matrix.set(
            model("R1O"), model("RMS"), Bounds.at_least(Level.REPETITION)
        )
        assert changed
        assert not matrix.set(
            model("R1O"), model("RMS"), Bounds.at_least(Level.SUBSEQUENCE)
        )

    def test_contradiction_raises_with_context(self):
        matrix = RealizationMatrix()
        matrix.set(model("R1O"), model("RMS"), Bounds.at_least(Level.EXACT))
        with pytest.raises(ValueError, match="contradiction"):
            matrix.set(model("R1O"), model("RMS"), Bounds.at_most(Level.NONE))

    def test_positive_composition(self):
        matrix = RealizationMatrix()
        matrix.set(model("R1O"), model("RMO"), Bounds.at_least(Level.EXACT))
        matrix.set(model("RMO"), model("RMS"), Bounds.at_least(Level.REPETITION))
        matrix.close()
        assert matrix.get(model("R1O"), model("RMS")).lo >= Level.REPETITION

    def test_negative_push(self):
        """lo(A→B) > hi(A→C) caps hi(B→C)."""
        matrix = RealizationMatrix()
        a, b, c = model("REA"), model("RMS"), model("R1O")
        matrix.set(a, b, Bounds.at_least(Level.EXACT))
        matrix.set(a, c, Bounds.at_most(Level.SUBSEQUENCE))
        matrix.close()
        assert matrix.get(b, c).hi <= Level.SUBSEQUENCE

    def test_closure_terminates_quickly(self):
        matrix = RealizationMatrix()
        matrix.absorb_facts(foundational_facts())
        rounds = matrix.close()
        assert rounds < 12


class TestAgainstThePaper:
    def test_no_contradictions_or_loose_entries(self, derived):
        comparisons = compare_with_derived(derived)
        verdicts = {c.verdict for c in comparisons}
        assert "contradiction" not in verdicts
        assert "incomparable" not in verdicts
        assert "looser" not in verdicts

    def test_figure3_reproduced(self, derived):
        comparisons = compare_with_derived(derived, columns=FIGURE3_COLUMNS)
        matches = sum(1 for c in comparisons if c.verdict == "match")
        assert matches >= 284  # 288 entries, ≥ 284 byte-identical

    def test_figure4_reproduced(self, derived):
        comparisons = compare_with_derived(derived, columns=FIGURE4_COLUMNS)
        matches = sum(1 for c in comparisons if c.verdict == "match")
        assert matches == 288  # every Figure 4 entry matches

    def test_the_four_tighter_entries(self, derived):
        """Pure rule-chasing resolves four cells the paper leaves as
        bounds: U1O/UMO realized by R1O/RMO are exactly subsequence."""
        tighter = {
            (c.realized.name, c.realizer.name)
            for c in compare_with_derived(derived)
            if c.verdict == "tighter"
        }
        assert tighter == {
            ("U1O", "R1O"),
            ("U1O", "RMO"),
            ("UMO", "R1O"),
            ("UMO", "RMO"),
        }

    def test_spot_check_headline_entries(self, derived):
        # UMS exactly realizes everything (Sec. 3.5).
        ums = model("UMS")
        for m in ALL_MODELS:
            assert derived.get(m, ums).lo == Level.EXACT, m.name
        # RMS exactly realizes all reliable models.
        rms = model("RMS")
        for m in ALL_MODELS:
            if m.is_reliable:
                assert derived.get(m, rms).lo == Level.EXACT, m.name
        # R1O realizes R1S as a subsequence and provably no better.
        assert derived.get(model("R1S"), model("R1O")) == Bounds.exactly(
            Level.SUBSEQUENCE
        )


class TestHeadlineSummaries:
    def test_universal_oscillation_realizers(self, derived):
        """Sec. 3.5: among reliable models exactly R1O, RMO, R1S, RMS,
        RES, R1F, RMF capture all oscillations of all other models."""
        universal = {m.name for m in derived.universal_realizers()}
        reliable = {name for name in universal if name.startswith("R")}
        assert reliable == {"R1O", "RMO", "R1S", "RMS", "RES", "R1F", "RMF"}

    def test_non_preservers(self, derived):
        assert {m.name for m in derived.non_preservers()} == {
            "REO", "REF", "R1A", "RMA", "REA",
        }

    def test_row_and_column_views(self, derived):
        row = derived.row(model("R1O"))
        assert row[model("RMS")].lo == Level.EXACT
        column = derived.column(model("RMS"))
        assert column[model("R1O")].lo == Level.EXACT


class TestExplain:
    def test_explanations_ground_in_facts(self, derived):
        lines = derived.explain(model("REA"), model("R1O"))
        text = "\n".join(lines)
        assert "R1O realizes REA: 2" in text
        assert "Prop. 3.11" in text or "Prop. 3.3" in text
        # Every leaf of the derivation is a named foundational result.
        leaves = [l for l in lines if "Prop." in l or "Thm." in l or "identity" in l]
        assert leaves

    def test_identity_explanation(self, derived):
        lines = derived.explain(model("RMS"), model("RMS"))
        assert any("identity" in line for line in lines)

    def test_tighter_cell_explanation_cites_the_chain(self, derived):
        """The beyond-paper cell (U1O realized by R1O) = subsequence must
        trace through Prop. 3.11 (the REA obstruction)."""
        text = "\n".join(derived.explain(model("U1O"), model("R1O")))
        assert "hi=2" in text
        assert "Prop. 3.11" in text
        assert "Thm. 3.7" in text  # the lo side goes through R1S


class TestSyntacticContainmentConsistency:
    def test_containment_implies_exact_realization(self, derived):
        """Prop. 3.3 generalized: whenever B's activation sequences
        syntactically include A's, the closed matrix has lo = exact."""
        for a in ALL_MODELS:
            for b in ALL_MODELS:
                if b.syntactically_contains(a):
                    assert derived.get(a, b).lo == Level.EXACT, (a.name, b.name)


class TestClosureGolden:
    """The closure's full output, pinned byte for byte: every entry's
    cell, every ``explain`` derivation and the round count."""

    #: sha256 of the lines below, recorded with the pairwise
    #: (``Bounds``-keyed) fixpoint loop the integer-indexed one replaced.
    GOLDEN = "e4909397c4ec5cad05ffbf1561263a82d4f9be69dbe5bdb01b49070f24702276"

    def test_every_cell_and_derivation(self):
        matrix = RealizationMatrix()
        matrix.absorb_facts(foundational_facts())
        rounds = matrix.close()
        lines = [f"rounds {rounds}"]
        for a in ALL_MODELS:
            for b in ALL_MODELS:
                lines.append(f"{a} {b} {matrix.get(a, b).render()}")
                lines.extend(matrix.explain(a, b))
        assert rounds == 3
        assert len(lines) == 4397
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.GOLDEN

    @pytest.mark.parametrize(
        "facts, message",
        [
            (
                [
                    ("R1O", "RMO", Bounds.at_least(Level.EXACT)),
                    ("RMO", "RMS", Bounds.at_least(Level.EXACT)),
                    ("R1O", "RMS", Bounds.at_most(Level.NONE)),
                ],
                "contradiction at (R1O realized by RMS): "
                "inconsistent realization bounds: -1 versus 4",
            ),
            (
                [
                    ("REA", "RMS", Bounds.at_least(Level.EXACT)),
                    ("REA", "R1O", Bounds.at_most(Level.SUBSEQUENCE)),
                    ("RMS", "R1O", Bounds.at_least(Level.REPETITION)),
                ],
                "contradiction at (REA realized by RMS): "
                "inconsistent realization bounds: 4 versus <=2",
            ),
            (
                [
                    ("UEA", "U1O", Bounds.at_least(Level.EXACT)),
                    ("UMS", "U1O", Bounds.at_most(Level.OSCILLATION)),
                    ("UMS", "UEA", Bounds.at_least(Level.REPETITION)),
                ],
                "contradiction at (UMS realized by U1O): "
                "inconsistent realization bounds: <=1 versus >=3",
            ),
        ],
        ids=["compose", "pull", "compose-under-cap"],
    )
    def test_contradiction_met_inside_close(self, facts, message):
        """Facts that agree pairwise but contradict once closed."""
        matrix = RealizationMatrix()
        for realized, realizer, bounds in facts:
            matrix.set(model(realized), model(realizer), bounds)
        with pytest.raises(ValueError) as raised:
            matrix.close()
        assert str(raised.value) == message
