"""Tests for the convergence-rate survey machinery."""

from repro.analysis.stats import ModelStats, survey_convergence
from repro.config import RunConfig
from repro.core import instances as canonical
from repro.models.taxonomy import model


class TestModelStats:
    def test_rates(self):
        stats = ModelStats(model_name="R1O")
        stats.record(True, 10)
        stats.record(True, 20)
        stats.record(False, 400)
        assert stats.runs == 3
        assert stats.converged == 2
        assert stats.convergence_rate == 2 / 3
        assert stats.mean_steps == 15

    def test_empty_stats(self):
        stats = ModelStats(model_name="X")
        assert stats.convergence_rate == 0.0
        assert stats.mean_steps == 0.0


class TestSurvey:
    def test_safe_instances_converge_everywhere(self):
        survey = survey_convergence(
            [canonical.good_gadget(), canonical.linear_chain(2)],
            [model("R1O"), model("REA"), model("UMS")],
            seeds_per_instance=2,
            config=RunConfig(workers=1, step_bound=500),
        )
        for stats in survey.per_model.values():
            assert stats.convergence_rate == 1.0
            assert stats.runs == 4

    def test_bad_gadget_never_converges(self):
        survey = survey_convergence(
            [canonical.bad_gadget()],
            [model("RMS")],
            seeds_per_instance=3,
            config=RunConfig(workers=1, step_bound=300),
        )
        assert survey.rate("RMS") == 0.0

    def test_polling_beats_message_passing_on_disagree(self):
        """The paper's qualitative shape: DISAGREE always converges
        under polling (RMA), while message-passing runs may oscillate
        long enough to exhaust the budget under an adversarial-ish
        random scheduler.  At minimum, polling must do at least as
        well."""
        survey = survey_convergence(
            [canonical.disagree()],
            [model("RMA"), model("R1O")],
            seeds_per_instance=8,
            config=RunConfig(workers=1, step_bound=150),
        )
        assert survey.rate("RMA") == 1.0
        assert survey.rate("RMA") >= survey.rate("R1O")

    def test_table_formatting(self):
        survey = survey_convergence(
            [canonical.good_gadget()],
            [model("R1O")],
            seeds_per_instance=1,
            config=RunConfig(workers=1, step_bound=200),
        )
        table = survey.format_table()
        assert "R1O" in table
        assert "100.00%" in table

    def test_ordered_by_rate(self):
        survey = survey_convergence(
            [canonical.bad_gadget(), canonical.good_gadget()],
            [model("R1O"), model("REA")],
            seeds_per_instance=1,
            config=RunConfig(workers=1, step_bound=150),
        )
        ordered = survey.ordered_by_rate()
        rates = [stats.convergence_rate for stats in ordered]
        assert rates == sorted(rates, reverse=True)


class TestPercentiles:
    def test_nearest_rank(self):
        stats = ModelStats(model_name="X")
        for steps in (10, 20, 30, 40, 100):
            stats.record(True, steps)
        assert stats.steps_percentile(0.5) == 30
        assert stats.steps_percentile(1.0) == 100
        assert stats.steps_percentile(0.95) == 100

    def test_empty(self):
        assert ModelStats(model_name="X").steps_percentile(0.95) == 0.0

    def test_fraction_validated(self):
        import pytest

        stats = ModelStats(model_name="X")
        with pytest.raises(ValueError):
            stats.steps_percentile(0.0)
        with pytest.raises(ValueError):
            stats.steps_percentile(1.5)

    def test_table_includes_p95(self):
        from repro.core import instances as canonical
        from repro.models.taxonomy import model

        survey = survey_convergence(
            [canonical.good_gadget()], [model("R1O")],
            seeds_per_instance=2, config=RunConfig(workers=1, step_bound=300),
        )
        assert "p95 steps" in survey.format_table()
