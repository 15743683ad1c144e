"""Tests for the experiment drivers (E1–E11)."""

import pytest

from repro.analysis import experiments
from repro.config import RunConfig


class TestMatrixExperiments:
    def test_figure3(self):
        result = experiments.experiment_figure3()
        assert not result.problems
        assert result.matches == 284
        assert result.tighter == 4
        assert "Figure 3" in result.summary

    def test_figure4(self):
        result = experiments.experiment_figure4()
        assert not result.problems
        assert result.matches == 288
        assert result.tighter == 0


class TestDisagreeExperiment:
    def test_reproduced(self):
        result = experiments.experiment_disagree()
        assert result.correct
        assert "REPRODUCED" in result.summary


class TestFig6Experiment:
    def test_scripted_trace_and_oscillation(self):
        result = experiments.experiment_fig6(polling_models=())
        assert result.trace_matches
        assert result.recurrence is not None
        assert result.oscillates_in_reo

    def test_rea_polling_safe(self):
        result = experiments.experiment_fig6(polling_models=("REA",))
        assert result.polling_safe
        assert "REA" in result.summary


class TestTraceRealizationExperiments:
    def test_fig7(self):
        result = experiments.experiment_fig7()
        assert result.correct
        assert result.impossible_mode == "exact"

    def test_fig8(self):
        result = experiments.experiment_fig8()
        assert result.correct
        assert result.possible_schedule is not None

    def test_fig9(self):
        result = experiments.experiment_fig9()
        assert result.correct
        assert result.target_model == "R1S"


class TestMultiNodeExperiment:
    def test_oscillates(self):
        result = experiments.experiment_multinode()
        assert result.oscillates
        assert "Ex. A.6" in result.summary


class TestDisputeWheelExperiment:
    def test_rows(self):
        result = experiments.experiment_dispute_wheels()
        rows = {name: (wheel, sols, osc) for name, wheel, sols, osc in result.rows}
        assert rows["DISAGREE"] == (True, 2, True)
        assert rows["BAD-GADGET"][0] is True
        assert rows["BAD-GADGET"][1] == 0
        assert rows["BAD-GADGET"][2] is True
        assert rows["GOOD-GADGET"] == (False, 1, False)
        assert rows["SHORTEST-RING-3"] == (False, 1, False)


class TestConvergenceRateExperiment:
    def test_runs_and_reports(self):
        survey = experiments.experiment_convergence_rates(
            n_instances=2, seeds_per_instance=2, model_names=("RMS", "REA"),
            config=RunConfig(workers=1, step_bound=200),
        )
        assert set(survey.per_model) == {"RMS", "REA"}
        for stats in survey.per_model.values():
            assert stats.runs == 4


class TestMessageOverheadExperiment:
    def test_all_models_converge_and_report(self):
        result = experiments.experiment_message_overhead(
            model_names=("R1O", "REA"), seed=1
        )
        assert set(result.rows) == {"R1O", "REA"}
        for name, (converged, steps, metrics) in result.rows.items():
            assert converged, name
            assert steps > 0
            assert metrics.announcements > 0
        assert "message overhead" in result.summary

    def test_polling_takes_fewer_steps(self):
        result = experiments.experiment_message_overhead(
            model_names=("R1O", "REA"), seed=0
        )
        assert result.rows["REA"][1] <= result.rows["R1O"][1]
