"""Experiment drivers, statistics, and reporting."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".": ["ablation", "artifacts", "experiments", "reporting", "stats", "traces"],
        ".artifacts": ["generate_artifacts"],
        ".experiments": [
            "experiment_convergence_rates",
            "experiment_disagree",
            "experiment_dispute_wheels",
            "experiment_fig6",
            "experiment_fig7",
            "experiment_fig8",
            "experiment_fig9",
            "experiment_figure3",
            "experiment_figure4",
            "experiment_message_overhead",
            "experiment_multinode",
            "matrix_certification",
        ],
        ".stats": [
            "ConvergenceSurvey",
            "ModelStats",
            "survey_convergence",
            "wilson_interval",
        ],
    },
)

__all__ = [
    "ConvergenceSurvey",
    "ModelStats",
    "experiment_convergence_rates",
    "experiment_disagree",
    "experiment_dispute_wheels",
    "experiment_fig6",
    "experiment_fig7",
    "experiment_fig8",
    "experiment_fig9",
    "experiment_figure3",
    "experiment_figure4",
    "experiment_message_overhead",
    "experiment_multinode",
    "ablation",
    "artifacts",
    "generate_artifacts",
    "experiments",
    "matrix_certification",
    "reporting",
    "stats",
    "survey_convergence",
    "traces",
    "wilson_interval",
]
