"""Write the reproduction's artifacts to disk.

``generate_artifacts(directory)`` regenerates the paper-facing outputs
— the derived Figures 3/4 with their comparison reports, the
realization lattice (DOT), the per-gadget oscillation verdicts, and the
extension experiments' tables — as plain-text files suitable for
diffing against future runs or attaching to a report.

The heavyweight exhaustive verifications (Fig. 6 polling, multi-node
sweeps) are included only with ``full=True``.
"""

from __future__ import annotations

from pathlib import Path

from ..realization.closure import _shared_matrix
from . import experiments, reporting

__all__ = ["generate_artifacts"]


def _write(directory: Path, name: str, content: str) -> Path:
    path = directory / name
    path.write_text(content.rstrip() + "\n", encoding="utf-8")
    return path


def generate_artifacts(directory: "str | Path", full: bool = False) -> list:
    """Write every artifact; returns the list of paths created."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list = []

    matrix = _shared_matrix()
    fig3 = experiments.experiment_figure3()
    fig4 = experiments.experiment_figure4()
    written.append(_write(directory, "figure3.txt", fig3.matrix_text))
    written.append(_write(directory, "figure4.txt", fig4.matrix_text))
    written.append(
        _write(
            directory,
            "figure3_comparison.txt",
            fig3.summary,
        )
    )
    written.append(
        _write(
            directory,
            "figure4_comparison.txt",
            fig4.summary,
        )
    )
    written.append(
        _write(
            directory,
            "realization_exact.dot",
            reporting.render_realization_dot(matrix, level_name="EXACT"),
        )
    )
    written.append(
        _write(
            directory,
            "realization_oscillation.dot",
            reporting.render_realization_dot(matrix, level_name="OSCILLATION"),
        )
    )

    disagree = experiments.experiment_disagree()
    written.append(_write(directory, "disagree_verdicts.txt", disagree.summary))

    polling = ("R1A", "RMA", "REA") if full else ("REA",)
    fig6 = experiments.experiment_fig6(polling_models=polling)
    written.append(_write(directory, "fig6_separation.txt", fig6.summary))

    for name, driver in (
        ("fig7_exact.txt", experiments.experiment_fig7),
        ("fig8_repetition.txt", experiments.experiment_fig8),
        ("fig9_r1s.txt", experiments.experiment_fig9),
    ):
        written.append(_write(directory, name, driver().summary))

    written.append(
        _write(
            directory,
            "multinode_exa6.txt",
            experiments.experiment_multinode().summary,
        )
    )
    written.append(
        _write(
            directory,
            "dispute_wheels.txt",
            experiments.experiment_dispute_wheels().summary,
        )
    )
    written.append(
        _write(
            directory,
            "message_overhead.txt",
            experiments.experiment_message_overhead().summary,
        )
    )
    written.append(
        _write(
            directory,
            "convergence_survey.txt",
            experiments.experiment_convergence_rates().format_table(),
        )
    )
    return written
