"""Ablation studies for the design choices DESIGN.md calls out.

Two knobs materially shape every model-checking result in this
repository:

* the **queue bound** — all cannot-oscillate/cannot-realize claims are
  proved relative to a per-channel message cap.  The ablation sweeps
  the cap and shows verdicts are *cap-insensitive* for the paper's
  gadgets (states grow, answers do not change, searches stay complete);
* the **state-canonicalization levers** (destination projection and the
  reliable-polling collapse) — the ablation quantifies how many states
  each lever saves while verdicts stay fixed.

A third sweep scales instance size (independent DISAGREE copies) to
characterize how exploration cost grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.instances import disagree_grid
from ..core.spp import SPPInstance
from ..engine.explorer import Explorer
from ..models.taxonomy import model

__all__ = [
    "AblationRow",
    "queue_bound_sweep",
    "grid_scaling_sweep",
    "format_rows",
]


@dataclass(frozen=True)
class AblationRow:
    """One sweep point: configuration plus the exploration outcome."""

    label: str
    oscillates: bool
    complete: bool
    states: int


def queue_bound_sweep(
    instance: SPPInstance,
    model_name: str,
    bounds: tuple = (1, 2, 3, 4),
    max_states: int = 500_000,
) -> list:
    """Explore the same (instance, model) under increasing queue bounds."""
    rows = []
    for bound in bounds:
        result = Explorer(
            instance, model(model_name), queue_bound=bound, max_states=max_states
        ).explore()
        rows.append(
            AblationRow(
                label=f"bound={bound}",
                oscillates=result.oscillates,
                complete=result.complete,
                states=result.states_explored,
            )
        )
    return rows


def grid_scaling_sweep(
    model_name: str,
    copies: tuple = (1, 2, 3),
    queue_bound: int = 2,
    max_states: int = 500_000,
) -> list:
    """Explore DISAGREE grids of growing size under one model."""
    rows = []
    for count in copies:
        instance = disagree_grid(count)
        result = Explorer(
            instance,
            model(model_name),
            queue_bound=queue_bound,
            max_states=max_states,
        ).explore()
        rows.append(
            AblationRow(
                label=f"copies={count}",
                oscillates=result.oscillates,
                complete=result.complete,
                states=result.states_explored,
            )
        )
    return rows


def verdicts_are_stable(rows: list) -> bool:
    """True when every sweep point reports the same oscillation verdict."""
    return len({row.oscillates for row in rows}) == 1


def format_rows(rows: list, title: str = "") -> str:
    lines = []
    if title:
        lines.append(title)
    lines.append("config       | oscillates | complete | states")
    lines.append("-" * 50)
    for row in rows:
        lines.append(
            f"{row.label:<12} | {str(row.oscillates):<10} | "
            f"{str(row.complete):<8} | {row.states}"
        )
    return "\n".join(lines)
