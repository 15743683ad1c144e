"""Snapshot of the stable public API surface.

``repro.__all__`` and the :class:`repro.RunConfig` field set are the
package's compatibility contract (see ``docs/api.md``).  Additions are
deliberate — update the snapshot in the same change that documents the
new name — and removals or renames are breaking.
"""

import dataclasses
import inspect

import pytest

import repro
from repro.analysis import experiments

EXPECTED_ALL = [
    "ALL_MODELS",
    "Campaign",
    "CampaignHandle",
    "CampaignSpec",
    "CommunicationModel",
    "FaultPlan",
    "RunConfig",
    "SPPBuilder",
    "SPPInstance",
    "analysis",
    "campaign",
    "can_oscillate",
    "canonical",
    "core",
    "engine",
    "faults",
    "instance_family",
    "matrix_certification",
    "model",
    "models",
    "random_instance",
    "realization",
    "run_explorations",
    "run_simulations",
    "serve",
    "simulate",
    "survey_convergence",
]

EXPECTED_RUNCONFIG_FIELDS = {
    "engine": "packed",
    "reduction": "ample",
    "cache": None,
    "cache_dir": None,
    "workers": None,
    "queue_bound": 3,
    "step_bound": None,
    "telemetry": None,
}


def test_public_all_snapshot():
    assert sorted(repro.__all__) == EXPECTED_ALL


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_runconfig_fields_snapshot():
    fields = {
        field.name: field.default
        for field in dataclasses.fields(repro.RunConfig)
    }
    assert fields == EXPECTED_RUNCONFIG_FIELDS


_FAN_OUT = ("workers", "engine", "reduction", "cache_dir")

#: The configurable entry points: the data inputs each takes
#: positionally, and the per-call keywords that duplicated
#: ``RunConfig`` fields until their removal in 2.0.0.
ENTRY_POINTS = [
    (
        repro.can_oscillate,
        ("instance", "model"),
        ("queue_bound", "max_states", "engine", "reduction", "cache"),
    ),
    (repro.run_explorations, ("tasks",), ("workers",)),
    (repro.run_simulations, ("tasks",), ("workers",)),
    (repro.survey_convergence, ("instances", "models"), ("max_steps", "workers")),
    (
        repro.matrix_certification,
        (),
        ("workers", "queue_bound", "engine", "reduction", "cache_dir"),
    ),
    (
        experiments.experiment_disagree,
        (),
        ("workers", "queue_bound", "engine", "reduction", "cache_dir"),
    ),
    (experiments.experiment_figure3, (), _FAN_OUT),
    (experiments.experiment_figure4, (), _FAN_OUT),
    (experiments.experiment_fig6, (), _FAN_OUT),
    (experiments.suite_as_dict, (), _FAN_OUT),
    (experiments.experiment_convergence_rates, (), ("max_steps", "workers")),
]


@pytest.mark.parametrize(
    "function, data, removed",
    ENTRY_POINTS,
    ids=[function.__name__ for function, _, _ in ENTRY_POINTS],
)
def test_entry_point_signature(function, data, removed):
    """Data inputs are positional; everything else is keyword-only,
    and the bounds come only through ``config``."""
    parameters = inspect.signature(function).parameters
    assert tuple(parameters)[: len(data)] == data
    for name in data:
        assert parameters[name].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    rest = list(parameters.values())[len(data):]
    assert "config" in parameters
    assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in rest)
    assert not set(removed) & set(parameters)


@pytest.mark.parametrize(
    "function, data, keyword",
    [
        (function, data, keyword)
        for function, data, removed in ENTRY_POINTS
        for keyword in removed
    ],
    ids=[
        f"{function.__name__}-{keyword}"
        for function, _, removed in ENTRY_POINTS
        for keyword in removed
    ],
)
def test_removed_keyword_is_refused(function, data, keyword):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        function(*([None] * len(data)), **{keyword: 1})


def test_can_oscillate_bound_is_not_positional():
    """``can_oscillate(instance, model, 3)`` once set the queue bound."""
    from repro.core.instances import disagree

    with pytest.raises(TypeError, match="positional argument"):
        repro.can_oscillate(disagree(), repro.model("R1O"), 3)


def test_matrix_certification_is_keyword_only():
    """A positional instance used to bind to ``workers`` and fail deep
    inside ``RunConfig``; it must be refused at the call instead."""
    from repro.core.instances import fig7_gadget

    with pytest.raises(TypeError, match="positional argument"):
        repro.matrix_certification(fig7_gadget())


def test_campaign_surface():
    from repro.campaign import (
        Campaign,
        CampaignError,
        CampaignSpec,
        aggregate_report,
        render_report,
        spec_digest,
    )

    assert issubclass(CampaignError, RuntimeError)
    for name in ("create", "open", "run", "status", "report"):
        assert hasattr(Campaign, name)
    assert callable(aggregate_report) and callable(render_report)
    assert callable(spec_digest) and callable(CampaignSpec.from_file)


def test_campaign_api_facade_surface():
    from repro.campaign import api

    for name in ("create", "attach", "run", "serve", "join", "status", "report"):
        assert callable(getattr(api, name)), name
    for name in ("run", "serve", "join", "status", "report", "records"):
        assert hasattr(api.CampaignHandle, name), name
    assert repro.CampaignHandle is api.CampaignHandle
