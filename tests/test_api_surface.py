"""Snapshot of the stable public API surface.

``repro.__all__`` and the :class:`repro.RunConfig` field set are the
package's compatibility contract (see ``docs/api.md``).  Additions are
deliberate — update the snapshot in the same change that documents the
new name — and removals or renames are breaking.
"""

import dataclasses

import repro

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


def test_entry_points_accept_config_keyword():
    import inspect

    for function in (
        repro.can_oscillate,
        repro.run_explorations,
        repro.run_simulations,
        repro.matrix_certification,
        repro.survey_convergence,
    ):
        parameters = inspect.signature(function).parameters
        assert "config" in parameters, function.__name__


def test_matrix_certification_is_keyword_only():
    """A positional instance used to bind to ``workers`` and fail deep
    inside ``RunConfig``; it must be refused at the call instead."""
    import pytest

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
