"""The unified RunConfig value object and the entry points that take it."""

import pickle

import pytest

from repro.config import (
    DEFAULT_MAX_STATES,
    DEFAULT_MAX_STEPS,
    RunConfig,
)
from repro.engine.cache import VerdictCache


class TestRunConfigValidation:
    def test_defaults_are_valid(self):
        config = RunConfig()
        assert config.engine == "packed"
        assert config.reduction == "ample"
        assert config.workers is None
        assert config.queue_bound == 3
        assert config.step_bound is None

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RunConfig(engine="quantum")

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ValueError, match="unknown reduction"):
            RunConfig(reduction="sleep-sets")

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError, match="queue_bound"):
            RunConfig(queue_bound=0)
        with pytest.raises(ValueError, match="step_bound"):
            RunConfig(step_bound=0)
        with pytest.raises(ValueError, match="workers"):
            RunConfig(workers=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            RunConfig().engine = "reference"

    def test_picklable(self):
        config = RunConfig(workers=2, step_bound=500, cache_dir="/tmp/x")
        assert pickle.loads(pickle.dumps(config)) == config


class TestDerivedViews:
    def test_step_bound_defaults_split_by_consumer(self):
        config = RunConfig()
        assert config.max_states == DEFAULT_MAX_STATES
        assert config.max_steps == DEFAULT_MAX_STEPS

    def test_step_bound_overrides_both(self):
        config = RunConfig(step_bound=123)
        assert config.max_states == 123
        assert config.max_steps == 123

    def test_replace_revalidates(self):
        config = RunConfig()
        assert config.replace(queue_bound=5).queue_bound == 5
        with pytest.raises(ValueError, match="queue_bound"):
            config.replace(queue_bound=0)

    def test_resolved_cache_precedence(self, tmp_path):
        assert RunConfig().resolved_cache() is None
        assert RunConfig(cache_dir="/tmp/c").resolved_cache() == "/tmp/c"
        assert RunConfig(cache=True, cache_dir="/tmp/c").resolved_cache() is True
        assert RunConfig(cache=False, cache_dir="/tmp/c").resolved_cache() is None
        live = VerdictCache(tmp_path / "cache")
        assert RunConfig(cache=live).resolved_cache() is live

    def test_as_dict_is_json_safe(self, tmp_path):
        live = VerdictCache(tmp_path / "cache")
        data = RunConfig(cache=live, workers=2).as_dict()
        assert data["cache"] == str(live.root)
        assert data["workers"] == 2
        import json

        json.dumps(data)


class TestBareCallDefaults:
    """A call without ``config`` runs in-process: the drivers hand the
    fan-out ``workers=1`` rather than one worker per core."""

    @pytest.fixture
    def fanouts(self, monkeypatch):
        import repro.engine.parallel as parallel

        seen = []

        def spy(tasks, *, config=None):
            seen.append(config)
            return []

        monkeypatch.setattr(parallel, "run_explorations", spy)
        monkeypatch.setattr(parallel, "run_simulations", spy)
        return seen

    def test_matrix_certification(self, fanouts):
        from repro.analysis.experiments import matrix_certification

        matrix_certification()
        assert [config.workers for config in fanouts] == [1]

    def test_experiment_disagree(self, fanouts):
        from repro.analysis.experiments import experiment_disagree

        experiment_disagree()
        assert [config.workers for config in fanouts] == [1]

    def test_survey_convergence(self, fanouts):
        from repro.analysis.stats import survey_convergence
        from repro.core.generators import instance_family
        from repro.models.taxonomy import model

        survey_convergence(list(instance_family(1, n_nodes=4)), [model("R1O")])
        assert [config.workers for config in fanouts] == [1]
        assert fanouts[0].step_bound is None

    def test_experiment_convergence_rates(self, fanouts):
        from repro.analysis.experiments import experiment_convergence_rates

        experiment_convergence_rates()
        assert [(c.workers, c.step_bound) for c in fanouts] == [(1, 400)]

    def test_config_workers_pass_through(self, fanouts):
        from repro.analysis.experiments import matrix_certification

        matrix_certification(config=RunConfig())
        matrix_certification(config=RunConfig(workers=3))
        assert [config.workers for config in fanouts] == [None, 3]

    def test_convergence_rates_step_budget(self):
        from repro.analysis.experiments import experiment_convergence_rates

        survey = experiment_convergence_rates()
        assert survey.max_steps == 400
        overridden = experiment_convergence_rates(
            n_instances=1, config=RunConfig(workers=1, step_bound=50)
        )
        assert overridden.max_steps == 50


class TestEntryPointsAcceptConfig:
    """``config=`` reaches every layer a run passes through."""

    def test_run_explorations_equals_direct_search(self):
        from repro.core import instances as canonical
        from repro.engine.explorer import can_oscillate
        from repro.engine.parallel import ExplorationTask, run_explorations
        from repro.models.taxonomy import model

        instance = canonical.disagree()
        config = RunConfig(workers=1, queue_bound=2)
        tasks = [
            ExplorationTask.from_config(instance, name, config)
            for name in ("R1O", "RMS")
        ]
        fanned = run_explorations(tasks, config=config)
        assert [key for key, _ in fanned] == [
            (instance.name, "R1O"),
            (instance.name, "RMS"),
        ]
        for (_, result), name in zip(fanned, ("R1O", "RMS")):
            direct = can_oscillate(instance, model(name), config=config)
            assert result.oscillates == direct.oscillates
            assert result.states_explored == direct.states_explored

    def test_survey_convergence_config(self):
        from repro.analysis.stats import survey_convergence
        from repro.core.generators import instance_family
        from repro.models.taxonomy import model

        instances = list(instance_family(2, base_seed=5, n_nodes=4))
        survey = survey_convergence(
            instances,
            [model("R1O")],
            seeds_per_instance=2,
            config=RunConfig(workers=1, step_bound=200),
        )
        assert survey.max_steps == 200
        assert survey.per_model["R1O"].runs == 4
        assert all(
            steps <= 200 for steps in survey.per_model["R1O"].steps_to_converge
        )

    def test_exploration_task_from_config_round_trips(self, tmp_path):
        from repro.core import instances as canonical
        from repro.engine.parallel import ExplorationTask

        config = RunConfig(
            engine="reference",
            reduction="none",
            queue_bound=2,
            step_bound=1000,
            cache_dir=str(tmp_path / "cache"),
        )
        task = ExplorationTask.from_config(
            canonical.disagree(), "RMS", config
        )
        assert task.queue_bound == 2
        assert task.max_states == 1000
        assert task.engine == "reference"
        assert task.reduction == "none"
        assert task.cache_dir == str(tmp_path / "cache")
        round_tripped = task.run_config()
        assert round_tripped.queue_bound == 2
        assert round_tripped.max_states == 1000

    def test_simulation_task_from_config(self):
        from repro.core import instances as canonical
        from repro.engine.parallel import SimulationTask

        task = SimulationTask.from_config(
            canonical.good_gadget(),
            "R1O",
            RunConfig(step_bound=77),
            seeds=(0, 1),
        )
        assert task.max_steps == 77
        assert task.seeds == (0, 1)


def _reject_run_config():
    RunConfig(engine="compiled")


def _reject_explorer():
    from repro.core import instances as canonical
    from repro.engine.explorer import Explorer
    from repro.models.taxonomy import model

    Explorer(canonical.disagree(), model("R1O"), engine="compiled")


def _reject_exploration_task():
    from repro.core import instances as canonical
    from repro.engine.parallel import ExplorationTask

    ExplorationTask(canonical.disagree(), "R1O", engine="compiled")


def _reject_serve_config():
    from repro.serve import ServeConfig

    ServeConfig(cache_dir="unused", engine="compiled")


def _reject_campaign_spec():
    from repro.campaign import CampaignSpec

    CampaignSpec.from_dict({"name": "old", "count": 1, "engine": "compiled"})


def _reject_parse_query():
    from repro.core import instances as canonical
    from repro.core.serialization import instance_to_dict
    from repro.serve.protocol import parse_query

    parse_query(
        {
            "v": 2,
            "instance": instance_to_dict(canonical.disagree()),
            "config": {"engine": "compiled"},
        }
    )


def _reject_stored_campaign(tmp_path):
    import json

    from repro.campaign import Campaign, CampaignSpec

    Campaign.create(tmp_path / "camp", CampaignSpec(name="old", count=1))
    spec_path = tmp_path / "camp" / "spec.json"
    stored = json.loads(spec_path.read_text())
    stored["engine"] = "compiled"
    spec_path.write_text(json.dumps(stored))
    Campaign.open(tmp_path / "camp")


class TestRetiredCompiledEngine:
    """``"compiled"`` was removed without an alias: every boundary that
    takes an engine name refuses it and names the engines it accepts."""

    @pytest.mark.parametrize(
        "boundary",
        [
            pytest.param(_reject_run_config, id="RunConfig"),
            pytest.param(_reject_explorer, id="Explorer"),
            pytest.param(_reject_exploration_task, id="ExplorationTask"),
            pytest.param(_reject_serve_config, id="ServeConfig"),
            pytest.param(_reject_campaign_spec, id="CampaignSpec.from_dict"),
            pytest.param(_reject_parse_query, id="parse_query"),
            pytest.param(_reject_stored_campaign, id="stored-spec.json"),
            pytest.param("http", id="http-400"),
            pytest.param(
                ["explore", "--instance", "disagree", "--model", "R1O"],
                id="cli-search-flags",
            ),
            pytest.param(["serve", "--cache-dir", "unused"], id="cli-serve"),
            pytest.param(["query"], id="cli-query"),
        ],
    )
    def test_compiled_is_rejected(self, boundary, tmp_path, capsys):
        if boundary == "http":
            self._assert_http_400(tmp_path)
        elif isinstance(boundary, list):
            from repro.cli import build_parser

            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(boundary + ["--engine", "compiled"])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "invalid choice: 'compiled'" in err
            assert "'packed'" in err and "'reference'" in err
        else:
            from repro.serve.protocol import ProtocolError

            args = (tmp_path,) if boundary is _reject_stored_campaign else ()
            expected = ProtocolError if boundary is _reject_parse_query else ValueError
            with pytest.raises(
                expected,
                match=r"unknown engine 'compiled'; expected one of: packed, reference",
            ):
                boundary(*args)

    @staticmethod
    def _assert_http_400(tmp_path):
        import http.client
        import json
        from urllib.parse import urlsplit

        from repro.core import instances as canonical
        from repro.core.serialization import instance_to_dict
        from repro.serve import ReproServer, ServeConfig, VerdictService

        body = json.dumps(
            {
                "v": 2,
                "instance": instance_to_dict(canonical.disagree()),
                "config": {"engine": "compiled"},
            }
        )
        service = VerdictService(ServeConfig(cache_dir=str(tmp_path / "cache")))
        with ReproServer(service) as server:
            url = urlsplit(server.url)
            conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
            try:
                conn.request("POST", "/v1/query", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                answer = json.loads(response.read())
            finally:
                conn.close()
        assert response.status == 400
        assert answer["code"] == "bad-request"
        assert "unknown engine 'compiled'" in answer["error"]
