"""Golden telemetry shape: which records, totals and series a run emits.

Five runs are pinned — a Fig. 7 24-model certification at one and two
workers, one campaign shard at one and two workers, and one traced
daemon query — by three name sets each:

* ``records``: the ``(record type, span name)`` pairs of the JSONL
  stream (``name`` is ``None`` on records that are not spans);
* ``counters`` and ``spans``: the counter and span-total names of the
  closing summary;
* ``metrics``: the Prometheus series names of a ``/metrics`` render.

Only names are pinned, never values or timings, and the per-worker
counters ``worker.w<N>.tasks`` (``repro_worker_w<N>_tasks_total`` on
``/metrics``) fold to ``worker.w*.tasks`` because a pool may hand
every item to one worker.

The expected sets are ``golden/telemetry_shape.json`` plus
:data:`ADDITIONS`.  A pooled run (``workers2``) has every counter and
span series of its serial twin: the pool merges each worker call's
counter, span-total and histogram growth into the parent.  The pool's
unit is an instance, so the one-instance ``fig7-workers2`` runs
in-process and has exactly its serial twin's shape; the two-instance
shard run is the pooled one.  A
deliberate change may list what it adds in :data:`ADDITIONS`; to fold
them in, regenerate the golden file with
``PYTHONPATH=src python -m tests.obs.test_telemetry_shape``, empty
:data:`ADDITIONS`, and review the diff.
"""

import json
import re
from pathlib import Path

import pytest

from repro import obs
from repro.analysis.experiments import matrix_certification
from repro.campaign import CampaignSpec
from repro.campaign.runner import compute_shard_records
from repro.config import RunConfig
from repro.core.instances import disagree, fig7_gadget
from repro.obs.metrics import parse_prometheus, render_prometheus
from repro.obs.telemetry import Telemetry
from repro.serve import ReproServer, ServeConfig, VerdictService
from repro.serve.client import ServeClient, build_query_body

GOLDEN = Path(__file__).with_name("golden") / "telemetry_shape.json"

SPEC = CampaignSpec(
    name="shape",
    count=4,
    models=("R1O", "RMS"),
    shard_size=2,
    n_nodes=4,
    queue_bound=2,
    step_bound=20_000,
)

_WORKER = re.compile(r"([._])w\d+([._])")


def _fold(names) -> list:
    return sorted({_WORKER.sub(r"\1w*\2", name) for name in names})


def _series(text: str) -> list:
    return _fold(metric for metric, _labels in parse_prometheus(text))


def _observe(directory: Path, run) -> dict:
    """Run ``run(telemetry)`` under a fresh live telemetry; its shape.

    ``run`` returns the ``/metrics`` text it scraped, or ``None`` to
    render the telemetry's own registries.
    """
    directory.mkdir()
    path = directory / "t.jsonl"
    telemetry = Telemetry(path, run={"command": "shape"})
    previous = obs.install(telemetry)
    try:
        text = run(directory)
        if text is None:
            text = render_prometheus(
                metrics=telemetry.metrics,
                counters=telemetry.counters,
                gauges=telemetry.gauges,
            )
    finally:
        obs.install(previous)
        telemetry.close()
    records = [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    summary = records[-1]
    return {
        "records": sorted({(r["type"], r.get("name")) for r in records}, key=repr),
        "counters": _fold(summary["counters"]),
        "spans": _fold(summary["spans"]),
        "metrics": _series(text),
    }


def _fig7(workers):
    def run(directory):
        matrix_certification(
            instance=fig7_gadget(), config=RunConfig(workers=workers)
        )

    return run


def _shard(workers):
    def run(directory):
        compute_shard_records(
            SPEC, 0, workers=workers, cache_dir=str(directory / "cache")
        )

    return run


def _daemon(directory):
    service = VerdictService(
        ServeConfig(cache_dir=str(directory / "cache"), queue_cap=8)
    )
    body = build_query_body(disagree(), ["R1O", "REA"], queue_bound=2)
    with ReproServer(service) as server:
        with ServeClient(server.url) as client:
            client.query_raw(body)
            return client.metrics_text()


RUNS = {
    "fig7-workers1": _fig7(1),
    "fig7-workers2": _fig7(2),
    "shard-workers1": _shard(1),
    "shard-workers2": _shard(2),
    "daemon-query": _daemon,
}


#: What a deliberate change adds to each golden shape until the golden
#: file is regenerated (empty when the file is current).
ADDITIONS: dict = {}


def _names(items) -> set:
    return {json.dumps(item) for item in items}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_telemetry_shape_matches_golden(run, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[run]
    observed = _observe(tmp_path / run, RUNS[run])
    for kind in golden:
        added = _names(ADDITIONS.get(run, {}).get(kind, []))
        assert not added & _names(golden[kind]), kind
        assert _names(observed[kind]) == _names(golden[kind]) | added, kind


@pytest.mark.parametrize("family", ("fig7", "shard"))
def test_pooled_run_reports_what_a_serial_run_does(family, tmp_path):
    """Counters a worker creates (even at zero) and the histograms of
    its spans reach the parent: the ``workers2`` summary counters and
    ``/metrics`` series include the ``workers1`` ones, fan-out names
    aside."""
    serial = _observe(tmp_path / "serial", RUNS[f"{family}-workers1"])
    pooled = _observe(tmp_path / "pooled", RUNS[f"{family}-workers2"])
    for kind, fan_out in (("counters", "worker."), ("metrics", "repro_worker_")):
        expected = {name for name in serial[kind] if not name.startswith(fan_out)}
        assert expected - set(pooled[kind]) == set(), kind


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        shapes = {
            name: _observe(Path(scratch) / name, run)
            for name, run in sorted(RUNS.items())
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(shapes, indent=1, sort_keys=True) + "\n")
