"""Deterministic SIGKILL chaos through the real CLI.

The complement of ``tests/campaign/test_resume_sigkill.py``: instead of
racing an external kill against the run, the fault layer SIGKILLs the
process *exactly* at the start of the second shard (``--fault-plan``
with ``after=1``), so the interruption point is reproducible bit for
bit.  The resumed campaign must still match an uninterrupted one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ..campaign.rows import stored_result

REPO = Path(__file__).resolve().parents[2]

SPEC = {
    "name": "chaos-sigkill",
    "count": 6,
    "models": ["R1O", "RMS"],
    "mode": "explore",
    "shard_size": 2,
    "n_nodes": 4,
    "queue_bound": 2,
    "step_bound": 20000,
}

PLAN = {
    "name": "kill-second-shard",
    "seed": 0,
    "rules": [
        {"site": "campaign.shard", "kind": "sigkill", "after": 1, "times": 1}
    ],
}


def _env():
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    env.pop("REPRO_FAULT_PLAN", None)
    return env


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=_env(),
        cwd=str(REPO),
        capture_output=True,
        text=True,
    )


@pytest.mark.chaos
@pytest.mark.slow
def test_injected_sigkill_then_resume_is_bit_identical(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(PLAN))

    reference_dir = tmp_path / "reference"
    done = _cli(
        "campaign", "run", str(spec_path),
        "--dir", str(reference_dir), "--workers", "1", "--no-telemetry",
    )
    assert done.returncode == 0, done.stderr
    reference = (reference_dir / "report.json").read_bytes()

    # The armed plan kills the process at the start of shard 1 — after
    # shard 0's result landed, before anything else did.
    victim_dir = tmp_path / "victim"
    killed = _cli(
        "campaign", "run", str(spec_path),
        "--dir", str(victim_dir), "--workers", "1", "--no-telemetry",
        "--fault-plan", str(plan_path),
    )
    assert killed.returncode == -9 or killed.returncode == 137
    assert stored_result(victim_dir, 0) is not None
    assert stored_result(victim_dir, 1) is None
    assert not (victim_dir / "report.json").exists()

    # Resume WITHOUT the plan: the disk state left by the kill must
    # carry everything needed for a byte-identical finish.
    resumed = _cli(
        "campaign", "resume", str(victim_dir), "--workers", "1",
        "--no-telemetry",
    )
    assert resumed.returncode == 0, resumed.stderr
    assert (victim_dir / "report.json").read_bytes() == reference

    # And the doctor agrees the directory is healthy.
    checkup = _cli("doctor", str(victim_dir))
    assert checkup.returncode == 0, checkup.stdout
