"""The acceptance property, end to end through the CLI.

A campaign process SIGKILLed mid-run — no atexit handlers, no cleanup —
then resumed with ``repro campaign resume`` must produce a
``report.json`` byte-identical to an uninterrupted run of the same
spec.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from .rows import stored_result

REPO = Path(__file__).resolve().parents[2]

SPEC = {
    "name": "sigkill",
    "count": 6,
    "models": ["R1O", "RMS"],
    "mode": "explore",
    "shard_size": 2,
    "n_nodes": 4,
    "queue_bound": 2,
    "step_bound": 20000,
}


def _env():
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=_env(),
        cwd=str(REPO),
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.mark.slow
def test_sigkill_then_resume_is_bit_identical(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))

    # Uninterrupted reference run.
    reference_dir = tmp_path / "reference"
    done = _cli(
        "campaign", "run", str(spec_path),
        "--dir", str(reference_dir), "--workers", "1", "--no-telemetry",
    )
    assert done.returncode == 0, done.stderr
    reference = (reference_dir / "report.json").read_bytes()

    # Interrupted run: SIGKILL as soon as shard 0's result is stored.
    victim_dir = tmp_path / "victim"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", "run", str(spec_path),
            "--dir", str(victim_dir), "--workers", "1", "--no-telemetry",
        ],
        env=_env(),
        cwd=str(REPO),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if stored_result(victim_dir, 0) or process.poll() is not None:
            break
        # Poll much faster than a shard completes: the gap between the
        # first stored result and campaign completion is tens of ms, so
        # a coarse poll can miss the kill window entirely.
        time.sleep(0.002)
    if process.poll() is None:
        process.send_signal(signal.SIGKILL)
    process.wait(timeout=30)
    assert stored_result(victim_dir, 0), "campaign never stored shard 0"
    # The kill must land before completion for the test to mean anything.
    assert not (victim_dir / "report.json").is_file(), (
        "campaign finished before the kill; shrink bounds to slow it down"
    )

    # Resume from the directory alone and compare bytes.
    resumed = _cli(
        "campaign", "resume", str(victim_dir), "--workers", "1",
        "--no-telemetry",
    )
    assert resumed.returncode == 0, resumed.stderr
    assert (victim_dir / "report.json").read_bytes() == reference

    status = _cli("campaign", "status", str(victim_dir), "--json")
    assert status.returncode == 0, status.stderr
    parsed = json.loads(status.stdout)
    assert parsed["shards_pending"] == 0
    assert parsed["report_written"] is True
