"""Tests of the host-speed scaling: ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

from hostspeed import PROBE_NOMINAL_S, SEGMENT_S, HostSpeed, probe_kernel  # noqa: E402


class Host:
    """A fake clock plus a probe whose times the test scripts."""

    def __init__(self, probe_times) -> None:
        self.now = 0.0
        self._probe_times = iter(probe_times)
        self.probes = 0

    def clock(self) -> float:
        return self.now

    def probe(self) -> float:
        self.probes += 1
        return next(self._probe_times)


def test_segment_scales_by_the_mean_of_its_bracketing_probes():
    host = Host([0.2, 0.1, 0.05])
    speed = HostSpeed(clock=host.clock, prober=host.probe)
    speed.mark()
    assert speed.add("a") == []  # segment not yet due
    host.now += SEGMENT_S
    first = speed.add("b")
    assert [item for item, _ in first] == ["a", "b"]
    assert first[0][1] == pytest.approx(PROBE_NOMINAL_S / 0.15)
    # The closing probe (0.1) opens the next segment.
    speed.add("c")
    assert speed.flush() == [("c", pytest.approx(PROBE_NOMINAL_S / 0.075))]
    assert speed.flush() == []
    assert host.probes == 3


def test_disabled_pairs_every_item_with_one_and_never_probes():
    host = Host([])
    speed = HostSpeed(enabled=False, clock=host.clock, prober=host.probe)
    speed.mark()
    assert speed.add("a") == [("a", 1.0)]
    assert speed.flush() == []
    assert host.probes == 0


def test_closing_a_segment_before_mark_is_refused():
    speed = HostSpeed(clock=lambda: 10.0, prober=lambda: 0.1)
    with pytest.raises(RuntimeError):
        speed.add("a")


def test_probe_kernel_is_deterministic():
    assert probe_kernel() == probe_kernel()
