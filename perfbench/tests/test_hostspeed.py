import pytest

import hostspeed


def test_scale_takes_seconds_to_the_reference_speed():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(ref, ref) == pytest.approx(1.0)
    # a host running the probe at half speed halves the scaled seconds
    assert hostspeed.scale(2 * ref, 2 * ref) == pytest.approx(0.5)
    # the two probes around a unit of work count equally
    assert hostspeed.scale(ref, 3 * ref) == pytest.approx(0.5)


def test_probe_returns_positive_seconds():
    assert 0.0 < hostspeed.probe() < 10.0
