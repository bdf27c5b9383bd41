"""Checks of the host-speed scaling on a tiny reference kernel."""
from __future__ import annotations

import pytest

from hostspeed import MIN_SAMPLES, REFERENCE_SHARE, WINDOW_S, HostSpeed, Reference


def _host(samples, at) -> HostSpeed:
    host = HostSpeed(Reference(qubits=2, rows=1, sweeps=1, seconds=0.1))
    host.samples, host.at = list(samples), list(at)
    return host


def test_speed_uses_the_mean_of_samples_near_the_interval():
    # three samples within the window (one on its edge), one far outside it
    host = _host([0.05, 0.1, 0.15, 0.4], [10.0, 9.5, 10.0 + WINDOW_S, 100.0])
    assert host.speed(9.0, 10.0) == pytest.approx(0.1 / 0.1)


def test_speed_falls_back_to_the_nearest_samples():
    times = [0.1 * (k + 1) for k in range(MIN_SAMPLES + 1)]
    at = [100.0 * (k + 1) for k in range(MIN_SAMPLES + 1)]
    host = _host(times, at)
    nearest = times[:MIN_SAMPLES]
    assert host.speed(0.0, 1.0) == pytest.approx(0.1 * MIN_SAMPLES / sum(nearest))


def test_after_work_keeps_the_reference_share():
    host = HostSpeed(Reference(qubits=2, rows=1, sweeps=1, seconds=0.1))
    host.after_work(0.0)
    assert len(host.samples) == 1
    host.after_work(0.05)
    assert host.reference_total_s >= REFERENCE_SHARE * host.work_s
    assert host.reference_total_s == pytest.approx(sum(host.samples))
