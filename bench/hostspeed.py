"""How fast the host runs at the moment, from a fixed reference kernel.

On a shared host the same code runs up to twice as slow for minutes at a
time, and by 10-30% from one second to the next. The timed phase therefore
runs a reference kernel in step with the work it measures, keeping the
reference's time at ``REFERENCE_SHARE`` of the work's, and reports each wall
time multiplied by the host's speed around it: the reference's time on the
reference machine over the mean of the samples taken near that interval.
The mean, not the median, because a busy host is slow in bursts and a
measured interval holds its share of them in full. The result is in seconds
of the reference machine.

The kernel is a sweep of RY and CNOT gates in plain numpy over a batch of
states shaped like the ones the workload spends most of its time on, written
in the style of qhead's simulator (a temporary per gate) so that a busy host
slows it the way it slows qhead. It shares no code with qhead, so no change
to qhead moves it. It allocates its state per sample and keeps nothing; a
workload's reference must stay small enough that this transient memory is
under the workload's own peak, or it would set the peak memory reported.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_SHARE = 0.5
WINDOW_S = 2.0
MIN_SAMPLES = 3


@dataclass(frozen=True)
class Reference:
    """A reference sweep and its mean time on the reference machine."""

    qubits: int
    rows: int
    sweeps: int
    seconds: float

    def run(self) -> None:
        q, rows = self.qubits, self.rows
        amps = np.full((rows, 1 << q), (1 << q) ** -0.5, dtype=np.complex128)
        for k in range(self.sweeps):
            c, s = np.cos(0.01 * k), np.sin(0.01 * k)
            for t in range(q):
                v = amps.reshape(rows, 1 << (q - t - 1), 2, 1 << t)
                a, b = v[:, :, 0, :], v[:, :, 1, :]
                top = c * a - s * b
                v[:, :, 1, :] = s * a + c * b
                v[:, :, 0, :] = top
                # CNOT on the pair (t, t+1 mod q): swap the halves of the
                # higher qubit where the lower one is 1
                lo, hi = sorted((t, (t + 1) % q))
                w = amps.reshape(rows, 1 << (q - hi - 1), 2, 1 << (hi - lo - 1), 2, 1 << lo)
                one = w[:, :, 0, :, 1, :].copy()
                w[:, :, 0, :, 1, :] = w[:, :, 1, :, 1, :]
                w[:, :, 1, :, 1, :] = one


class HostSpeed:
    """Reference samples taken in step with the measured work."""

    def __init__(self, reference: Reference):
        self.reference = reference
        reference.run()  # warm-up, not kept
        self.samples: list[float] = []
        self.at: list[float] = []
        self.work_s = self.reference_total_s = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        self.reference.run()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.at.append((start + end) / 2)
        self.reference_total_s += end - start

    def after_work(self, seconds: float) -> None:
        """Count ``seconds`` of measured work, then sample until the share is met."""
        self.work_s += seconds
        while not self.samples or self.reference_total_s < REFERENCE_SHARE * self.work_s:
            self.sample()

    def speed(self, start: float, end: float) -> float:
        """The host's speed relative to the reference machine over [start, end].

        It is the reference's time there over the mean of the samples taken
        within ``WINDOW_S`` of the interval, or of the ``MIN_SAMPLES`` nearest
        ones when the window holds fewer.
        """
        def distance(t: float) -> float:
            return max(start - t, t - end, 0.0)

        near = sorted(zip(map(distance, self.at), self.samples))
        chosen = [s for d, s in near if d <= WINDOW_S]
        if len(chosen) < MIN_SAMPLES:
            chosen = [s for _, s in near[:MIN_SAMPLES]]
        return self.reference.seconds / statistics.fmean(chosen)
