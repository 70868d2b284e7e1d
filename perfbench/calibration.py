"""Machine-speed calibration, measured alongside the workload.

The host this benchmark was built on is a shared virtual machine whose
speed drifts: the same `qfi` round took 2.3 s in one half-minute and 4.0 s
in the next, and CPU time drifted with it. A fixed calibration kernel is
therefore timed between the workload's commands, for about an eighth of their
time, and every reported time is divided by the speed factor

    factor = (mean seconds of one calibration unit) / (its nominal seconds),

so it reads in nominal seconds: seconds on this machine at its usual speed.
In a 150-s trace of `qfi` rounds this cut the spread between the medians
of 6-round windows from 55% to 4%. The kernel imitates the program's period
loop (a diagonal phase, then butterfly passes over every satellite bit of a
2^bits x d state) but uses no program code, so no change to the program can
move it.
"""

import statistics
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from time import perf_counter

import numpy as np

# Kernel shapes (satellite bits, central dimension, periods per unit) and the
# seconds of one unit at this machine's usual speed. phase_map, whose time
# goes to many small (8, 2) states, uses the small kernel; the others the
# medium one. A kernel on trajectory's (16, 5/2) state tracked its drift
# worse (spread 8.5% against 6.7% over runs) and added 9 MB to its peak
# resident memory.
KERNELS = {
    "small": (8, 5, 220, 0.035),
    "medium": (12, 5, 30, 0.034),
}
CALIBRATION_SHARE = 0.125   # calibration time per second measured
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _time_units(kernel: str, count: int) -> list[float]:
    calibrator = Calibrator(kernel)
    return [calibrator._unit() for _ in range(count)]


class Calibrator:
    """Times calibration units in this process and, with processes > 1, in
    as many helper processes at once, for workloads that keep that many
    cores busy."""

    def __init__(self, kernel: str, processes: int = 1):
        self.kernel = kernel
        self._bits, self._central_dim, self._periods, self._nominal_s = \
            KERNELS[kernel]
        n = (1 << self._bits) * self._central_dim
        self._start = np.exp(1j * np.arange(n))
        self._phases = np.exp(0.3j * np.arange(n))
        self._units = []
        self._helpers = processes - 1
        self._pool = None
        if self._helpers > 0:
            self._pool = ProcessPoolExecutor(self._helpers,
                                             mp_context=get_context("spawn"))
            self.sample(0.0)        # start the helpers before anything is timed
            self._units.clear()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _unit(self) -> float:
        state = self._start.copy()
        t0 = perf_counter()
        for _ in range(self._periods):
            state *= self._phases
            inner = self._central_dim
            for _ in range(self._bits):
                v = state.reshape(-1, 2, inner)
                top = (v[:, 0, :] + v[:, 1, :]) * _INV_SQRT2
                v[:, 1, :] = (v[:, 0, :] - v[:, 1, :]) * _INV_SQRT2
                v[:, 0, :] = top
                inner *= 2
        return perf_counter() - t0

    def sample(self, measured_seconds: float) -> None:
        """Time calibration units in proportion to a measured interval."""
        count = max(1, round(CALIBRATION_SHARE * measured_seconds
                             / self._nominal_s))
        helpers = [self._pool.submit(_time_units, self.kernel, count)
                   for _ in range(self._helpers)]
        self._units.extend(self._unit() for _ in range(count))
        for future in helpers:
            self._units.extend(future.result())

    def factor(self) -> float:
        """Speed factor of the units sampled since the last call (> 1 when
        the machine runs slower than nominal)."""
        units, self._units = self._units, []
        return statistics.fmean(units) / self._nominal_s
