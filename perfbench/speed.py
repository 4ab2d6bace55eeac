"""Which CPU is fast right now: the benchmark's defence against a shared host.

On a shared 2-core VM each core flips, every few hundred milliseconds
to a few seconds, between a fast state and one about twice as slow for
interpreted Python (a neighbour busy on the same physical core; numpy
kernels slow down about 1.35x).  CPU time per plan read over a whole
run therefore measured the neighbours as much as the program: on one
host the middle half of ten runs spread by a third to a half of the
median.

This module times a short, fixed, pure-Python probe on a CPU.  The
fast state is a sharp floor (the probe reads within a few percent of
its best on a fast core, about twice that on a slow one), so a reading
close to the best seen so far says the core is fast.  The workloads use
it to run each measured chunk on the faster core and to measure a
chunk again when a core was slow before or after it (``workloads.py``).

The fast state itself drifts with the load on the whole host: on a
2-core x86 VM (Xeon at 2.1 GHz), over tens of minutes, the probe's fast
reading moved between about 420 and 510 us, and every workload's CPU
time per plan moved with it (by 13-18% for a 17% move).
``SpeedProbe.scale`` therefore scales a run's times to the probe's
reference reading; across that move the scaled CPU time per plan held
within 2-4%.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, TypeVar

T = TypeVar("T")

#: A probe reading within this factor of the best reading seen so far
#: counts as fast.  The slow state reads about 2x.
FAST_FACTOR = 1.3
#: The probe's fast reading on the reference machine (2-core x86 VM,
#: Xeon at 2.1 GHz, Python 3.11): times are reported at this speed.
REFERENCE_READING_S = 500e-6
#: Timed repetitions of the probe kernel per reading; the reading is
#: their minimum, so one interrupt does not make a fast core look slow.
PROBE_REPS = 3
#: When every core reads slow before an attempt, wait (idle, reading
#: again every ``WAIT_STEP_S``) up to ``UNIT_WAIT_S`` for one to turn
#: fast, and up to ``RUN_WAIT_S`` over a whole run, so a run on a busy
#: host still ends in time.
WAIT_STEP_S = 0.02
UNIT_WAIT_S = 0.5
RUN_WAIT_S = 10.0
#: Wall time a run may spend on second and later attempts.  Once it is
#: spent, every unit keeps its first attempt.
RUN_RETRY_S = 15.0


def _kernel() -> int:
    """About 0.5 ms of dict, int and str work on a fast core."""
    table: dict = {}
    acc = 0
    for i in range(2500):
        k = (i * 7919) % 257
        table[k] = table.get(k, 0) + i
        acc += len(str(i))
    return acc


def available_cpus() -> Sequence[int]:
    return sorted(os.sched_getaffinity(0))


def pin_thread(cpu: int) -> None:
    """Move the calling thread (and threads it starts later) to ``cpu``."""
    os.sched_setaffinity(0, {cpu})


def pin_process(pid: int, cpu: int) -> None:
    """Move every thread of process ``pid`` to ``cpu``."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except (ProcessLookupError, FileNotFoundError):
            pass  # the thread ended meanwhile


class SpeedProbe:
    """Probe readings and the best one seen, for one run.

    The calling thread is left pinned to the last CPU probed; callers
    pin it where they need it.
    """

    def __init__(self, cpus: Optional[Sequence[int]] = None) -> None:
        self.cpus = list(cpus) if cpus is not None else list(available_cpus())
        self.best_s = float("inf")
        self.readings = 0
        self.slow_readings = 0
        self.waited_s = 0.0
        self.retried_s = 0.0
        self.fast_s: list = []

    def read(self, cpu: int) -> float:
        """One reading on ``cpu`` (seconds of thread CPU time)."""
        pin_thread(cpu)
        best = float("inf")
        for _ in range(PROBE_REPS):
            t0 = time.thread_time()
            _kernel()
            best = min(best, time.thread_time() - t0)
        self.best_s = min(self.best_s, best)
        self.readings += 1
        return best

    def is_fast(self, reading_s: float) -> bool:
        fast = reading_s <= FAST_FACTOR * self.best_s
        if fast:
            self.fast_s.append(reading_s)
        else:
            self.slow_readings += 1
        return fast

    def warm_up(self, seconds: float = 0.5) -> None:
        """Read every CPU for a while to learn the fast floor.

        Cores change state every few hundred milliseconds, so half a
        second of readings nearly always meets a fast one; later
        readings keep lowering the floor if not.
        """
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            for cpu in self.cpus:
                self.read(cpu)
            time.sleep(0.01)

    def fastest(self) -> "tuple[int, bool]":
        """The CPU that reads fastest now, and whether it reads fast.

        Waits a little (see ``UNIT_WAIT_S``) while every CPU reads slow.
        """
        waited = 0.0
        while True:
            reading, cpu = min((self.read(c), c) for c in self.cpus)
            if (reading <= FAST_FACTOR * self.best_s or waited >= UNIT_WAIT_S
                    or self.waited_s + waited >= RUN_WAIT_S):
                self.waited_s += waited
                return cpu, self.is_fast(reading)
            t0 = time.perf_counter()
            time.sleep(WAIT_STEP_S)
            waited += time.perf_counter() - t0

    def still_fast(self, cpu: int) -> bool:
        return self.is_fast(self.read(cpu))

    def scale(self) -> float:
        """Factor from this run's times to the reference speed: the
        reference reading over the median fast reading of the run."""
        if not self.fast_s:
            return 1.0
        return REFERENCE_READING_S / statistics.median(self.fast_s)


@dataclass
class Tally:
    """How often the measured units had to be run again."""

    units: int = 0
    attempts: int = 0
    #: Units whose every attempt saw a slow reading (their best counts).
    unclean: int = 0

    def as_notes(self, prefix: str) -> Dict[str, int]:
        return {f"{prefix}_units": self.units, f"{prefix}_attempts": self.attempts,
                f"{prefix}_unclean": self.unclean}


def notes(probe: SpeedProbe, setup: Tally, measured: Tally) -> Dict[str, float]:
    """What a run's speed readings and retries came to, for its result."""
    return {**setup.as_notes("setup"), **measured.as_notes("measured"),
            "speed_readings": probe.readings,
            "speed_slow_readings": probe.slow_readings,
            "speed_waited_s": round(probe.waited_s, 3),
            "speed_retried_s": round(probe.retried_s, 3),
            "speed_fast_reading_us": round(statistics.median(probe.fast_s) * 1e6, 1)
            if probe.fast_s else 0.0,
            "speed_scale": round(probe.scale(), 4)}


class BestOf:
    """Measure units of work on the fast core, again while a core read slow.

    Each attempt runs ``work`` on the CPU that reads fastest just before
    it (``place`` moves whatever else must follow, e.g. the server
    child), and reads that CPU again just after.  A unit whose readings
    were both fast is done; otherwise ``reset`` restores the state the
    unit started from and the unit runs again, up to ``attempts`` times
    and while the run has retry time left (``RUN_RETRY_S``).  The unit's
    cost is its cheapest attempt by ``clock``; its result is
    the first attempt's (every attempt does the same work).
    """

    def __init__(
        self,
        probe: SpeedProbe,
        clock: Callable[[], float],
        attempts: int,
        place: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.probe = probe
        self.clock = clock
        self.attempts = max(1, attempts)
        self.place = place
        self.tally = Tally()

    def run_once(self, work: Callable[[], T]) -> "tuple[float, bool, T]":
        """One attempt: (cost, whether the core read fast around it, result)."""
        cpu, fast = self.probe.fastest()
        pin_thread(cpu)
        if self.place is not None:
            self.place(cpu)
        start = self.clock()
        result = work()
        cost = self.clock() - start
        fast = self.probe.still_fast(cpu) and fast
        pin_thread(cpu)
        self.tally.attempts += 1
        return cost, fast, result

    def may_retry(self) -> bool:
        return self.attempts > 1 and self.probe.retried_s < RUN_RETRY_S

    def measure(
        self, work: Callable[[], T], reset: Optional[Callable[[], None]] = None
    ) -> "tuple[float, T]":
        best = float("inf")
        first: Any = None
        fast = False
        for attempt in range(self.attempts):
            if attempt and not self.may_retry():
                break
            t0 = time.perf_counter()
            if attempt and reset is not None:
                reset()
            cost, fast, result = self.run_once(work)
            if attempt == 0:
                first = result
            else:
                self.probe.retried_s += time.perf_counter() - t0
            best = min(best, cost)
            if fast:
                break
        if not fast:
            self.tally.unclean += 1
        self.tally.units += 1
        return best, first
