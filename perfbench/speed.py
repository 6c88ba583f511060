"""Machine-speed samples taken while a workload runs, and per-operation time caps.

On a shared host the CPU speed a process gets can change by a factor of two
within seconds (a fixed pure-Python loop took 8.7 ms to 16.1 ms per 2 s
window on a shared 2-CPU virtual machine), which swamps the run-to-run
spread of any wall-clock figure.  ``Sampler`` runs a short fixed kernel and
times it in thread CPU time, so the kernel's duration tracks how fast the
machine runs this process at that moment: on every tick of an interval
timer, or in bursts between operations (see ``Sampler``).
``scaled(seconds, t0, t1)`` converts a time measured over [t0, t1] to
seconds at the reference speed, where the kernel takes
``REFERENCE_KERNEL_S``.  The sampler's own time is recorded so it can be
taken out of the measured interval.

The same timer enforces the per-operation time cap, so one signal serves
both.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import multiprocessing
import signal
import time

import numpy as np

INTERVAL_S = 0.1
GAP_REPEATS = 10
REFERENCE_KERNEL_S = 0.001


class OpTimeout(Exception):
    """Raised inside an operation that ran past its time cap."""


def burst(repeats):
    """Kernel times in thread CPU seconds, ``repeats`` runs back to back."""
    # With the collector on, the kernel's allocations could start a
    # collection over the workload's heap and time that instead.
    collecting = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(repeats):
            c0 = time.thread_time()
            kernel()
            out.append(time.thread_time() - c0)
        return out
    finally:
        if collecting:
            gc.enable()


def helper(conn):
    """Helper process for ``gaps`` mode: a burst per request, until ``None``."""
    while (repeats := conn.recv()) is not None:
        conn.send(burst(repeats))


def kernel():
    """Fixed work like the library's: dict and tuple churn, sorting, small matmuls."""
    table = {}
    for i in range(1500):
        key = (i % 17, tuple(sorted((i % 5, i % 3, i % 7))))
        table[key] = table.get(key, 0) + 1
    x = np.full((3, 16), 0.5)
    w = np.full((16, 16), 0.1)
    for _ in range(100):
        x = np.tanh(x @ w)
    return len(table), float(x[0, 0])


class Sampler:
    """Speed samples plus the per-operation time cap, on one interval timer.

    ``mode`` says when the kernel runs: ``"tick"`` on every timer tick, for
    a single process; ``"gaps"`` in bursts before and after each
    operation, for a workload whose own worker processes load every CPU
    while an operation runs (a kernel run then would time that load, not
    the machine's); ``"off"`` never, for traced runs.  Either way an
    interval is scaled by the samples taken during it and the nearest ones
    on either side.  Scale only once the run's samples are in.
    """

    def __init__(self, mode="tick"):
        self.mode = mode
        self.times = []
        self.kernel_s = []
        self.stolen = 0.0
        self.deadline = None
        self.cap = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        if self.deadline is not None and t0 >= self.deadline:
            self.deadline = None
            raise OpTimeout(f"operation exceeded its {self.cap:g} s cap")
        if self.mode == "tick":
            self._sample(t0, 1)
        self.stolen += time.perf_counter() - t0

    def _sample(self, at, repeats):
        self.kernel_s.extend(burst(repeats))
        self.times.extend([at] * repeats)

    def gap(self):
        """Between operations: in ``gaps`` mode, a burst of kernel samples here
        and, at the same time, in a helper process, since the operations keep
        every CPU busy."""
        if self.mode == "gaps":
            t0 = time.perf_counter()
            self._helper.send(GAP_REPEATS)
            self._sample(t0, GAP_REPEATS)
            got = self._helper.recv()
            self.kernel_s.extend(got)
            self.times.extend([t0] * len(got))
            self.stolen += time.perf_counter() - t0

    def __enter__(self):
        if self.mode == "gaps":
            self._helper, theirs = multiprocessing.Pipe()
            # Forked, not spawned: the spawn start method also launches a
            # resource-tracker process that outlives this one.
            self._process = multiprocessing.get_context("fork").Process(
                target=helper, args=(theirs,), daemon=True
            )
            self._process.start()
            theirs.close()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.mode == "gaps":
            try:
                self._helper.send(None)
            except OSError:
                pass
            self._process.join(timeout=10)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()
            self._helper.close()
        return False

    @contextlib.contextmanager
    def cap_at(self, seconds):
        """Raise ``OpTimeout`` in the block once it has run ``seconds``."""
        self.cap = seconds
        self.deadline = time.perf_counter() + seconds
        try:
            yield
        finally:
            self.deadline = None

    def clock(self):
        """Wall time minus the sampler's own time so far."""
        return time.perf_counter() - self.stolen

    def speed(self, t0, t1):
        """Mean kernel rate (1/s) over the samples in [t0, t1] and the nearest
        sampling time on either side (in ``gaps`` mode, the bursts just
        before and just after an operation).

        Work done in an interval is its time multiplied by the rate, so the
        rate, not the kernel time, is what averages over an interval; and a
        rare slow sample (a page fault) barely moves it.
        """
        if not self.times:
            return 1.0 / REFERENCE_KERNEL_S
        lo = bisect.bisect_left(self.times, t0)
        if lo > 0:
            lo = bisect.bisect_left(self.times, self.times[lo - 1])
        hi = bisect.bisect_right(self.times, t1)
        if hi < len(self.times):
            hi = bisect.bisect_right(self.times, self.times[hi])
        window = self.kernel_s[lo:hi]
        return sum(1.0 / k for k in window) / len(window)

    def scaled(self, seconds, t0, t1):
        """``seconds`` measured over wall interval [t0, t1], at the reference speed."""
        return seconds * REFERENCE_KERNEL_S * self.speed(t0, t1)
