"""A fixed computation timed beside the operations, to express latency in units of the machine's speed.

The host this benchmark runs on is shared: the same operation can take
twice as long for minutes at a time while other tenants are busy, and a
run of under a minute cannot average that out.  So the end-to-end run times this
kernel twice a second, at each thread count the operations use, and
reports an operation's latency relative to the kernel's median time around
it.  The kernel uses numpy and mdhv-free Python only, and works the way the
program does (Philox draws, row norms, cross products and counts on 2^12 x 3
arrays, then small per-row calls and string formatting), so a slow phase of
the host slows both alike, while a change to mdhv moves only the operation.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

ROWS = 1 << 12  # 96 KiB arrays: below malloc's mmap threshold, so no page faults are timed
BULK_REPEATS = 16
SMALL_CALLS = 600
EVERY_S = 0.5  # time between two samples
WINDOW_S = 2.0  # an operation is divided by the median of the samples this close to its start


def kernel(seed: int) -> float:
    """A fixed amount of work, half vectorised numpy and half interpreter-bound small calls.

    The numpy half is what a many-shot verify spends its time on; the small
    half is what per-context overhead, CLI rows and trace writes spend it on.
    """
    g = np.random.Generator(np.random.Philox(seed))
    counts = np.zeros(4, dtype=np.int64)
    for _ in range(BULK_REPEATS):
        v = g.standard_normal((ROWS, 3))
        u = v / np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
        c = np.cross(u, np.array([0.0, 0.0, 1.0]))
        counts += np.bincount((u[:, 2] > 0.3).astype(np.int64) + 2 * (c[:, 0] > 0.0), minlength=4)
    rows = []
    for i in range(SMALL_CALLS):
        w = g.standard_normal(3)
        w = w / np.linalg.norm(w)
        rows.append(f"{i},{w[0]:.17g},{w[1]:.17g},{w[2]:.17g},{int(w @ u[i] >= 0.0)}")
    return float(counts[0] + len("\n".join(rows)))


def timed(threads: int) -> float:
    """Seconds for `threads` copies of the kernel, one per thread, as run_experiment spreads its chunks."""
    t0 = time.perf_counter()
    if threads == 1:
        kernel(1)
    else:
        workers = [threading.Thread(target=kernel, args=(i,)) for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    return time.perf_counter() - t0


class Calibration:
    """Kernel times at each thread count, sampled through the run."""

    def __init__(self, thread_counts):
        self.thread_counts = sorted(set(thread_counts))
        self.when: list[float] = []
        self.seconds: dict[int, list[float]] = {n: [] for n in self.thread_counts}
        for n in self.thread_counts:  # first calls pay numpy's lazy set-up; not recorded
            timed(n)

    def sample(self) -> None:
        self.when.append(time.perf_counter())
        for n in self.thread_counts:
            self.seconds[n].append(timed(n))

    def maybe_sample(self) -> None:
        if not self.when or time.perf_counter() - self.when[-1] >= EVERY_S:
            self.sample()

    def around(self, t: float, threads: int) -> float:
        """Median kernel time at `threads` over the samples within WINDOW_S of t (the nearest, if none)."""
        lo = bisect.bisect_left(self.when, t - WINDOW_S)
        hi = bisect.bisect_right(self.when, t + WINDOW_S)
        if lo == hi:
            i = min(range(len(self.when)), key=lambda j: abs(self.when[j] - t))
            lo, hi = i, i + 1
        return statistics.median(self.seconds[threads][lo:hi])

    def relative(self, start: float, parts: dict, threads: dict) -> float:
        """An operation's latency in kernel times: each timed part over the kernel at its thread count."""
        return sum(parts[p] / self.around(start, n) for p, n in threads.items())

    def summary(self) -> dict:
        return {f"calibration_{n}t_ms": 1000.0 * statistics.median(s) for n, s in self.seconds.items()} | {
            "calibration_samples": len(self.when)}
