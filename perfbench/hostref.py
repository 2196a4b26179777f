"""Host speed reference for the csdp benchmark.

The benchmark runs on a few cores of a shared host whose speed swings by
about 1.5x within seconds, as other tenants come and go.  Seconds measured
minutes apart are therefore not comparable, however long a run is.  This
module times a fixed piece of reference work every SAMPLE_INTERVAL_S, from
a timer signal, so samples are taken inside long operations too.  An
operation's cost is its seconds divided by the mean reference time of the
samples taken around it: how many reference loops the host could have run
in the same time.  The ratio follows the program's speed and cancels the
host's.

The reference work is the mix csdp runs: the interpreter with small NumPy
calls on data in cache, and the interpreter walking large Python lists,
in order and at random, out of cache, as csdp's product-space loops do at
n >= 256.  A reference of the first kind alone leaves the n=1024 requests
as noisy as raw seconds, because other tenants slow memory and arithmetic
by different amounts.

Samples run on the main thread between bytecodes; their CPU time is taken
from the thread clock, so a wait for the GIL (the gate's two-thread sweep)
does not count, and their wall time is subtracted from the operation that
they interrupted.
"""

from __future__ import annotations

import signal
from time import perf_counter, thread_time

import numpy as np

SAMPLE_INTERVAL_S = 0.05
# Samples this far either side of an operation count towards its reference.
WINDOW_S = 0.25
# Python floats walked by the out-of-cache part: about 32 MB.
LIST_SIZE = 1 << 20
SEQUENTIAL_STEP = 4096
RANDOM_READS = 1000
RANDOM_SPAN = 200_000


class HostReference:
    def __init__(self):
        self.starts = []  # perf_counter at each sample's start, increasing
        self.walls = []  # wall seconds of each sample
        self.cpus = []  # thread CPU seconds of each sample
        self._previous = None
        rng = np.random.default_rng(0)
        self._values = rng.random(LIST_SIZE).tolist()
        self._order = rng.permutation(LIST_SIZE)[:RANDOM_SPAN].tolist()
        self._offset = 0

    def _work(self) -> float:
        acc = 0.0
        for i in range(200):
            acc += (i * 0.5) % 3.0
        v = np.arange(32.0)
        for _ in range(8):
            v = np.sqrt(v * v + 1.0)
        at = self._offset = (self._offset + SEQUENTIAL_STEP) % LIST_SIZE
        for x in self._values[at:at + SEQUENTIAL_STEP:2]:
            acc += abs(x - 0.5)
        at %= RANDOM_SPAN - RANDOM_READS
        values = self._values
        for i in self._order[at:at + RANDOM_READS]:
            acc += values[i]
        return acc + float(v.sum())

    def sample(self, *_signal_args) -> None:
        start, cpu = perf_counter(), thread_time()
        self._work()
        cpu, end = thread_time() - cpu, perf_counter()
        self.starts.append(start)
        self.walls.append(end - start)
        self.cpus.append(cpu)

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.sample()

    def costs(self, starts, seconds) -> np.ndarray:
        """Costs of operations that started at `starts` (perf_counter) and
        took `seconds`, in reference loops: each one's own time, without the
        samples that ran inside it, over the mean reference time of the
        samples around it."""
        starts = np.asarray(starts, dtype=float)
        ends = starts + np.asarray(seconds, dtype=float)
        at = np.asarray(self.starts)
        cpus = np.concatenate(([0.0], np.cumsum(self.cpus)))
        walls = np.concatenate(([0.0], np.cumsum(self.walls)))
        lo = np.searchsorted(at, starts - WINDOW_S, side="left")
        hi = np.searchsorted(at, ends + WINDOW_S, side="right")
        # No sample near an operation (a C call held the signal back): take
        # the next sample, or the last.
        empty = lo == hi
        lo[empty] = np.minimum(lo[empty], len(at) - 1)
        hi[empty] = lo[empty] + 1
        reference = (cpus[hi] - cpus[lo]) / (hi - lo)
        inside = (walls[np.searchsorted(at, ends, side="left")]
                  - walls[np.searchsorted(at, starts, side="left")])
        own = np.maximum(ends - starts - inside, 0.0)
        return own / reference
