"""Machine-speed correction for the benchmark's timings.

The machine the benchmark runs on is shared: other tenants slow it down by
tens of per cent, in bursts of a fraction of a second and in stretches of
minutes, and wall and CPU time both follow.  No statistic taken within one
run removes a stretch that lasts the whole run, so each run also measures
the machine's speed, all the time it measures the program.

While a ``Speedometer`` is open, a timer signal runs a fixed reference
search (benchmark code; it runs nothing of the program) every PROBE_EVERY
seconds, between the program's bytecodes, so that operations that last
seconds are probed while they run.  Operations that run in child processes
are probed between them instead (``Speedometer(timer=False)``).
``Speedometer.own_time`` is the time the probes took within an interval,
which the caller takes off that interval.  An operation's time is then multiplied by ``scale``: REFERENCE_PROBE_S over
the mean time of the probes within PROBE_WINDOW seconds of the operation.
That is its time on a machine where the probe takes REFERENCE_PROBE_S; it
moves with the program's speed and, to first order, not with the machine's.
"""

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter, process_time

PROBE_EVERY = 0.1  # seconds between probes
PROBE_WINDOW = 0.25  # seconds: probes this close to an operation set its scale
BETWEEN_PROBES = 3  # probes taken at once, around set-ups and between untimed ops
# The probe's time in the quiet stretches of the 2-vCPU machine the
# reference figures in README.md were taken on (Python 3.11); its median
# there was about 1.1 ms.
REFERENCE_PROBE_S = 0.00065
PROBE_SIZE = 6


def _search(prefix, out):
    if len(prefix) == PROBE_SIZE:
        out[0] += 1
        return
    for value in range(PROBE_SIZE):
        if value in prefix:
            continue
        word = prefix + (value,)
        if len(word) >= 3 and word[-3] < word[-1] < word[-2]:
            continue  # the last three letters form a 132
        _search(word, out)


def reference_search():
    """Count the permutations of 0..5 with no 132 in three adjacent letters, by backtracking.

    Like the program's counting engine it is recursive pure Python that
    builds tuples and tests letters; its working set stays small.
    """
    out = [0]
    _search((), out)
    return out[0]


class Speedometer:
    """Times of the reference search, by when they were taken; a context manager."""

    def __init__(self, timer=True):
        self.timer = timer
        self.starts, self.times, self.cpus = [], [], []
        self._busy = False

    def _probe(self, signum=None, frame=None):
        if self._busy:  # a probe that outlasted PROBE_EVERY; keep the times in order
            return
        self._busy = True
        start, cpu = perf_counter(), process_time()
        reference_search()
        self.cpus.append(process_time() - cpu)
        self.times.append(perf_counter() - start)
        self.starts.append(start)
        self._busy = False

    def __enter__(self):
        self._probe()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def probe(self):
        """Probe BETWEEN_PROBES times now."""
        for _ in range(BETWEEN_PROBES):
            self._probe()

    def between(self):
        """Without the timer, probe now, between two operations.

        For operations that run in child processes: this process waits for
        them, and a probe that wakes it measures its wake-up, not the machine
        (six ``cli`` runs probed between operations spread 3-5%; four
        probed by the timer, 17-25%).
        """
        if not self.timer:
            self.probe()

    def own_time(self, start, end):
        """(wall, CPU) seconds the probes took between ``start`` and ``end``."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return sum(self.times[lo:hi]), sum(self.cpus[lo:hi])

    def scale(self, start, end):
        """Factor that turns a time taken between ``start`` and ``end`` into one at reference speed."""
        window = PROBE_WINDOW
        while True:
            lo = bisect_left(self.starts, start - window)
            hi = bisect_right(self.starts, end + window)
            if hi > lo:
                return REFERENCE_PROBE_S / statistics.fmean(self.times[lo:hi])
            window *= 2  # the timer was late; look further
