"""Reference-normalised timing for the pipeline benchmark.

The sandbox this benchmark is sized on changes speed by up to 2x over
tens of seconds (shared host, no control over frequency or neighbours),
which would put the run-to-run spread of any raw wall-clock median far
above the regression bounds in ``BENCHMARK.json``.  Every timed
repetition is therefore bracketed by a small *reference kernel* -- a
fixed pure-Python dict/tuple/list aggregation with the same instruction
and memory mix as the engine -- and reported in **reference-normalised
seconds**::

    normalised = raw * REF_NOMINAL_S / mean(kernel before, kernel after)

On a quiet machine the kernel takes ``REF_NOMINAL_S`` and the numbers
are plain wall seconds; on a drifting one the drift cancels (measured
here over 4 minutes of eager windows: spread of block medians 11% raw,
1.7% normalised).  The raw medians are printed beside the normalised
ones, never instead of them.
"""

import gc
import signal
import statistics
from time import perf_counter

#: what the reference kernel takes on the sizing machine's quiet state;
#: a constant, so normalised numbers read as seconds on that machine
REF_NOMINAL_S = 0.0075

_ROWS = [(i, i % 97, float(i) * 1.5, "k%d" % (i % 13)) for i in range(40000)]


def ref_kernel():
    """Fixed grouped aggregation over 40k tuples (dicts, tuples, a sort)."""
    groups = {}
    for row in _ROWS:
        key = (row[1], row[3])
        entry = groups.get(key)
        if entry is None:
            groups[key] = [row[2], 1]
        else:
            entry[0] += row[2]
            entry[1] += 1
    out = [(key, value[0] / value[1]) for key, value in groups.items()]
    out.sort()
    return len(out)


def ref_seconds():
    start = perf_counter()
    ref_kernel()
    return perf_counter() - start


def _middle_mean(readings):
    """Mean of the middle 60% of the kernel readings.

    A call's time follows the *mean* speed of the machine over it, so
    the mean and not the median; a reading the scheduler preempted is no
    speed, so the tails go.  Two readings give their plain mean.
    """
    ordered = sorted(readings)
    cut = len(ordered) // 5
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Timed:
    """One timed call: its result, raw seconds and normalisation scale."""

    __slots__ = ("result", "raw", "scale")

    def __init__(self, result, raw, scale):
        self.result = result
        self.raw = raw
        self.scale = scale

    @property
    def seconds(self):
        return self.raw * self.scale


class Clock:
    """Times calls in reference-normalised seconds.

    Back-to-back repetitions share the kernel run between them (the
    ``after`` of one is the ``before`` of the next), so a closed loop
    pays one kernel per repetition.

    The machine changes speed *inside* a call that takes seconds, which
    readings at its ends cannot see.  ``sample_every`` makes an interval
    timer run the kernel every so many seconds inside the call as well,
    from a signal handler between two bytecodes of the main thread; the
    kernel's own time is taken off the call's.  Measured on a 1.9 s
    planning repetition, twice 40 in a row: standard deviation over mean
    11% and 11% raw, 10% and 5% normalised by the ends, 4% and 3% by
    readings inside (every 100 and 50 ms); range of nine-sample medians
    17% and 4%, 8% and 5%, 6% and 3%.
    """

    #: a kernel reading older than this is measured again
    REUSE_SECONDS = 0.05

    def __init__(self):
        self._last_ref = (0.0, float("-inf"))  # (kernel seconds, when it ended)

    def timed(self, fn, sample_every=0.0):
        """Run ``fn()`` once: GC first (left enabled during), kernel either side."""
        gc.collect()
        before, ended = self._last_ref
        if perf_counter() - ended > self.REUSE_SECONDS:
            before = ref_seconds()
        inside = []
        if sample_every:
            previous = signal.signal(
                signal.SIGALRM, lambda signum, frame: inside.append(ref_seconds()))
            signal.setitimer(signal.ITIMER_REAL, sample_every, sample_every)
        start = perf_counter()
        try:
            result = fn()
        finally:
            raw = perf_counter() - start
            if sample_every:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        after = ref_seconds()
        self._last_ref = (after, perf_counter())
        return Timed(result, raw - sum(inside),
                     REF_NOMINAL_S / _middle_mean(inside + [before, after]))


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, fraction):
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def spread(values):
    """Interquartile distance over the median (the contract's spread)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / quartiles[1] if quartiles[1] else 0.0
