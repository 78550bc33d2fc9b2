"""Stream source: simulated data arrival under a trigger condition.

The paper's prototype preloads the dataset into Kafka and pulls it at a
fixed rate (100 MB/min over a 3000 s window at SF 5).  We reproduce the
semantics: every base table's full content for one trigger condition is
known up front, and at system progress fraction ``f`` the table's delta
log contains the first ``floor(f * N)`` rows as insertions.  All tables
fill proportionally, matching the paper's fixed arrival-rate assumption
(section 2.1).
"""

from fractions import Fraction
from math import lcm

from ..relational.tuples import Delta, INSERT
from .columns import ColumnBatch


def _rational(name, value):
    """``value`` as an exact non-negative :class:`Fraction` of its text."""
    try:
        exact = Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        exact = None
    if exact is None or exact < 0:
        raise ValueError(
            "%s must be a non-negative rational, got %r" % (name, value)
        )
    return exact


class StreamConfig:
    """Timing parameters of the simulated load.

    Parameters
    ----------
    load_seconds:
        wall-clock length of the loading window (paper: 3000 s).
    work_rate:
        work units executed per second; converts measured work units into
        the seconds the paper reports.  Absolute seconds are a linear
        rescaling and do not affect any comparison shape.
    execution_overhead:
        fixed work units charged per incremental execution of a subplan
        (the job-start cost the paper mitigates with Drizzle [47]; kept
        small but non-zero so infinitely eager execution is never free).
    state_factor:
        per-execution state-maintenance charge: every incremental
        execution of a stateful operator (join hash tables, aggregate
        groups) pays ``state_factor`` work units per live state entry.
        This models the per-micro-batch state-store maintenance of the
        paper's Spark substrate -- the physical reason eager incremental
        execution costs more than batch (paper Figure 1).
    compact_buffers:
        when True (default), inter-subplan buffers behave like compacted
        Kafka topics: churn that cancels within a consumer's unread window
        is never processed.  Turning it off is an ablation switch -- lazy
        parents then re-process all upstream churn and delaying subplans
        stops saving work.

    Both charges are exact rationals (``0.3`` is 3/10, ``"1/3"`` is
    accepted), so measured work is an integer count of ``1/quantum`` work
    units, ``quantum`` being the lcm of their denominators.
    """

    __slots__ = ("load_seconds", "work_rate", "execution_overhead",
                 "state_factor", "compact_buffers", "quantum")

    def __init__(self, load_seconds=3000.0, work_rate=10000.0, execution_overhead=1.0,
                 state_factor=0.3, compact_buffers=True):
        self.load_seconds = float(load_seconds)
        self.work_rate = float(work_rate)
        self.execution_overhead = _rational("execution_overhead", execution_overhead)
        self.state_factor = _rational("state_factor", state_factor)
        self.compact_buffers = bool(compact_buffers)
        self.quantum = lcm(self.execution_overhead.denominator,
                           self.state_factor.denominator)
        if self.load_seconds <= 0:
            raise ValueError(
                "load_seconds must be positive, got %r" % (load_seconds,)
            )
        if self.work_rate <= 0:
            raise ValueError("work_rate must be positive, got %r" % (work_rate,))

    def seconds(self, work_units):
        """Convert work units to seconds."""
        return work_units / self.work_rate

    def __repr__(self):
        return (
            "StreamConfig(load=%.0fs, rate=%.0f/s, overhead=%s, "
            "state_factor=%s, compact_buffers=%s)"
            % (
                self.load_seconds,
                self.work_rate,
                self.execution_overhead,
                self.state_factor,
                self.compact_buffers,
            )
        )


class TableStream:
    """The arrival schedule of one base table.

    Replays the table's delta log -- pure insertions for ordinary tables,
    or the recorded insert/delete/update sequence for tables with churn
    (section 2.3 supports all three on inputs).
    """

    __slots__ = ("table", "log", "delivered")

    def __init__(self, table):
        self.rebind(table)

    def rebind(self, table):
        """Replay ``table`` from its start: the next window's data."""
        self.table = table
        self.log = table.delta_log()
        self.delivered = 0

    def total_rows(self):
        return len(self.log)

    def _target(self, fraction):
        """Rows of the log due by ``fraction``: ``floor(fraction * N)``.

        ``fraction`` is any rational -- only its integer ``numerator``
        and ``denominator`` are read (a :class:`~fractions.Fraction`, or
        a window program's :class:`~repro.engine.executor.TriggerPoint`),
        so a compiled schedule places its targets without rational
        arithmetic.
        """
        total = len(self.log)
        return min(fraction.numerator * total // fraction.denominator, total)

    def deltas_until(self, fraction):
        """New deltas to reach progress ``fraction`` (see :meth:`_target`)."""
        target = self._target(fraction)
        if target <= self.delivered:
            return []
        new = self.log[self.delivered:target]
        self.delivered = target
        return [Delta(row, sign, ~0) for row, sign in new]

    def batch_until(self, fraction):
        """Batch twin of :meth:`deltas_until`: one shared segment.

        Builds a single :class:`~repro.engine.columns.ColumnBatch`
        straight from the delta log -- no per-row :class:`Delta`
        allocation -- carrying the same ``(row, sign, ~0)`` content.  The
        executor appends it to the table buffer as one segment, so
        *every* subplan reading the table shares one batch object
        instead of each building a private delta list.  Returns ``None``
        when no new rows arrive.
        """
        target = self._target(fraction)
        if target <= self.delivered:
            return None
        new = self.log[self.delivered:target]
        self.delivered = target
        rows = [row for row, _ in new]
        signs = [sign for _, sign in new]
        # table deltas carry the full bitvector ``~0``, which is -1
        return ColumnBatch(rows, signs, [-1] * len(new),
                           len(self.table.schema))

    def reset(self):
        self.delivered = 0


def execution_fractions(pace):
    """The system-progress fractions at which a subplan with ``pace`` runs.

    A pace ``k`` subplan starts one execution whenever the system has
    received ``1/k`` of the total estimated tuples (paper section 2.2), so
    it runs at fractions ``1/k, 2/k, ..., 1``.
    """
    if pace < 1:
        raise ValueError("pace must be >= 1, got %r" % (pace,))
    return [Fraction(i, pace) for i in range(1, pace + 1)]
