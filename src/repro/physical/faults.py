"""Test-only fault injection for validating the differential fuzzer.

The fuzzer (:mod:`repro.fuzz`) is itself code that can rot: a generator
that stops covering retractions, or an oracle comparison that stops
looking, would silently pass forever.  This module provides a *known
bug* that can be switched on in tests -- the fuzzer must then find it
within a bounded case budget and shrink it to a minimal repro
(``tests/test_fuzz.py``).

The injected bug mimics a classic incremental-view-maintenance mistake:
the production aggregate silently drops the first retraction (DELETE
delta) of every incremental execution -- before its lane dispatch, so
both lanes lose it -- and any workload with churn that reaches an
aggregate produces results that diverge from the per-tuple reference
path, which has no hook.

All flags default off and the hook in
:class:`~repro.physical.columnar.ColumnarAggregateExec` is a single
attribute check, so production behavior and benchmarks are unaffected.
"""

from contextlib import contextmanager

from ..engine.columns import ColumnBatch


class FaultFlags:
    """Mutable registry of injectable engine bugs (all default off)."""

    __slots__ = ("drop_agg_retraction",)

    def __init__(self):
        #: the production aggregate drops the first DELETE delta per execution
        self.drop_agg_retraction = False

    def reset(self):
        self.drop_agg_retraction = False

    def __repr__(self):
        return "FaultFlags(drop_agg_retraction=%s)" % self.drop_agg_retraction


#: process-wide injected-fault flags; mutate via :func:`inject_fault`
FAULTS = FaultFlags()


@contextmanager
def inject_fault(drop_agg_retraction=None):
    """Temporarily switch on injected engine bugs (tests only)."""
    saved = FAULTS.drop_agg_retraction
    if drop_agg_retraction is not None:
        FAULTS.drop_agg_retraction = bool(drop_agg_retraction)
    try:
        yield FAULTS
    finally:
        FAULTS.drop_agg_retraction = saved


def drop_first_retraction(batch):
    """The injected bug's behavior: lose the first DELETE of a batch."""
    signs = list(batch.sign_list())
    if -1 not in signs:
        return batch
    index = signs.index(-1)
    rows = list(batch.rows())
    bits = list(batch.bit_list())
    del rows[index], signs[index], bits[index]
    return ColumnBatch.from_rows(rows, signs, bits, batch.width)
