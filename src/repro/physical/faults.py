"""Test-only fault injection for validating the differential fuzzer.

The fuzzer (:mod:`repro.fuzz`) is itself code that can rot: a generator
that stops covering retractions, or an oracle comparison that stops
looking, would silently pass forever.  This module provides *known bugs*
that can be switched on in tests -- the fuzzer must then find each
within a bounded case budget and shrink it to a minimal repro
(``tests/test_fuzz.py``).

``drop_agg_retraction`` mimics a classic incremental-view-maintenance
mistake: the production aggregate silently drops the first retraction
(DELETE delta) of every incremental execution -- before its absorb --
and any workload with churn that
reaches an aggregate produces results that diverge from the per-tuple
reference path, which has no hook.

``drop_last_key_match`` is a bug *every* engine leg shares: each join
-- the per-tuple reference and the production operator, over private or
arranged state -- loses the matches of the last key of each block of
four (an integer key ``k`` with ``k % 4 == 3``, as a range-partitioned
probe that stops one key short would): in both legs a delta whose key
is lost finds nothing when it probes.  A per-probe "last match" would
depend on arrival order, so legs at different paces would disagree and
catch it among themselves; losing a fixed set of keys is the same bug
in every plan shape, at every pace, with identical work accounting, so
only ground truth that shares no code with the engine
(:mod:`repro.fuzz.naive`) can see it.

All flags default off and each hook is a single attribute check, so
production behavior and benchmarks are unaffected.
"""

from contextlib import contextmanager

from ..engine.columns import ColumnBatch


class FaultFlags:
    """Mutable registry of injectable engine bugs (all default off)."""

    __slots__ = ("drop_agg_retraction", "drop_last_key_match")

    def __init__(self):
        #: the production aggregate drops the first DELETE delta per execution
        self.drop_agg_retraction = False
        #: every join loses its matches on keys ``k % 4 == 3``
        self.drop_last_key_match = False

    def reset(self):
        self.drop_agg_retraction = False
        self.drop_last_key_match = False

    def __repr__(self):
        return "FaultFlags(drop_agg_retraction=%s, drop_last_key_match=%s)" % (
            self.drop_agg_retraction, self.drop_last_key_match,
        )


#: process-wide injected-fault flags; mutate via :func:`inject_fault`
FAULTS = FaultFlags()


@contextmanager
def inject_fault(drop_agg_retraction=None, drop_last_key_match=None):
    """Temporarily switch on injected engine bugs (tests only)."""
    saved = (FAULTS.drop_agg_retraction, FAULTS.drop_last_key_match)
    if drop_agg_retraction is not None:
        FAULTS.drop_agg_retraction = bool(drop_agg_retraction)
    if drop_last_key_match is not None:
        FAULTS.drop_last_key_match = bool(drop_last_key_match)
    try:
        yield FAULTS
    finally:
        FAULTS.drop_agg_retraction, FAULTS.drop_last_key_match = saved


def drop_first_retraction(batch):
    """The injected bug's behavior: lose the first DELETE of a batch."""
    signs = list(batch.sign_list())
    if -1 not in signs:
        return batch
    index = signs.index(-1)
    rows = list(batch.rows())
    bits = list(batch.bit_list())
    del rows[index], signs[index], bits[index]
    return ColumnBatch(rows, signs, bits, batch.width)


def lost_key(key):
    """Whether ``drop_last_key_match`` loses a join key's matches (a
    composite key by its first column)."""
    if type(key) is tuple:
        key = key[0]
    return type(key) is int and key % 4 == 3


def losing_get(get):
    """``drop_last_key_match`` on a production join's probe: ``get`` of
    the other side's table, finding nothing under a lost key."""
    return lambda key: None if lost_key(key) else get(key)
