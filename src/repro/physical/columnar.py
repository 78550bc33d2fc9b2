"""The production operators: one generated row kernel per operator.

Delta batches flow between operators as
:class:`~repro.engine.columns.ColumnBatch` structs (parallel lists of
rows, signs and bitvectors), and every operator runs its batch through
generated Python loops (:mod:`repro.physical.fused`): a source or
decoration chain's mask -> mark filters -> projection, one loop per join
side -- per delta its probe of the other side's table, the join's own
filters and projection on each match and its install -- and an
aggregate's per-delta absorb into its group records and its per-group
emission.  An empty input allocates nothing beyond the shared
:meth:`ColumnBatch.empty`.

Calibration runs these operators as every window does.  In
``stats_mode`` an operator additionally tallies, per query, the batches
that already cross its boundaries -- a source's input under its subplan
mask, a join's and an aggregate's inputs and raw output, every chain's
input and output when the node has filters (:func:`_count_bits`) --
around the very kernels a window runs, so the statistics describe the
code that will run (a filtered join, whose raw output is never a batch,
counts its matches' bits in a stats-only probe, :func:`_match_patterns`).

Two invariants tie the operators to the per-tuple reference
(:mod:`repro.physical.operators`), bit for bit:

* **exact WorkMeter parity** -- every charge is computed from batch
  lengths that equal the reference's list lengths, and the aggregate's
  arithmetic is the reference's, operation for operation, so emission
  *counts* (and therefore output/work accounting) never diverge;
* **order preservation** -- join output order is delta-major with
  matches in state insertion order, and per-(group, query) aggregate
  update order is the original delta order, because MIN/MAX rescan
  charges depend on it.

``tests/test_columnar_equivalence.py``, ``tests/test_hotpath_equivalence.py``
and the ``shared-columnar`` fuzz oracle enforce both.
"""

from collections import Counter
from operator import itemgetter

from ..engine.arrangements import PrivateSide
from ..engine.columns import ColumnBatch, concat_batches
from .faults import FAULTS, drop_first_retraction, losing_get
from .fused import (
    fused_aggregate_kernels,
    fused_join_kernel,
    fused_row_kernel,
)
from .hotpath import qids_of


def _count_bits(batch, *accs, mask=-1):
    """Stats mode: tally ``batch``'s rows per query, under ``mask``.

    Adds each query's row count to every counter dict of ``accs`` and
    returns how many rows keep a bit.  Bit patterns are counted, then
    decoded once per distinct pattern, in ascending pattern order: the
    counters' key order, which the cost model's float sums follow, does
    not depend on the batch's row order.
    """
    patterns = {}
    for pattern, count in Counter(batch.bit_list()).items():
        pattern &= mask
        if pattern:
            patterns[pattern] = patterns.get(pattern, 0) + count
    return _tally_patterns(patterns, *accs)


def _tally_patterns(patterns, *accs):
    """``_count_bits`` from ``{bit pattern: rows}``."""
    for pattern, count in sorted(patterns.items()):
        for qid in qids_of(pattern):
            for acc in accs:
                acc[qid] = acc.get(qid, 0) + count
    return sum(patterns.values())


def _match_patterns(batch, key, get, patterns):
    """Stats mode: count into ``patterns`` the joined bits of each match
    ``batch``'s deltas find through ``get`` (by ``key``), ``|net|`` times."""
    for dkey, dbits in zip(map(key, batch.rows()), batch.bit_list()):
        matches = get(dkey)
        if matches:
            for (_, sbits), net in matches.items():
                b = dbits & sbits
                if b:
                    patterns[b] = patterns.get(b, 0) + abs(net)


# -- columnar decorations ----------------------------------------------------


class ColumnarDecorations:
    """Columnar twin of :class:`~repro.physical.operators.Decorations`.

    Charges the same amounts under the same operator names: the filter
    charge is the pre-filter batch length, the projection charge the
    post-filter length, exactly like the reference.
    """

    __slots__ = ("node", "source", "filter_name", "project_name",
                 "filter_in_per_q", "filter_out_per_q", "kernel")

    def __init__(self, node, source=False):
        self.node = node
        #: whether a source owns this chain (its kernel masks first)
        self.source = source
        self.filter_name = "filter:%d" % node.uid
        self.project_name = "proj:%d" % node.uid
        self.kernel = None  # generated on the first batch
        self.filter_in_per_q = {}
        self.filter_out_per_q = {}

    def reset_stats(self):
        self.filter_in_per_q.clear()
        self.filter_out_per_q.clear()

    def apply(self, batch, meter, mask=None):
        """(source mask ->) mark filters -> projection.

        One generated loop over the batch's rows
        (:func:`~repro.physical.fused.fused_row_kernel`).  The filter
        stage is charged its input length (after the source mask), the
        projection stage the survivors, both even at zero.  ``mask`` is
        the owning subplan's query mask when a source runs its whole
        chain here, ``None`` for bare decorations.
        """
        kernel = self.kernel
        if kernel is None:
            kernel = self.kernel = fused_row_kernel(self.node, self.source)
        return kernel(batch, mask, meter)

    def apply_tallied(self, batch, meter, *accs, mask=None):
        """Stats mode: :meth:`apply` between two tallies.

        The chain's input -- under ``mask`` for a source -- is counted
        into the owner's per-query counters ``accs`` and, when the node
        has filters, into ``filter_in_per_q``; its output then into
        ``filter_out_per_q`` (projection changes no bits).  Returns the
        output and how many input rows kept a bit.
        """
        filtered = bool(self.node.filters)
        if filtered:
            accs += (self.filter_in_per_q,)
        kept = 0
        if accs:
            kept = _count_bits(
                batch, *accs, mask=-1 if mask is None else mask)
        batch = self.apply(batch, meter, mask)
        if filtered:
            _count_bits(batch, self.filter_out_per_q)
        return batch, kept


# -- source ------------------------------------------------------------------


def _consolidated_batch(batches, width):
    """``consolidate`` over buffer segments: one pass to a row-backed
    batch, no Delta allocated.

    Emits exactly :func:`repro.relational.tuples.consolidate`'s
    sequence -- first-seen ``(row, bits)`` order, net multiplicity
    expanded back into unit entries -- over the concatenated segments,
    which is what the reference source computes from its Delta lists.

    A read of inserts only, each ``(row, bits)`` once, is consolidation's
    identity (64% of the rows a lazy 22-query window consolidates): its
    segments come back as the unconsolidated read returns them (one
    segment itself, several concatenated), after one C-speed set pass
    instead of the loop.
    """
    listed = [
        (batch.rows(), batch.sign_list(), batch.bit_list())
        for batch in batches
    ]
    if _distinct_inserts(listed):
        return concat_batches(batches, width)
    # each (row, bits)'s net, in first-seen order: ``setdefault`` both
    # looks a key up and stores a first-seen one, so only a repeat
    # hashes the (wide) row twice
    net = {}
    net_setdefault = net.setdefault
    size = 0
    for batch_rows, batch_signs, batch_bits in listed:
        for key, sign in zip(zip(batch_rows, batch_bits), batch_signs):
            count = net_setdefault(key, sign)
            if len(net) == size:
                net[key] = count + sign
            else:
                size += 1
    rows = []
    signs = []
    bits = []
    for (row, bit), count in net.items():
        if count == 0:
            continue
        if count > 0:
            sign = 1
        else:
            sign = -1
            count = -count
        if count == 1:
            rows.append(row)
            signs.append(sign)
            bits.append(bit)
        else:
            rows.extend([row] * count)
            signs.extend([sign] * count)
            bits.extend([bit] * count)
    return ColumnBatch(rows, signs, bits, width)


def _distinct_inserts(listed):
    """Whether the ``(rows, signs, bits)`` segments carry only inserts,
    each ``(row, bits)`` once: consolidation's identity case."""
    if any(-1 in signs for _, signs, _ in listed):
        return False
    seen = set()
    for rows, _, bits in listed:
        seen.update(zip(rows, bits))
    return len(seen) == sum(len(signs) for _, signs, _ in listed)


class ColumnarSourceExec:
    """Columnar twin of :class:`~repro.physical.operators.SourceExec`."""

    def __init__(self, node, reader, subplan_mask, meter, stats_mode=False,
                 consolidate_reads=False):
        self.node = node
        self.reader = reader
        self.subplan_mask = subplan_mask
        self.meter = meter
        self.name = "src:%d" % node.uid
        self.decorations = ColumnarDecorations(node, source=True)
        self.stats_mode = stats_mode
        self.consolidate_reads = consolidate_reads
        self.width = len(node.core_schema)
        self.scanned_total = 0
        self.kept_total = 0
        self.kept_per_q = {}

    def release(self):
        """Nothing to drop: a source's log is its buffer's."""

    def rewind(self):
        """Reader back to offset 0, counters zeroed."""
        self.reader.offset = 0
        self.scanned_total = 0
        self.kept_total = 0
        self.kept_per_q = {}
        self.decorations.reset_stats()

    def advance(self):
        reader = self.reader
        start = reader.offset
        segments = reader.read_new()
        width = self.width
        if not segments:
            batch = ColumnBatch.empty(width)
        elif self.consolidate_reads:
            # consolidation depends only on the logical span read, so
            # same-pace consumers of one buffer share a single pass
            batch = reader.buffer.cache_view(
                (start, reader.offset, True),
                lambda: _consolidated_batch(segments, width),
            )
        elif len(segments) == 1:
            # the common case: the producer's segment is consumed as-is
            batch = segments[0]
        else:
            batch = reader.buffer.cache_view(
                (start, reader.offset, False),
                lambda: concat_batches(segments, width),
            )
        n = len(batch)
        self.meter.charge_input(self.name, n)
        self.scanned_total += n
        if not self.stats_mode:
            return self.decorations.apply(
                batch, self.meter, self.subplan_mask
            )
        out, kept = self.decorations.apply_tallied(
            batch, self.meter, self.kept_per_q, mask=self.subplan_mask
        )
        self.kept_total += kept
        return out


# -- join --------------------------------------------------------------------


class ColumnarJoinExec:
    """Columnar twin of :class:`~repro.physical.operators.JoinExec`.

    Each side's state (``states``, fixed at construction) holds the
    reference's ``key -> {(row, bits): net}`` table: the
    :class:`~repro.engine.arrangements.ArrangementHandle` the executor
    passes for a bare base-table scan (``arranged``; its rows' slots
    carry ``~0``), a :class:`~repro.engine.arrangements.PrivateSide`
    otherwise.  Each side's new deltas run through that side's generated
    kernel (:func:`~repro.physical.fused.fused_join_kernel`), which
    reads either table form the same way, emits the reference's exact
    sequence and charges its exact work (the exactness contract in
    :mod:`repro.engine.arrangements`).
    """

    def __init__(self, node, left, right, meter, stats_mode=False,
                 arranged=(None, None)):
        self.node = node
        self.left = left
        self.right = right
        self.meter = meter
        self.name = "join:%d" % node.uid
        self.states = tuple(
            PrivateSide() if handle is None else handle for handle in arranged
        )
        # the chain's counters and stage names: the side kernels filter
        # and project, its row kernel never runs
        self.decorations = ColumnarDecorations(node)
        self._kernels = None  # per side, generated on the first batch
        # stats mode, filtered node: each side's key, for _match_patterns
        self._keys = (None, None)
        if stats_mode and node.filters:
            self._keys = [itemgetter(*map(child.out_schema.index_of, keys))
                          for child, keys in zip(node.children, (
                              node.left_keys, node.right_keys))]
        self.stats_mode = stats_mode
        self.in_left = 0
        self.in_right = 0
        self.out_total = 0
        self.in_left_per_q = {}
        self.in_right_per_q = {}
        self.out_per_q = {}

    @property
    def entry_count(self):
        """Live slots this join is charged for, both sides (an arranged
        side's version holds what a private table would)."""
        left, right = self.states
        return left.entries + right.entries

    def release(self):
        """Drop both private sides, down the tree; an arranged side's
        version (the arrangement's to free), readers and counters stay."""
        self.left.release()
        self.right.release()
        for state in self.states:
            state.release()

    def rewind(self):
        """Readers back to offset 0 and counters zeroed, down the tree."""
        self.left.rewind()
        self.right.rewind()
        self.in_left = 0
        self.in_right = 0
        self.out_total = 0
        self.in_left_per_q = {}
        self.in_right_per_q = {}
        self.out_per_q = {}
        self.decorations.reset_stats()

    def advance(self):
        left_batch = self.left.advance()
        right_batch = self.right.advance()
        meter = self.meter
        meter.charge_input(self.name, len(left_batch) + len(right_batch))
        kernels = self._kernels
        if kernels is None:
            kernels = self._kernels = tuple(
                fused_join_kernel(self.node, side, type(state) is PrivateSide)
                for side, state in enumerate(self.states)
            )
        # In the reference's order: new left deltas probe the *old*
        # right state and are installed, then new right deltas probe the
        # *new* left state and are installed.  A delta's install touches
        # only its own side, so each side is one pass, probe and install
        # per delta.
        out = [], [], []  # output rows, signs and bits, both sides
        joined = 0
        patterns = {}  # stats mode, filtered node: joined bits -> matches
        own, other = self.states
        for batch, kernel, key in zip((left_batch, right_batch), kernels,
                                      self._keys):
            if len(batch):
                private = type(own) is PrivateSide
                # an arranged side's kernel only probes
                if private or other.entries:
                    get = other.table.get
                    if FAULTS.drop_last_key_match:
                        # test-only injected bug, at the probe: see
                        # repro.physical.faults
                        get = losing_get(get)
                    if key is not None:
                        _match_patterns(batch, key, get, patterns)
                    joined += kernel(batch.rows(), batch.sign_list(),
                                     batch.bit_list(), get, own, *out)
                if not private:
                    own.install(batch)
            own, other = other, own
        width = kernels[0].width
        out = ColumnBatch(*out, width) if out[0] else ColumnBatch.empty(width)
        meter.charge_output(self.name, joined)
        meter.charge_state(self.entry_count)
        node, decorations = self.node, self.decorations
        if node.filters:
            meter.charge_input(decorations.filter_name, joined)
        if node.projections:
            meter.charge_input(decorations.project_name, len(out))
        if self.stats_mode:
            self.in_left += len(left_batch)
            self.in_right += len(right_batch)
            self.out_total += joined
            _count_bits(left_batch, self.in_left_per_q)
            _count_bits(right_batch, self.in_right_per_q)
            if not node.filters:  # projection changes no bits
                _count_bits(out, self.out_per_q)
            else:
                _tally_patterns(patterns, self.out_per_q,
                                decorations.filter_in_per_q)
                _count_bits(out, decorations.filter_out_per_q)
        return out


# -- aggregate ---------------------------------------------------------------


class ColumnarAggregateExec:
    """The production shared group-by aggregate: bit for bit the emitted
    sequences, float arithmetic, WorkMeter charges and ``state_count`` of
    the reference :class:`~repro.physical.operators.AggregateExec`.

    State is one *group record* per live group (layout and generated
    code: :mod:`repro.physical.fused`), written by the generated
    per-delta absorb and read by the generated per-group emission.
    """

    def __init__(self, node, child, subplan_mask, meter, stats_mode=False):
        self.node = node
        self.child = child
        self.subplan_mask = subplan_mask
        self.meter = meter
        self.name = "agg:%d" % node.uid
        self.specs = node.aggs
        self.decorations = ColumnarDecorations(node)
        self.stats_mode = stats_mode
        # the queries this operator keeps state for: its subplan's, or
        # the node's when a caller passes the all-ones mask
        self._kernels = fused_aggregate_kernels(node, qids_of(
            subplan_mask if subplan_mask >= 0 else node.query_mask))
        self._empty = ColumnBatch.empty(len(node.group_by) + len(node.aggs))
        self._clear()
        self.in_total = self.out_total = 0
        self.in_per_q = {}

    def _clear(self):
        self._groups = {}  # group key -> record
        self._touched = []  # records absorbed into since the last emission
        self.state_count = 0

    def release(self):
        """Drop the group records, down the tree; readers and counters
        stay."""
        self.child.release()
        self._clear()

    def rewind(self):
        """Readers back to offset 0 and counters zeroed, down the tree."""
        self.child.rewind()
        self.in_total = self.out_total = 0
        self.in_per_q = {}
        self.decorations.reset_stats()

    def advance(self):
        batch = self.child.advance()
        if FAULTS.drop_agg_retraction:
            # test-only injected bug, ahead of the absorb: see
            # repro.physical.faults
            batch = drop_first_retraction(batch)
        n = len(batch)
        self.meter.charge_input(self.name, n)
        if self.stats_mode:
            self.in_total += n
            _count_bits(batch, self.in_per_q)
        if n:
            self.state_count = self._kernels.absorb(
                batch.rows(), batch.sign_list(), batch.bit_list(),
                self._groups, self._touched, self.meter, self.name,
                self.state_count,
            )
        out = self._emit()
        self.meter.charge_output(self.name, len(out))
        self.meter.charge_state(self.state_count)
        if not self.stats_mode:
            return self.decorations.apply(out, self.meter)
        self.out_total += len(out)
        return self.decorations.apply_tallied(out, self.meter)[0]

    def _emit(self):
        """Nothing touched: the shared empty batch, nothing allocated."""
        touched = self._touched
        if not touched:
            return self._empty
        out, self.state_count = self._kernels.emit(
            touched, self._groups, self.state_count
        )
        del touched[:]
        return out

    def group_count(self, qid=None):
        """Number of live groups (optionally for one query); diagnostics."""
        if qid is None:
            return len(self._groups)
        slot = self._kernels.slot_of.get(qid)
        if slot is None:
            return 0
        return sum(1 for rec in self._groups.values() if rec[slot] is not None)
