"""The production operators: struct-of-arrays batches, two lanes per size.

Delta batches flow between operators as
:class:`~repro.engine.columns.ColumnBatch` structs and every operator
dispatches on its input row count (see :data:`ROW_LANE_MAX`).  Above the
threshold the *vector lane* turns per-delta interpreter work into NumPy
array ops -- mask-based mark filters, dict-of-row-ranges hash-join
probes expanded with ``np.repeat``/``np.tile``, and grouped
SUM/COUNT/AVG via stable sort + ``np.add.reduceat`` segment reduction
with retraction as signed multiplicities.  At or below it the *row lane*
runs one generated Python loop per operator, and an empty input
allocates nothing beyond the shared :meth:`ColumnBatch.empty`.

The vector lane needs NumPy and int64 bitvectors (every query id below
62); the executor works that out per plan and binds it into each
operator as ``vector``.  Where it is false every batch takes the row
lane, which touches neither.

Calibration runs these operators as every window does.  In
``stats_mode`` an operator additionally tallies, per query, the batches
that already cross its boundaries -- a source's input under its subplan
mask, a join's and an aggregate's inputs and raw output, every chain's
input and output when the node has filters (:func:`_count_bits`, from
the lists or arrays the batch holds) -- around the one lane dispatch
(:meth:`ColumnarDecorations.apply`), so the statistics describe the
code that will run.

Two invariants tie both lanes to the per-tuple reference
(:mod:`repro.physical.operators`):

* **exact WorkMeter parity** -- every charge is computed from batch
  lengths that equal the reference's list lengths, and the aggregate
  only uses segment reduction when the arithmetic is provably exact
  (ints, integral floats), falling back to the reference's sequential
  per-delta arithmetic otherwise so emission *counts* (and therefore
  output/work accounting) never diverge;
* **order preservation** -- join output order is delta-major with
  matches in state insertion order, and per-(group, query) aggregate
  update order is the original delta order (stable sorts throughout),
  because MIN/MAX rescan charges depend on it.

The row lane is bit-identical to the reference; the vector lane's
results are tolerance-equivalent (float segment sums may associate
differently only on the exact paths where it cannot matter).
``tests/test_columnar_equivalence.py``, ``tests/test_hotpath_equivalence.py``
and the ``shared-columnar`` / ``shared-columnar-rows`` /
``shared-columnar-vec`` fuzz oracles enforce both invariants.
"""

from collections import Counter

from ..engine.arrangements import PrivateSide
from ..engine.columns import ColumnBatch, concat_batches, np
from .faults import FAULTS, drop_first_retraction, drop_lost_key_matches
from .fused import (
    fused_aggregate_inputs,
    fused_aggregate_kernels,
    fused_decoration_kernel,
    fused_row_kernel,
    fused_source_kernel,
    fused_vector_helpers,
)
from .hotpath import qids_of

# Every operator dispatches on its input row count: a batch of
# ``n <= ROW_LANE_MAX`` rows takes the operator's *row lane* -- one
# generated Python loop over ``batch.rows()`` / ``sign_list()`` /
# ``bit_list()`` with every expression inlined
# (:func:`~repro.physical.fused.fused_row_kernel`), emitting a row-backed
# batch whose signs and bits stay lists -- and anything larger takes the
# fused/vectorised kernels.  Both lanes emit the same rows in the same
# order with the same WorkMeter charges, so the lane may change batch by
# batch.  The one threshold is sized end to end by
# ``benchmarks/lane_sweep.py`` (docs/PERFORMANCE.md, "Size-dispatched
# operators"), not on a micro: on clean two-column micro batches the
# vector lane wins from ~256 rows, but a TPC-H chain pays for every lane
# change at an operator boundary and a shared aggregate runs one
# sort/reduceat pass per query.  The first vector batch also loads NumPy
# (~13.5 MB).  On the 22-query plan at scales 1-4, 16384 is the smallest
# value swept that 4096 never beats; at the lazy benchmark's scale 0.5
# (whole-lineitem reads of 4500 rows) it costs ~2% of window time and
# saves a quarter of the process's peak memory.  Tests and the fuzz
# legs set it to 0 (every non-empty batch vectorised) or ``1 << 30``
# (every batch on the row lane).
ROW_LANE_MAX = 16384


def _count_bits(batch, *accs, mask=-1):
    """Stats mode: tally ``batch``'s rows per query, under ``mask``.

    Adds each query's row count to every counter dict of ``accs`` and
    returns how many rows keep a bit.  Bit patterns are counted from the
    form the batch already holds (``bit_list`` lists an array, hands a
    row-lane list through), then decoded once per distinct pattern, in
    ascending pattern order: the counters' key order, which the cost
    model's float sums follow, depends on neither lane nor batch form.
    """
    patterns = {}
    for pattern, count in Counter(batch.bit_list()).items():
        pattern &= mask
        if pattern:
            patterns[pattern] = patterns.get(pattern, 0) + count
    for pattern, count in sorted(patterns.items()):
        for qid in qids_of(pattern):
            for acc in accs:
                acc[qid] = acc.get(qid, 0) + count
    return sum(patterns.values())


# -- columnar decorations ----------------------------------------------------


class ColumnarDecorations:
    """Columnar twin of :class:`~repro.physical.operators.Decorations`.

    Charges the same amounts under the same operator names: the filter
    charge is the pre-filter batch length, the projection charge the
    post-filter length, exactly like the reference.
    """

    __slots__ = ("node", "source", "vector", "filter_name", "project_name",
                 "filter_in_per_q", "filter_out_per_q", "fused",
                 "row_kernel")

    def __init__(self, node, source=False, vector=np is not None):
        self.node = node
        #: whether a source owns this chain (its kernels mask first)
        self.source = source
        #: whether the vector lane may fire (NumPy, int64 bitvectors)
        self.vector = vector
        self.filter_name = "filter:%d" % node.uid
        self.project_name = "proj:%d" % node.uid
        # each lane's generated kernel is built the first time the lane
        # is taken: an eager plan never pays for vector kernels
        self.fused = None
        self.row_kernel = None
        self.filter_in_per_q = {}
        self.filter_out_per_q = {}

    def reset_stats(self):
        self.filter_in_per_q.clear()
        self.filter_out_per_q.clear()

    def apply(self, batch, meter, mask=None):
        """The one lane dispatch.  ``mask`` is the owning subplan's query
        mask when a source runs its whole chain here, ``None`` otherwise."""
        if not self.vector or len(batch) <= ROW_LANE_MAX:
            return self.apply_rows(batch, meter, mask)
        fused = self.fused
        if fused is None:
            # one generated kernel: filters -> projection, behind the
            # subplan mask when a source owns the chain
            if self.source:
                fused = self.fused = fused_source_kernel(self.node)
            else:
                fused = self.fused = fused_decoration_kernel(self.node)
        if mask is None:
            return fused(batch, meter)
        return fused(batch, mask, meter)

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

    def apply_rows(self, batch, meter, mask):
        """The row lane: (source mask ->) mark filters -> projection.

        One generated loop over the batch's Python rows
        (:func:`~repro.physical.fused.fused_row_kernel`).  Charges what
        the fused kernel charges, where it charges it: the filter stage
        its input length (after the source mask), the projection stage
        the survivors, both even at zero.  ``mask`` is the owning
        subplan's query mask when a source runs its whole chain here,
        ``None`` for bare decorations.
        """
        kernel = self.row_kernel
        if kernel is None:
            kernel = self.row_kernel = fused_row_kernel(
                self.node, self.source
            )
        return kernel(batch, mask, meter)


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
    net = {}
    order = []
    order_append = order.append
    for batch_rows, batch_signs, batch_bits in listed:
        for row, sign, bit in zip(batch_rows, batch_signs, batch_bits):
            key = (row, bit)
            if key in net:
                net[key] += sign
            else:
                net[key] = sign
                order_append(key)
    rows = []
    signs = []
    bits = []
    for key in order:
        count = net[key]
        if count == 0:
            continue
        if count > 0:
            sign = 1
        else:
            sign = -1
            count = -count
        row, bit = key
        if count == 1:
            rows.append(row)
            signs.append(sign)
            bits.append(bit)
        else:
            rows.extend([row] * count)
            signs.extend([sign] * count)
            bits.extend([bit] * count)
    return ColumnBatch.from_rows(rows, signs, bits, width)


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
                 consolidate_reads=False, vector=np is not None):
        self.node = node
        self.reader = reader
        self.subplan_mask = subplan_mask
        self.meter = meter
        self.name = "src:%d" % node.uid
        self.decorations = ColumnarDecorations(
            node, source=True, vector=vector
        )
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
            # the common case: the producer's segment is consumed as-is,
            # sharing its lazy column cache across every reader of the
            # buffer
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
    otherwise.  One probe per lane reads either, and both emit the
    reference's exact sequence and charge its exact work (the exactness
    contract in :mod:`repro.engine.arrangements`).

    Installs stay scalar (per-slot dict bookkeeping).  The probe of a
    batch above ``ROW_LANE_MAX`` is vectorized per distinct key and
    reassembled into the reference's exact output order -- delta-major,
    matches in state insertion order, |net| copies each via
    ``np.repeat``; smaller batches walk the table per delta and both
    sides' matches leave as one row-backed batch.
    """

    def __init__(self, node, left, right, meter, stats_mode=False,
                 vector=np is not None, arranged=(None, None)):
        self.node = node
        self.left = left
        self.right = right
        self.meter = meter
        self.vector = vector
        self.name = "join:%d" % node.uid
        left_schema = node.children[0].out_schema
        right_schema = node.children[1].out_schema
        self.left_width = len(left_schema)
        self.right_width = len(right_schema)
        self.out_width = self.left_width + self.right_width
        self._left_key_idx = tuple(
            left_schema.index_of(name) for name in node.left_keys
        )
        self._right_key_idx = tuple(
            right_schema.index_of(name) for name in node.right_keys
        )
        self.states = tuple(
            PrivateSide() if handle is None else handle for handle in arranged
        )
        self.decorations = ColumnarDecorations(node, vector=vector)
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
        n_left = len(left_batch)
        n_right = len(right_batch)
        self.meter.charge_input(self.name, n_left + n_right)
        # Four passes, in the reference's order: probe new left
        # deltas against the *old* right state, install them, probe new
        # right deltas against the *new* left state, install those.
        # Installs only touch a delta's own side, so batch-level
        # probe/install emits that per-delta order.
        outputs = []
        pending = [[], [], []]  # row-lane output rows/signs/bits, both sides
        if n_left:
            self._advance_side(left_batch, True, pending, outputs)
        if n_right:
            self._advance_side(right_batch, False, pending, outputs)
        self._flush(pending, outputs)
        out = concat_batches(outputs, self.out_width)
        if FAULTS.drop_last_key_match:
            # test-only injected bug, after every lane's probe: see
            # repro.physical.faults
            out = drop_lost_key_matches(out, self._left_key_idx[0])
        self.meter.charge_output(self.name, len(out))
        self.meter.charge_state(self.entry_count)
        if not self.stats_mode:
            return self.decorations.apply(out, self.meter)
        self.in_left += n_left
        self.in_right += n_right
        self.out_total += len(out)
        _count_bits(left_batch, self.in_left_per_q)
        _count_bits(right_batch, self.in_right_per_q)
        return self.decorations.apply_tallied(
            out, self.meter, self.out_per_q
        )[0]

    def _advance_side(self, batch, left_side, pending, outputs):
        """Probe one side's new deltas, then install them.

        The row lane lists the batch's rows, signs and bits once, for the
        probe and a private install alike.
        """
        if left_side:
            key_idx = self._left_key_idx
            own, other = self.states
        else:
            key_idx = self._right_key_idx
            other, own = self.states
        keys = self._keys(batch, key_idx)
        listed = None
        if other.entries:
            if not self.vector or len(keys) <= ROW_LANE_MAX:
                listed = batch.rows(), batch.sign_list(), batch.bit_list()
                self._probe_scalar(listed, keys, other.table, left_side,
                                   pending)
            else:
                self._flush(pending, outputs)  # keep left-before-right order
                self._probe(batch, keys, key_idx, other.table, left_side,
                            outputs)
        own.install(batch, keys, listed)

    def _flush(self, pending, outputs):
        """Turn the row lane's pending output into one row-backed batch
        (the joined columns materialize only if a consumer reads them)."""
        rows, signs, bits = pending
        if rows:
            outputs.append(
                ColumnBatch.from_rows(rows, signs, bits, self.out_width)
            )
            pending[:] = [], [], []

    @staticmethod
    def _keys(batch, key_idx):
        """Python-typed join keys per row (hash-compatible across sides)."""
        if len(key_idx) == 1:
            return batch.column_values(key_idx[0])
        key_cols = [batch.column_values(i) for i in key_idx]
        return list(zip(*key_cols))

    def _probe(self, batch, keys, key_idx, table, left_side, outputs):
        """The vectorised probe of a side's table (large batches).

        Each distinct key's slots are gathered once, in insertion order,
        into per-call arrays, so the arange/repeat expansion below yields
        delta-major output with per-delta matches in insertion order --
        exactly the reference's emission order, with no sort.
        """
        table_get = table.get
        slots = []  # the matched slots, key by key
        nets = []
        key_column = None
        if len(key_idx) == 1:
            candidate = batch.column(key_idx[0])
            if candidate.dtype != object:
                key_column = candidate
        if key_column is not None:
            # single non-object key: resolve each *distinct* key once
            # (the multiplicity-bag regime repeats keys heavily);
            # ``inverse`` scatters the per-distinct spans back to delta
            # order
            uniq, inverse = np.unique(key_column, return_inverse=True)
            n_uniq = len(uniq)
            u_starts = np.zeros(n_uniq, dtype=np.int64)
            u_lens = np.zeros(n_uniq, dtype=np.int64)
            for j, key in enumerate(uniq.tolist()):
                per_key = table_get(key)
                if per_key:
                    u_starts[j] = len(slots)
                    u_lens[j] = len(per_key)
                    slots.extend(per_key)
                    nets.extend(per_key.values())
            if not slots:
                return
            starts_arr = u_starts[inverse]
            counts = u_lens[inverse]
        else:
            cache = {}
            cache_get = cache.get
            starts = []
            lens = []
            for key in keys:
                entry = cache_get(key)
                if entry is None:
                    per_key = table_get(key)
                    if not per_key:
                        entry = (0, 0)
                    else:
                        entry = (len(slots), len(per_key))
                        slots.extend(per_key)
                        nets.extend(per_key.values())
                    cache[key] = entry
                starts.append(entry[0])
                lens.append(entry[1])
            if not slots:
                return
            starts_arr = np.asarray(starts, dtype=np.int64)
            counts = np.asarray(lens, dtype=np.int64)
        slot_rows, slot_bits = zip(*slots)
        slot_bits = np.array(slot_bits, dtype=np.int64)
        nets = np.array(nets, dtype=np.int64)
        total = int(counts.sum())
        delta_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        within = np.arange(total, dtype=np.int64) - offsets
        slot_idx = np.repeat(starts_arr, counts) + within
        bits_out = batch.bits[delta_idx] & slot_bits[slot_idx]
        valid = bits_out != 0
        if not valid.all():
            delta_idx = delta_idx[valid]
            slot_idx = slot_idx[valid]
            bits_out = bits_out[valid]
        if not len(bits_out):
            return
        net = nets[slot_idx]
        signs_out = np.where(
            net > 0, batch.signs[delta_idx], -batch.signs[delta_idx]
        )
        reps = np.abs(net)
        if not (reps == 1).all():
            delta_idx = np.repeat(delta_idx, reps)
            slot_idx = np.repeat(slot_idx, reps)
            bits_out = np.repeat(bits_out, reps)
            signs_out = np.repeat(signs_out, reps)
        # emit an index view instead of gathering every column: the
        # matched rows are a per-call snapshot, and only the columns a
        # downstream consumer actually reads materialize
        own = (batch, None, delta_idx)
        matched = ColumnBatch.from_rows(
            slot_rows, nets, slot_bits,
            self.right_width if left_side else self.left_width,
        )
        other = (matched, None, slot_idx)
        parts = (own, other) if left_side else (other, own)
        outputs.append(ColumnBatch.from_gather(
            parts, signs_out, bits_out, self.out_width,
        ))

    @staticmethod
    def _probe_scalar(listed, keys, table, left_side, pending):
        """Per-delta probe of a side's table (the row lane).

        Emits exactly the vectorized path's sequence: delta-major, per
        delta the matches in insertion order, ``|net|`` copies each,
        zero-bit pairs dropped.
        """
        table_get = table.get
        rows, signs, bits_list = listed
        out_rows, out_signs, out_bits = pending
        rows_append = out_rows.append
        signs_append = out_signs.append
        bits_append = out_bits.append
        for key, row, sign, dbits in zip(keys, rows, signs, bits_list):
            matches = table_get(key)
            if not matches:
                continue
            for (other, sbits), entry_net in matches.items():
                joined_bits = dbits & sbits
                if not joined_bits:
                    continue
                joined = row + other if left_side else other + row
                if entry_net == 1:
                    rows_append(joined)
                    signs_append(sign)
                    bits_append(joined_bits)
                    continue
                if entry_net > 0:
                    out_sign, reps = sign, entry_net
                else:
                    out_sign, reps = -sign, -entry_net
                out_rows.extend([joined] * reps)
                out_signs.extend([out_sign] * reps)
                out_bits.extend([joined_bits] * reps)


# -- aggregate ---------------------------------------------------------------


#: reduceat is used only when segment sums are provably exact: integral
#: values bounded so every partial sum stays under 2**53 regardless of
#: association order (values <= 2**31, at most 2**20 of them per batch)
_EXACT_VALUE_BOUND = float(1 << 31)
_EXACT_COUNT_BOUND = 1 << 20


def _reduceat_exact(arr):
    dtype = arr.dtype
    if dtype == np.int64 or dtype == np.bool_:
        return True
    if dtype != np.float64:
        return False
    if arr.size == 0:
        return True
    if arr.size > _EXACT_COUNT_BOUND:
        return False
    peak = np.abs(arr).max()
    if not peak <= _EXACT_VALUE_BOUND:  # NaN/inf fail this comparison
        return False
    return bool((arr == np.floor(arr)).all())


class ColumnarAggregateExec:
    """The production shared group-by aggregate: bit for bit the emitted
    sequences, float arithmetic, WorkMeter charges and ``state_count`` of
    the reference :class:`~repro.physical.operators.AggregateExec`.

    State is one *group record* per live group (layout and generated
    code: :mod:`repro.physical.fused`), written by both lanes -- the
    generated per-delta loop and, above ``ROW_LANE_MAX``, a vectorized
    absorb -- and read by one generated per-group emission.  SUM/AVG may
    ``np.add.reduceat`` only while every value absorbed, by either lane,
    has been exact-summable (the ``_exact_ok`` ledger: ints / bounded
    integral floats); from the first that is not, every batch takes the
    loop, whose sequential arithmetic is the reference's.
    """

    def __init__(self, node, child, subplan_mask, meter, stats_mode=False,
                 vector=np is not None):
        self.node = node
        self.child = child
        self.subplan_mask = subplan_mask
        self.meter = meter
        self.name = "agg:%d" % node.uid
        self.specs = node.aggs
        self.decorations = ColumnarDecorations(node, vector=vector)
        self.stats_mode = stats_mode
        self.vector = vector
        schema = node.children[0].out_schema
        self._group_indexes = [schema.index_of(g) for g in node.group_by]
        # the queries this operator keeps state for: its subplan's, or
        # the node's when a caller passes the all-ones mask
        self._qids = qids_of(
            subplan_mask if subplan_mask >= 0 else node.query_mask)
        self._kernels = fused_aggregate_kernels(node, self._qids)
        self._empty = ColumnBatch.empty(len(node.group_by) + len(node.aggs))
        self._clear()
        self.in_total = self.out_total = 0
        self.in_per_q = {}

    def _clear(self):
        self._groups = {}  # group key -> record
        self._touched = []  # records absorbed into since the last emission
        self.state_count = 0
        self._exact_ok = [True] * len(self.specs)

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
            # test-only injected bug, ahead of the lane dispatch: see
            # repro.physical.faults
            batch = drop_first_retraction(batch)
        n = len(batch)
        self.meter.charge_input(self.name, n)
        if self.stats_mode:
            self.in_total += n
            _count_bits(batch, self.in_per_q)
        if n and not (
            self.vector and n > ROW_LANE_MAX and self._absorb_columns(batch)
        ):
            self.state_count = self._kernels.absorb(
                batch.rows(), batch.sign_list(), batch.bit_list(),
                self._groups, self._touched, self.meter, self.name,
                self.state_count, self._exact_ok,
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

    def _absorb_columns(self, batch):
        """The vector lane.  ``False``, with nothing absorbed, when a
        SUM/AVG input is not exact-summable, in this batch or an earlier
        one: the batch then takes the row lane."""
        exact_ok = self._exact_ok
        if False in exact_ok:
            return False
        masked = batch.bits & self.subplan_mask
        keep = masked != 0
        if not keep.all():
            # rows no query wants only "touch" their group in the
            # reference: state carried across emissions re-emits nothing
            indices = np.flatnonzero(keep)
            batch = batch.take(indices)
            masked = masked[indices]
        n = len(batch)
        if n == 0:
            return True
        inputs = fused_aggregate_inputs(self.node)(batch, n)
        funcs = [spec.func for spec in self.specs]
        for si, arr in enumerate(inputs):
            if funcs[si] in ("sum", "avg") and not _reduceat_exact(arr):
                exact_ok[si] = False
                return False

        codes, keys = self._group_codes(batch, n)
        slot_of = self._kernels.slot_of
        offsets = self._kernels.offsets
        helpers = fused_vector_helpers(self.node, self._qids)
        records = [
            helpers.touch(self._groups, self._touched, key) for key in keys
        ]
        state_count = self.state_count
        # one stable sort by group: every query's rows are then runs of
        # its groups, each in original delta order
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        masked = masked[order]
        signs = batch.signs[order]
        inputs = [arr[order] for arr in inputs]
        for qid in qids_of(int(np.bitwise_or.reduce(masked))):
            slot = slot_of[qid]
            take = np.flatnonzero((masked & (1 << qid)) != 0)
            own_codes = codes[take]
            starts = np.concatenate((
                np.zeros(1, dtype=np.int64),
                np.flatnonzero(own_codes[1:] != own_codes[:-1]) + 1,
            ))
            own_signs = signs[take]
            contribs = np.add.reduceat(own_signs, starts).tolist()
            spec_data = []
            for func, arr in zip(funcs, inputs):
                values = arr[take]
                if func in ("sum", "avg"):
                    if values.dtype == np.bool_:
                        values = values.astype(np.int64)
                    values = np.add.reduceat(values * own_signs, starts)
                spec_data.append(None if func == "count" else values.tolist())
            bounds = starts.tolist() + [len(take)]
            sign_list = own_signs.tolist()
            for s, code in enumerate(own_codes[starts].tolist()):
                st = records[code][slot]
                if st is None:
                    st = records[code][slot] = helpers.new_state()
                    state_count += 1
                st[0] += contribs[s]  # and with them COUNT
                for func, at, data in zip(funcs, offsets, spec_data):
                    if func == "sum":
                        st[at] += data[s]
                    elif func == "avg":
                        helpers.avg_step(st, at, data[s], st[0])
                    elif func != "count":
                        # MIN/MAX: sequential in original delta order so
                        # rescan charges match the reference exactly
                        update = st[at].update
                        for j in range(bounds[s], bounds[s + 1]):
                            update(data[j], sign_list[j], self.meter,
                                   self.name)
        self.state_count = state_count
        return True

    def _group_codes(self, batch, n):
        """(codes array, distinct group keys as the groups dict keys them)
        with first-seen stability."""
        indexes = self._group_indexes
        if not indexes:
            return np.zeros(n, dtype=np.int64), [()]
        if len(indexes) == 1:
            column = batch.column(indexes[0])
            if column.dtype != object:
                uniques, inverse = np.unique(column, return_inverse=True)
                return inverse.astype(np.int64, copy=False), uniques.tolist()
            values = column.tolist()
        else:
            values = list(zip(*(batch.column_values(i) for i in indexes)))
        # first-seen codes: ``dict.fromkeys`` keeps each distinct key's
        # first occurrence in order, and the per-row code lookup runs in
        # C, not as one Python call per row
        keys = list(dict.fromkeys(values))
        code_of = {key: code for code, key in enumerate(keys)}
        codes = np.fromiter(map(code_of.__getitem__, values), np.int64, n)
        return codes, keys
