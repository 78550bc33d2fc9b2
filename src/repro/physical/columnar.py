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

from ..engine.columns import (
    ColumnBatch,
    column_array,
    concat_batches,
    np,
)
from .faults import FAULTS, drop_first_retraction, drop_lost_key_matches
from .fused import (
    fused_aggregate_inputs,
    fused_aggregate_kernels,
    fused_decoration_kernel,
    fused_row_kernel,
    fused_source_kernel,
)
from .hotpath import cached_artifacts, qids_of

# Every operator dispatches on its input row count: a batch of
# ``n <= ROW_LANE_MAX`` rows takes the operator's *row lane* -- one
# generated Python loop over ``batch.rows()`` / ``sign_list()`` /
# ``bit_list()`` with every expression inlined
# (:func:`~repro.physical.fused.fused_row_kernel`), emitting a row-backed
# batch whose signs and bits stay lists -- and anything larger takes the
# fused/vectorised kernels.  Both lanes emit the same rows in the same
# order with the same WorkMeter charges, so the lane may change batch by
# batch.  The one threshold is sized on the pipeline workloads, not on a
# micro (docs/PERFORMANCE.md, "Size-dispatched operators"): on clean
# two-column micro batches the vector lane wins from ~256 rows, but a
# TPC-H chain pays for every lane change at an operator boundary (rows
# to arrays and back, per column read) and a shared aggregate runs one
# sort/reduceat pass per query, so with the row lane compiled the
# pipeline keeps improving up to 4096 (``exec_lazy_22q`` -12% against
# 256, ``plan_22q`` -5%), is flat to 8192 and loses 6% with no vector
# lane at all; ``exec_eager_22q``'s largest input is 316 rows.  Tests
# and the fuzz legs set it to 0 (every non-empty batch vectorised) or
# ``1 << 30`` (every batch on the row lane).
ROW_LANE_MAX = 4096


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
    """
    net = {}
    order = []
    order_append = order.append
    for batch in batches:
        for row, sign, bit in zip(
            batch.rows(), batch.sign_list(), batch.bit_list()
        ):
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


def _listed(batch):
    """A batch as parallel Python lists: ``(rows, signs, bits)``."""
    return batch.rows(), batch.sign_list(), batch.bit_list()


class _ColumnarJoinSide:
    """One side's hash state: append-only column chunks plus live indices.

    Slot bookkeeping mirrors the reference's ``key -> {(row, bits): net}``
    tables exactly -- per-key slot lists keep insertion order (matching
    dict insertion order in the reference, including remove-then-
    reinsert moving a slot to the tail), and materialized arrays are
    maintained incrementally so each advance pays O(batch), not O(state).
    """

    __slots__ = ("width", "rows_raw", "bits_raw", "net", "slots",
                 "arrays", "net_array", "materialized", "net_dirty",
                 "entries", "dead")

    def __init__(self, width):
        self.width = width
        self.reset()

    def reset(self):
        self.rows_raw = []  # one tuple per slot; columnized lazily
        self.bits_raw = []
        self.net = []
        # key -> {(row, bits): slot index}; dict order IS the probe
        # order (insertion order, removals free their position, a
        # reinsertion lands at the tail -- exactly the reference tables)
        self.slots = {}
        self.arrays = None
        self.net_array = None
        self.materialized = 0
        self.net_dirty = []
        self.entries = 0  # live slots (named as ArrangementHandle.entries is)
        self.dead = 0

    def _columnize(self, rows):
        if self.width:
            return tuple(column_array(col) for col in zip(*rows))
        return ()

    def materialize(self):
        """Current (columns, bits, net) arrays, extended incrementally."""
        total = len(self.net)
        if self.arrays is None:
            columns = self._columnize(self.rows_raw)
            bits = np.fromiter(self.bits_raw, np.int64, total)
            self.net_array = np.fromiter(self.net, np.int64, total)
            self.arrays = (columns, bits)
            self.materialized = total
            self.net_dirty = []
            return self.arrays[0], self.arrays[1], self.net_array
        start = self.materialized
        if total > start:
            old_columns, old_bits = self.arrays
            tails = self._columnize(self.rows_raw[start:])
            new_columns = []
            for position, (old, tail) in enumerate(zip(old_columns, tails)):
                if tail.dtype == old.dtype:
                    new_columns.append(np.concatenate([old, tail]))
                else:
                    # a column changed type across batches: rebuild with
                    # the strict detector so ints stay ints
                    new_columns.append(
                        column_array([row[position] for row in self.rows_raw])
                    )
            bits_tail = np.fromiter(self.bits_raw[start:], np.int64,
                                    total - start)
            new_bits = np.concatenate([old_bits, bits_tail])
            net_tail = np.fromiter(self.net[start:], np.int64, total - start)
            self.net_array = np.concatenate([self.net_array, net_tail])
            self.arrays = (tuple(new_columns), new_bits)
            self.materialized = total
        if self.net_dirty:
            net_array = self.net_array
            net = self.net
            for idx in self.net_dirty:
                net_array[idx] = net[idx]
            self.net_dirty = []
        return self.arrays[0], self.arrays[1], self.net_array

    def compact(self):
        """Rebuild the raw chunks from live slots only.

        Installs free a slot's index when its net retracts to zero, but
        the append-only ``rows_raw``/``bits_raw``/``net`` chunks (and
        their materialized arrays) kept the dead positions forever, so
        delete-heavy churn leaked memory proportional to total churn
        instead of live state.  Reindexing walks the slot dicts in their
        existing order, so per-key probe order — the only order probes
        observe — is untouched.
        """
        rows_raw = []
        bits_raw = []
        net = []
        old_net = self.net
        for per_key in self.slots.values():
            for slot in per_key:
                idx = per_key[slot]
                per_key[slot] = len(net)
                rows_raw.append(slot[0])
                bits_raw.append(slot[1])
                net.append(old_net[idx])
        self.rows_raw = rows_raw
        self.bits_raw = bits_raw
        self.net = net
        self.arrays = None
        self.net_array = None
        self.materialized = 0
        self.net_dirty = []
        self.dead = 0


class ColumnarJoinExec:
    """Columnar twin of :class:`~repro.physical.operators.JoinExec`.

    Each side's state is one of two things, fixed at construction: an
    :class:`~repro.engine.arrangements.ArrangementHandle` when the
    executor passes one (``arranged``, a bare base-table scan sharing
    the index of its ``(table, key columns)``), a private
    :class:`_ColumnarJoinSide` otherwise.  Both emit the reference's
    exact sequence and charge its exact work (the exactness contract in
    :mod:`repro.engine.arrangements`).

    Installs stay scalar (they are per-slot dict bookkeeping either
    way).  The probe of a batch above ``ROW_LANE_MAX`` is vectorized per
    distinct key and reassembled into the reference's exact output
    order -- delta-major, matches in state insertion order, |net| copies
    each via ``np.repeat``; smaller batches walk the state per delta and
    both sides' matches leave as one row-backed batch.
    """

    def __init__(self, node, left, right, meter, stats_mode=False,
                 state_factor=0.0, vector=np is not None,
                 arranged=(None, None)):
        self.node = node
        self.left = left
        self.right = right
        self.meter = meter
        self.state_factor = state_factor
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
        self._left_arranged, self._right_arranged = arranged
        self._left_state = (
            _ColumnarJoinSide(self.left_width)
            if self._left_arranged is None else None
        )
        self._right_state = (
            _ColumnarJoinSide(self.right_width)
            if self._right_arranged is None else None
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
        """Net stored entries this join is charged for, both sides.

        An arranged side counts its handle's version entries -- exactly
        what a private table holds at the same offset.
        """
        left = self._left_state or self._left_arranged
        right = self._right_state or self._right_arranged
        return left.entries + right.entries

    def release(self):
        """Drop both private sides, down the tree; an arranged side's
        version (the arrangement's to free), readers and counters stay."""
        self.left.release()
        self.right.release()
        for state in (self._left_state, self._right_state):
            if state is not None:
                state.reset()

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
        # probe/install emits that per-delta order.  An arranged
        # side's install is ``advance_to`` on the shared index.
        outputs = []
        pending = [[], [], []]  # row-lane output rows/signs/bits, both sides
        if n_left:
            self._advance_side(left_batch, True, pending, outputs)
        if self._left_arranged is not None:
            self._left_arranged.advance_to(self.left.reader.offset)
        if n_right:
            self._advance_side(right_batch, False, pending, outputs)
        if self._right_arranged is not None:
            self._right_arranged.advance_to(self.right.reader.offset)
        self._flush(pending, outputs)
        out = concat_batches(outputs, self.out_width)
        if FAULTS.drop_last_key_match:
            # test-only injected bug, after every lane's probe: see
            # repro.physical.faults
            out = drop_lost_key_matches(out, self._left_key_idx[0])
        self.meter.charge_output(self.name, len(out))
        if self.state_factor:
            self.meter.charge_state(
                self.name, self.state_factor * self.entry_count
            )
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

        The batch's rows, signs and bits are listed once and shared by
        the scalar probes and the install.  Only a batch above
        ``ROW_LANE_MAX`` probing a private state takes the vectorised
        probe; an arranged side's ``key -> {row: net}`` dicts are shared
        with readers at other offsets, so there is no per-reader array
        form to vectorise over.
        """
        if left_side:
            key_idx = self._left_key_idx
            probe_state, probe_handle = self._right_state, self._right_arranged
            own_state = self._left_state
        else:
            key_idx = self._right_key_idx
            probe_state, probe_handle = self._left_state, self._left_arranged
            own_state = self._right_state
        keys = self._keys(batch, key_idx)
        listed = None
        if probe_handle is not None:
            table = probe_handle.version.table
            if table:
                listed = _listed(batch)
                self._probe_arranged(listed, keys, table, left_side, pending)
        elif probe_state.entries:
            if not self.vector or len(keys) <= ROW_LANE_MAX:
                listed = _listed(batch)
                self._probe_scalar(listed, keys, probe_state, left_side,
                                   pending)
            else:
                self._flush(pending, outputs)  # keep left-before-right order
                self._probe(batch, keys, probe_state, left_side, outputs)
        if own_state is not None:
            self._install(own_state, listed or _listed(batch), keys)

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
    def _probe_arranged(listed, keys, table, left_side, pending):
        """Per-delta probe against an arranged side's current version.

        Emits exactly :meth:`_probe_scalar`'s sequence — delta-major,
        matches in insertion order, ``|net|`` copies, output bits the
        probing delta's bits (see the exactness contract in
        :mod:`repro.engine.arrangements`).
        """
        table_get = table.get
        rows, signs, bits_list = listed
        out_rows, out_signs, out_bits = pending
        rows_append = out_rows.append
        signs_append = out_signs.append
        bits_append = out_bits.append
        for position, key in enumerate(keys):
            matches = table_get(key)
            if not matches:
                continue
            dbits = bits_list[position]
            if dbits == 0:
                continue
            row = rows[position]
            sign = signs[position]
            for other, entry_net in matches.items():
                if entry_net > 0:
                    out_sign, reps = sign, entry_net
                else:
                    out_sign, reps = -sign, -entry_net
                joined = row + other if left_side else other + row
                if reps == 1:
                    rows_append(joined)
                    signs_append(out_sign)
                    bits_append(dbits)
                else:
                    out_rows.extend([joined] * reps)
                    out_signs.extend([out_sign] * reps)
                    out_bits.extend([dbits] * reps)

    @staticmethod
    def _keys(batch, key_idx):
        """Python-typed join keys per row (hash-compatible across sides)."""
        if len(key_idx) == 1:
            return batch.column_values(key_idx[0])
        key_cols = [batch.column_values(i) for i in key_idx]
        return list(zip(*key_cols))

    def _probe(self, batch, keys, state, left_side, outputs):
        """The vectorised probe of a private state (large batches)."""
        index = state.slots
        # resolve each distinct key's match list once; ``flat`` holds the
        # concatenated per-key state indices in insertion order, so the
        # arange/repeat expansion below yields delta-major output with
        # per-delta matches in state insertion order -- exactly the
        # reference's emission order, with no sort
        slots_get = index.get
        flat = []
        key_column = None
        if len(self._left_key_idx if left_side else self._right_key_idx) == 1:
            idx = (self._left_key_idx if left_side
                   else self._right_key_idx)[0]
            candidate = batch.column(idx)
            if candidate.dtype != object:
                key_column = candidate
        if key_column is not None:
            # single non-object key: resolve each *distinct* key once
            # (the multiplicity-bag regime repeats keys heavily, so the
            # per-delta python resolution loop was the dominant cost);
            # ``inverse`` scatters the per-distinct spans back to
            # delta order, preserving the emission order exactly
            uniq, inverse = np.unique(key_column, return_inverse=True)
            n_uniq = len(uniq)
            u_starts = np.zeros(n_uniq, dtype=np.int64)
            u_lens = np.zeros(n_uniq, dtype=np.int64)
            for j, key in enumerate(uniq.tolist()):
                per_key = slots_get(key)
                if per_key is not None:
                    u_starts[j] = len(flat)
                    u_lens[j] = len(per_key)
                    flat.extend(per_key.values())
            if not flat:
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
                    per_key = slots_get(key)
                    if per_key is None:
                        entry = (0, 0)
                    else:
                        entry = (len(flat), len(per_key))
                        flat.extend(per_key.values())
                    cache[key] = entry
                starts.append(entry[0])
                lens.append(entry[1])
            if not flat:
                return
            starts_arr = np.asarray(starts, dtype=np.int64)
            counts = np.asarray(lens, dtype=np.int64)
        state_columns, state_bits, state_net = state.materialize()
        total = int(counts.sum())
        delta_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        within = np.arange(total, dtype=np.int64) - offsets
        state_idx = np.asarray(flat, dtype=np.int64)[
            np.repeat(starts_arr, counts) + within
        ]
        bits_out = batch.bits[delta_idx] & state_bits[state_idx]
        valid = bits_out != 0
        if not valid.all():
            delta_idx = delta_idx[valid]
            state_idx = state_idx[valid]
            bits_out = bits_out[valid]
        if not len(bits_out):
            return
        net = state_net[state_idx]
        signs_out = np.where(
            net > 0, batch.signs[delta_idx], -batch.signs[delta_idx]
        )
        reps = np.abs(net)
        if not (reps == 1).all():
            delta_idx = np.repeat(delta_idx, reps)
            state_idx = np.repeat(state_idx, reps)
            bits_out = np.repeat(bits_out, reps)
            signs_out = np.repeat(signs_out, reps)
        # emit an index view instead of gathering every column: the
        # state arrays and ``rows_raw`` are append-only snapshots
        # (growth concatenates into fresh arrays, compaction reassigns),
        # so the view stays valid after this advance, and only the
        # columns a downstream consumer actually reads materialize
        own = (batch, None, delta_idx)
        other = (state_columns, state.rows_raw, state_idx)
        parts = (own, other) if left_side else (other, own)
        outputs.append(ColumnBatch.from_gather(
            parts, signs_out, bits_out, self.out_width,
        ))

    @staticmethod
    def _probe_scalar(listed, keys, state, left_side, pending):
        """Per-delta probe of a private state (the row lane).

        Emits exactly the vectorized path's sequence: delta-major, per
        delta the matches in state insertion order, ``|net|`` copies
        each, zero-bit pairs dropped.
        """
        slots_get = state.slots.get
        net = state.net
        rows, signs, bits_list = listed
        out_rows, out_signs, out_bits = pending
        rows_append = out_rows.append
        signs_append = out_signs.append
        bits_append = out_bits.append
        for position, key in enumerate(keys):
            per_key = slots_get(key)
            if per_key is None:
                continue
            row = rows[position]
            sign = signs[position]
            dbits = bits_list[position]
            # the slot key carries (row, bits) directly; only the net
            # lives behind the index, so hits cost one list lookup each
            for (other, sbits), idx in per_key.items():
                joined_bits = dbits & sbits
                if joined_bits == 0:
                    continue
                entry_net = net[idx]
                if entry_net > 0:
                    out_sign, reps = sign, entry_net
                else:
                    out_sign, reps = -sign, -entry_net
                joined = row + other if left_side else other + row
                if reps == 1:
                    rows_append(joined)
                    signs_append(out_sign)
                    bits_append(joined_bits)
                else:
                    out_rows.extend([joined] * reps)
                    out_signs.extend([out_sign] * reps)
                    out_bits.extend([joined_bits] * reps)

    @staticmethod
    def _install(state, listed, keys):
        rows, signs, bits_list = listed
        slots = state.slots
        net = state.net
        materialized = state.materialized
        net_dirty = state.net_dirty
        fresh = len(net)  # the index the next new slot takes
        before = fresh
        retracted = 0
        slots_get = slots.get
        net_append = net.append
        rows_append = state.rows_raw.append
        bits_append = state.bits_raw.append
        for key, row, sign, bit in zip(keys, rows, signs, bits_list):
            per_key = slots_get(key)
            if per_key is None:
                per_key = slots[key] = {}
            slot = (row, bit)
            # one hash of the (wide) row per delta: ``setdefault`` both
            # looks the slot up and claims the fresh index for it
            idx = per_key.setdefault(slot, fresh)
            if idx == fresh:
                fresh += 1
                net_append(sign)
                rows_append(row)
                bits_append(bit)
            else:
                # stored nets are never 0 (empty slots are removed), so
                # a +-1 step either moves the net or empties the slot;
                # reinsertion later lands at the key's tail like dict
                # insertion order in the reference tables
                updated = net[idx] + sign
                net[idx] = updated
                if idx < materialized:
                    net_dirty.append(idx)
                if updated == 0:
                    del per_key[slot]
                    if not per_key:
                        del slots[key]
                    retracted += 1
        state.entries += fresh - before - retracted
        state.dead += retracted
        # bound dead-slot waste: once retracted slots outnumber live
        # ones (with a floor so tiny states never thrash), rebuild
        if state.dead > 32 and state.dead >= state.entries:
            state.compact()


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


def _value_exact(value):
    """:func:`_reduceat_exact` for one Python scalar (the row lane's
    absorb kernel applies it to every SUM/AVG input some query wants)."""
    kind = type(value)
    if kind is float:
        return value.is_integer() and abs(value) <= _EXACT_VALUE_BOUND
    return kind is int or kind is bool


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
                 state_factor=0.0, vector=np is not None):
        self.node = node
        self.child = child
        self.subplan_mask = subplan_mask
        self.meter = meter
        self.state_factor = state_factor
        self.name = "agg:%d" % node.uid
        self.specs = node.aggs
        self.decorations = ColumnarDecorations(node, vector=vector)
        self.stats_mode = stats_mode
        self.vector = vector
        schema = node.children[0].out_schema
        self._group_indexes = [schema.index_of(g) for g in node.group_by]
        # the queries this operator keeps state for: its subplan's, or
        # the node's when a caller passes the all-ones mask
        qids = qids_of(subplan_mask if subplan_mask >= 0 else node.query_mask)
        self._kernels = fused_aggregate_kernels(node, qids)
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
        if self.state_factor:
            self.meter.charge_state(
                self.name, self.state_factor * self.state_count
            )
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
        kernels = self._kernels
        records = [
            kernels.touch(self._groups, self._touched, key) for key in keys
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
            slot = kernels.slot_of[qid]
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
                    st = records[code][slot] = kernels.new_state()
                    state_count += 1
                st[0] += contribs[s]  # and with them COUNT
                for func, at, data in zip(funcs, kernels.offsets, spec_data):
                    if func == "sum":
                        st[at] += data[s]
                    elif func == "avg":
                        kernels.avg_step(st, at, data[s], st[0])
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
