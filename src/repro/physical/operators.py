"""Incremental physical operators with SharedDB bitvector semantics.

Each physical operator is *stateful across incremental executions*: a call
to :meth:`advance` processes exactly the new deltas visible since the
previous call (one incremental execution of the owning subplan) and
returns the output deltas.  Every tuple carries a query bitvector; shared
select operators *mark* bits instead of dropping tuples (dropping only
when no query wants the tuple), joins AND the bitvectors of matching
tuples, and shared aggregates keep per-query state so queries whose
upstream marks differ still see correct aggregates.

Deletions follow classic IVM: an aggregate whose group value changed
retracts the previously emitted row (sign -1) and emits the new one
(sign +1).  MIN/MAX aggregates rescan their stored value multiset when a
deletion removes the current extremum -- the exact behaviour that makes
TPC-H Q15 non-incrementable in the paper's section 5.3.

These classes are the per-tuple *reference*: the work oracle, which only
:class:`repro.fuzz.reference.ReferenceExecutor` compiles (tests, the
fuzzer, the micro benchmark); no production module imports this one.
Production runs compile the operators of :mod:`repro.physical.columnar`,
which are bit-identical to these; dedicated tests enforce it
(docs/PERFORMANCE.md).
"""

from ..errors import ExecutionError
from ..relational import bitvec
from ..relational.tuples import Delta, DELETE, INSERT, consolidate
from .faults import FAULTS, lost_key
from .hotpath import _MinMaxState, _sort_key, cached_artifacts, qids_of


class _DecorationArtifacts:
    """Compiled mark-filter and union projection of one node (shareable)."""

    __slots__ = ("compiled_filters", "filter_mask", "projection")

    def __init__(self, node):
        core_schema = node.core_schema
        self.compiled_filters = {
            qid: predicate.compile(core_schema)
            for qid, predicate in node.filters.items()
        }
        self.filter_mask = bitvec.mask_of(self.compiled_filters)
        union = node.union_projection()
        if union is None:
            self.projection = None
        else:
            self.projection = tuple(
                (alias, expr.compile(core_schema)) for alias, expr in union
            )


class Decorations:
    """Compiled per-node mark-filter and union projection."""

    __slots__ = (
        "filter_name",
        "project_name",
        "compiled_filters",
        "filter_mask",
        "projection",
        "stats_mode",
        "filter_in_per_q",
        "filter_out_per_q",
    )

    def __init__(self, node, stats_mode=False):
        artifacts = cached_artifacts(
            node, "deco", lambda: _DecorationArtifacts(node)
        )
        self.filter_name = "filter:%d" % node.uid
        self.project_name = "proj:%d" % node.uid
        self.compiled_filters = artifacts.compiled_filters
        self.filter_mask = artifacts.filter_mask
        self.projection = artifacts.projection
        self.stats_mode = stats_mode
        self.filter_in_per_q = {}
        self.filter_out_per_q = {}

    def reset_stats(self):
        self.filter_in_per_q.clear()
        self.filter_out_per_q.clear()

    def _apply_reference(self, deltas, meter):
        """Mark-filter then project ``deltas``; returns the surviving list."""
        out = deltas
        if self.compiled_filters:
            filtered = []
            meter.charge_input(self.filter_name, len(out))
            for delta in out:
                bits = delta.bits
                if self.stats_mode:
                    for qid in bitvec.iter_bits(bits):
                        self.filter_in_per_q[qid] = self.filter_in_per_q.get(qid, 0) + 1
                relevant = bits & self.filter_mask
                for qid in bitvec.iter_bits(relevant):
                    if not self.compiled_filters[qid](delta.row):
                        bits &= ~(1 << qid)
                if bits == 0:
                    continue
                if self.stats_mode:
                    for qid in bitvec.iter_bits(bits):
                        self.filter_out_per_q[qid] = self.filter_out_per_q.get(qid, 0) + 1
                filtered.append(delta if bits == delta.bits else delta.with_bits(bits))
            out = filtered
        if self.projection is not None:
            meter.charge_input(self.project_name, len(out))
            out = [
                Delta(
                    tuple(fn(delta.row) for _, fn in self.projection),
                    delta.sign,
                    delta.bits,
                )
                for delta in out
            ]
        return out

    apply = _apply_reference


class SourceExec:
    """Reads new deltas from a buffer (base table log or child subplan).

    Applies the implicit bits filter against the owning subplan's query
    mask (the paper's sigma-filter when pulling from a shared buffer) and
    then the node's decorations.
    """

    def __init__(self, node, reader, subplan_mask, meter, stats_mode=False,
                 consolidate_reads=False):
        self.node = node
        self.reader = reader
        self.subplan_mask = subplan_mask
        self.meter = meter
        self.name = "src:%d" % node.uid
        self.decorations = Decorations(node, stats_mode)
        self.stats_mode = stats_mode
        self.consolidate_reads = consolidate_reads
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

    def _advance_reference(self):
        # the reference tree's buffer segments are Delta lists
        new_deltas = [
            delta for segment in self.reader.read_new() for delta in segment
        ]
        if self.consolidate_reads and new_deltas:
            # Reading from a child subplan's buffer: retract/insert churn
            # that cancelled within the unread window is compacted away
            # (the buffer behaves like a compacted Kafka topic / state
            # store), so a lazy consumer only processes net changes --
            # this is what makes delaying a parent subplan save work
            # (paper Figure 3c).
            new_deltas = consolidate(new_deltas)
        self.meter.charge_input(self.name, len(new_deltas))
        self.scanned_total += len(new_deltas)
        kept = []
        for delta in new_deltas:
            bits = delta.bits & self.subplan_mask
            if bits == 0:
                continue
            kept.append(delta if bits == delta.bits else delta.with_bits(bits))
        if self.stats_mode:
            self.kept_total += len(kept)
            for delta in kept:
                for qid in bitvec.iter_bits(delta.bits):
                    self.kept_per_q[qid] = self.kept_per_q.get(qid, 0) + 1
        return self.decorations.apply(kept, self.meter)

    advance = _advance_reference


class _JoinArtifacts:
    """Compiled key getters of one join node (shareable)."""

    __slots__ = ("left_key", "right_key")

    def __init__(self, node):
        self.left_key = _key_getter(node.children[0].out_schema, node.left_keys)
        self.right_key = _key_getter(node.children[1].out_schema, node.right_keys)


class JoinExec:
    """Symmetric (pipelined) hash join over delta streams.

    Both sides keep net-multiplicity hash tables keyed by the join key;
    output bitvectors are the AND of the matching inputs' bitvectors, and
    deletions propagate with multiplied signs.
    """

    def __init__(self, node, left, right, meter, stats_mode=False):
        self.node = node
        self.left = left
        self.right = right
        self.meter = meter
        #: net stored entries (both sides), what ``charge_state`` bills
        self.entry_count = 0
        self.name = "join:%d" % node.uid
        artifacts = cached_artifacts(node, "join", lambda: _JoinArtifacts(node))
        self._left_key = artifacts.left_key
        self._right_key = artifacts.right_key
        # key -> {(row, bits): net multiplicity}
        self._left_table = {}
        self._right_table = {}
        self.decorations = Decorations(node, stats_mode)
        self.stats_mode = stats_mode
        self.in_left = 0
        self.in_right = 0
        self.out_total = 0
        self.in_left_per_q = {}
        self.in_right_per_q = {}
        self.out_per_q = {}

    def release(self):
        """Drop both hash tables, down the tree; readers and counters stay."""
        self.left.release()
        self.right.release()
        self._left_table.clear()
        self._right_table.clear()
        self.entry_count = 0

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

    def _advance_reference(self):
        left_deltas = self.left.advance()
        right_deltas = self.right.advance()
        self.meter.charge_input(self.name, len(left_deltas) + len(right_deltas))
        out = []
        # 1) probe new left deltas against the old right state
        for delta in left_deltas:
            self._probe(delta, self._right_table, self._left_key, out,
                        left_side=True)
        # 2) install new left deltas
        for delta in left_deltas:
            self.entry_count += _table_update(
                self._left_table, self._left_key(delta.row), delta
            )
        # 3) probe new right deltas against the *new* left state
        for delta in right_deltas:
            self._probe(delta, self._left_table, self._right_key, out,
                        left_side=False)
        # 4) install new right deltas
        for delta in right_deltas:
            self.entry_count += _table_update(
                self._right_table, self._right_key(delta.row), delta
            )
        self.meter.charge_output(self.name, len(out))
        self.meter.charge_state(self.entry_count)
        if self.stats_mode:
            self.in_left += len(left_deltas)
            self.in_right += len(right_deltas)
            self.out_total += len(out)
            _count_per_q(left_deltas, self.in_left_per_q)
            _count_per_q(right_deltas, self.in_right_per_q)
            _count_per_q(out, self.out_per_q)
        return self.decorations.apply(out, self.meter)

    advance = _advance_reference

    def _probe(self, delta, table, key_fn, out, left_side):
        key = key_fn(delta.row)
        if FAULTS.drop_last_key_match and lost_key(key):
            # test-only injected bug, at the probe: see
            # repro.physical.faults
            return
        matches = table.get(key)
        if not matches:
            return
        for (other_row, other_bits), net in matches.items():
            bits = delta.bits & other_bits
            if bits == 0 or net == 0:
                continue
            sign = delta.sign * (INSERT if net > 0 else DELETE)
            if left_side:
                row = delta.row + other_row
            else:
                row = other_row + delta.row
            for _ in range(abs(net)):
                out.append(Delta(row, sign, bits))

    def state_size(self):
        """Net stored entries (both sides); used by tests and diagnostics."""
        total = sum(abs(n) for m in self._left_table.values() for n in m.values())
        total += sum(abs(n) for m in self._right_table.values() for n in m.values())
        return total


def _key_getter(schema, keys):
    indexes = tuple(schema.index_of(name) for name in keys)
    if len(indexes) == 1:
        index = indexes[0]
        return lambda row: row[index]
    return lambda row: tuple(row[i] for i in indexes)


def _table_update(table, key, delta):
    """Apply one delta to a hash table; returns the entry-count change."""
    entry = table.setdefault(key, {})
    slot = (delta.row, delta.bits)
    previous = entry.get(slot, 0)
    net = previous + delta.sign
    if net == 0:
        entry.pop(slot, None)
        if not entry:
            table.pop(key, None)
        return -1 if previous != 0 else 0
    entry[slot] = net
    return 1 if previous == 0 else 0


def _count_per_q(deltas, acc):
    for delta in deltas:
        for qid in qids_of(delta.bits):
            acc[qid] = acc.get(qid, 0) + 1


class _SumState:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def update(self, value, sign, meter, name):
        self.value += sign * value

    def current(self):
        return self.value


class _CountState:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def update(self, value, sign, meter, name):
        self.count += sign

    def current(self):
        return self.count


class _AvgState:
    """AVG with exact int accumulation and compensated float summation.

    A plain ``total += sign * value`` accumulates float rounding error
    that never cancels under delete-heavy update streams, so a group
    whose contributions all retract could report a nonzero average drift.
    Integer inputs stay on an exact int fast path; float inputs use
    Neumaier compensated summation, and when the group empties out the
    accumulator snaps back to exactly zero.
    """

    __slots__ = ("total", "count", "compensation")

    def __init__(self):
        self.total = 0
        self.count = 0
        self.compensation = 0.0

    def update(self, value, sign, meter, name):
        count = self.count + sign
        self.count = count
        if sign == DELETE:
            value = -value
        total = self.total
        if type(total) is int and type(value) is int:
            self.total = total + value
        else:
            new_total = total + value
            if abs(total) >= abs(value):
                self.compensation += (total - new_total) + value
            else:
                self.compensation += (value - new_total) + total
            self.total = new_total
        if count == 0:
            # exact cancellation: an empty multiset has drifted nowhere
            self.total = 0
            self.compensation = 0.0

    def current(self):
        if self.count == 0:
            return None
        compensation = self.compensation
        if compensation:
            return (self.total + compensation) / self.count
        return self.total / self.count


def _make_state(spec):
    if spec.func == "sum":
        return _SumState()
    if spec.func == "count":
        return _CountState()
    if spec.func == "avg":
        return _AvgState()
    return _MinMaxState(spec.func == "max")


class _GroupQueryState:
    """Aggregate state of one group for one query."""

    __slots__ = ("contributions", "states")

    def __init__(self, specs):
        self.contributions = 0
        self.states = [_make_state(spec) for spec in specs]


def _aggregate_artifacts(node):
    """(group-key getter or None, input closures) of an aggregate node."""
    child_schema = node.children[0].out_schema
    indexes = tuple(child_schema.index_of(name) for name in node.group_by)
    group_key = (lambda row: tuple(row[i] for i in indexes)) if indexes else None
    return group_key, tuple(
        spec.expr.compile(child_schema) for spec in node.aggs)


class AggregateExec:
    """Shared group-by aggregate with per-query state and retractions.

    Processing updates per-(group, query) states according to each delta's
    bitvector.  At the end of each incremental execution the operator
    emits, for every touched (group, query), a retraction of the
    previously emitted row and an insertion of the new row (or just a
    deletion when the group emptied).  Emissions that coincide across
    queries are coalesced into one delta with OR-ed bits, so fully shared
    inputs emit exactly one physical tuple per group like SharedDB.
    """

    def __init__(self, node, child, subplan_mask, meter, stats_mode=False):
        self.node = node
        self.child = child
        self.subplan_mask = subplan_mask
        self.meter = meter
        self.state_count = 0
        self.name = "agg:%d" % node.uid
        self._group_key, self._input_fns = cached_artifacts(
            node, "agg", lambda: _aggregate_artifacts(node))
        self.specs = node.aggs
        self.groups = {}
        self.last_emitted = {}
        self._touched = set()
        self.decorations = Decorations(node, stats_mode)
        self.stats_mode = stats_mode
        self.in_total = 0
        self.in_per_q = {}
        self.out_total = 0

    def release(self):
        """Drop the group states, down the tree; readers and counters stay."""
        self.child.release()
        self.groups.clear()
        self.last_emitted.clear()
        self._touched.clear()
        self.state_count = 0

    def rewind(self):
        """Readers back to offset 0 and counters zeroed, down the tree."""
        self.child.rewind()
        self.in_total = 0
        self.in_per_q = {}
        self.out_total = 0
        self.decorations.reset_stats()

    def advance(self):
        deltas = self.child.advance()
        self.meter.charge_input(self.name, len(deltas))
        if self.stats_mode:
            self.in_total += len(deltas)
            _count_per_q(deltas, self.in_per_q)
        for delta in deltas:
            self._absorb(delta)
        out = self._emit()
        self.meter.charge_output(self.name, len(out))
        self.meter.charge_state(self.state_count)
        if self.stats_mode:
            self.out_total += len(out)
        return self.decorations.apply(out, self.meter)

    # -- per-tuple reference path --------------------------------------------

    def _absorb(self, delta):
        key = self._group_key(delta.row) if self._group_key else ()
        per_query = self.groups.get(key)
        if per_query is None:
            per_query = self.groups[key] = {}
        values = [fn(delta.row) for fn in self._input_fns]
        for qid in bitvec.iter_bits(delta.bits & self.subplan_mask):
            state = per_query.get(qid)
            if state is None:
                state = per_query[qid] = _GroupQueryState(self.specs)
                self.state_count += 1
            state.contributions += delta.sign
            for agg_state, value in zip(state.states, values):
                agg_state.update(value, delta.sign, self.meter, self.name)
        self._touched.add(key)

    def _emit(self):
        emissions = {}

        def emit(row, sign, qid):
            slot = (row, sign)
            emissions[slot] = emissions.get(slot, 0) | (1 << qid)

        for key in self._touched:
            per_query = self.groups.get(key, {})
            emitted = self.last_emitted.setdefault(key, {})
            for qid in list(per_query):
                state = per_query[qid]
                previous = emitted.get(qid)
                if state.contributions <= 0:
                    if state.contributions < 0:
                        raise ExecutionError(
                            "negative multiplicity in group %r for q%d" % (key, qid)
                        )
                    if previous is not None:
                        emit(previous, DELETE, qid)
                        del emitted[qid]
                    del per_query[qid]
                    self.state_count -= 1
                    continue
                row = key + tuple(s.current() for s in state.states)
                if row == previous:
                    continue
                if previous is not None:
                    emit(previous, DELETE, qid)
                emit(row, INSERT, qid)
                emitted[qid] = row
            if not per_query:
                self.groups.pop(key, None)
            if not emitted:
                self.last_emitted.pop(key, None)
        self._touched.clear()
        # deterministic order: deletions first so downstream never sees a
        # transient duplicate, then insertions
        ordered = sorted(
            emissions.items(), key=lambda item: (item[0][1], _sort_key(item[0][0]))
        )
        return [Delta(row, sign, bits) for (row, sign), bits in ordered]

    def group_count(self, qid=None):
        """Number of live groups (optionally for one query); diagnostics."""
        if qid is None:
            return len(self.groups)
        return sum(1 for per_query in self.groups.values() if qid in per_query)
