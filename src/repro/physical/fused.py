"""Fused kernel codegen: one generated kernel per operator chain.

Nothing on the engine's per-batch path interprets an expression tree or
walks a list of closures: this module *generates Python source* for a
node's whole chain, compiles the text and memoizes the kernel on its
node through :func:`~repro.physical.hotpath.cached_artifacts`.  It
follows the codegen-then-measure pattern (the Cozy cost model generates
source, compiles it, and keeps it only when measurement confirms the
win -- see SNIPPETS.md):

* :func:`fused_row_kernel` is one ``for row, sign, bits in zip(...)``
  loop over a chain -- source mask, every filter's bit-clear, the union
  projection -- with every expression inlined from
  :meth:`Expression.row_source <repro.relational.expressions.Expression
  .row_source>` (no call per row at all); a base table's chain starts
  from the mask, and one with nothing else shares its input's lists;
* :func:`fused_join_kernel` walks one join side's deltas once: per
  delta the key, the probe of the other side's table, the node's
  filters and projection on each match -- every column read from the
  half that holds it, so only the projected tuple is built -- and, for a
  private side, the delta's install;
* :func:`fused_aggregate_kernels` holds the aggregate's per-delta absorb
  over its group records and its per-group emission.

Kernels pass Python lists from kernel to kernel.  A kernel is generated
the first time its operator runs, the compiled text is shared by every
node that generates the same text
(:func:`~repro.relational.codegen.compile_source`), and every kernel's
source is inspectable as ``kernel.fused_source`` (an aggregate's as the
pair of its absorb and emit texts) and shows in tracebacks under its
``<fused:...>`` filename.

Exactness contract: every kernel of a node emits the rows, the order and
the WorkMeter charges of the per-tuple reference -- the filter stage is
charged its input length (after the source mask; a join's match count
before its filters), the projection stage the survivors, both even at
zero.  Calibration (``stats_mode``) runs these very kernels and tallies
its counters from the batches between them; a join there is the
window's two side kernels, and a filtered one adds a stats-only count
of its matches' bits (:mod:`repro.physical.columnar`).
"""

from collections import namedtuple
from operator import itemgetter
from sys import intern
from textwrap import indent

from ..engine.columns import ColumnBatch
from ..errors import ExecutionError
from ..mqo.nodes import TableRef
from ..relational.codegen import Bindings, compile_source
from ..relational.expressions import Col, Const
from .hotpath import (
    _QIDS_LIMIT,
    _MinMaxState,
    _sort_key,
    cached_artifacts,
    qids_of,
)

__all__ = [
    "fused_row_kernel",
    "fused_join_kernel",
    "fused_aggregate_kernels",
]


def _compile_kernel(kind, lines, namespace):
    """The ``kernel`` function ``lines`` define, over ``namespace``."""
    source = "\n".join(lines) + "\n"
    exec(compile_source(kind, source), namespace)
    # out of its own globals: a dead kernel is no cycle
    kernel = namespace.pop("kernel")
    kernel.fused_source = source  # inspectable (tests, debugging)
    return kernel


def _build_row_kernel(node, source):
    """``kernel(batch, mask, meter) -> batch``: a node's chain --
    (source mask ->) mark filters -> projection -- as one loop
    over the batch's Python rows, every expression inlined.  ``source``
    kernels apply ``mask`` (the owning subplan's query mask) first;
    bare decorations ignore it.

    A base table's batches carry ``~0`` on every row
    (:meth:`~repro.engine.stream.TableStream.batch_until`), so its
    chain starts each row's bits at ``mask`` without reading them, and a
    chain with nothing but the mask shares the batch's row and sign
    lists."""
    bindings = Bindings()
    schema = node.core_schema
    filters = sorted(node.filters.items())
    union = node.union_projection()
    width = len(schema) if union is None else len(union)
    base = source and isinstance(node.ref, TableRef)
    lines = ["def kernel(batch, mask, meter):"]
    if not source and not filters and union is None:
        lines.append("    return batch")
        return _compile_kernel("row", lines, {})
    if base and not filters and union is None:
        lines.extend((
            "    n = len(batch)", "    if not n:", "        return EMPTY",
            "    return batch_of(batch.rows(), batch.sign_list(), "
            "[mask] * n, %d)" % width,
        ))
        return _compile_kernel("row", lines, dict(
            EMPTY=ColumnBatch.empty(width), batch_of=ColumnBatch))
    lines.extend(("    out_rows = []", "    out_signs = []",
                  "    out_bits = []"))
    filter_input = "len(batch)"
    if base:
        lines.extend((
            "    for row, sign in zip(batch.rows(), batch.sign_list()):",
            "        bits = mask",
        ))
    else:
        if source and filters:
            filter_input = "n"
            lines.append("    n = 0")
        lines.append("    for row, sign, bits in zip("
                     "batch.rows(), batch.sign_list(), batch.bit_list()):")
        if source:
            lines.extend(("        bits &= mask", "        if not bits:",
                          "            continue"))
            if filters:
                lines.append("        n += 1")
    lines.extend(_filter_lines(filters, schema, bindings, "bits", 8))
    if union is None:
        projected = "row"
    else:
        projected = _projected(union, schema, bindings, "row")
    lines.append("        out_rows.append(%s)" % projected)
    lines.extend(("        out_signs.append(sign)",
                  "        out_bits.append(bits)"))
    if filters:
        lines.append("    meter.charge_input(FILTER_NAME, %s)" % filter_input)
    if union is not None:
        lines.append("    meter.charge_input(PROJ_NAME, len(out_rows))")
    lines.extend(("    if not out_rows:", "        return EMPTY",
                  "    return batch_of(out_rows, out_signs, out_bits, %d)"
                  % width))
    return _compile_kernel("row", lines, dict(
        bindings.names,
        EMPTY=ColumnBatch.empty(width),
        batch_of=ColumnBatch,
        FILTER_NAME="filter:%d" % node.uid,
        PROJ_NAME="proj:%d" % node.uid,
    ))


def _filter_lines(filters, schema, bindings, bits, depth):
    """Each filter clears its bit where its predicate rejects the row;
    a row left without bits is skipped (``continue``)."""
    pad = " " * depth
    lines = []
    for qid, predicate in filters:
        lines.append("%sif %s & %d and not %s:" % (
            pad, bits, 1 << qid, predicate.row_source(schema, bindings)))
        lines.append("%s    %s &= %d" % (pad, bits, ~(1 << qid)))
    if filters:
        lines.extend(("%sif not %s:" % (pad, bits), "%s    continue" % pad))
    return lines


def _projected(union, schema, bindings, whole):
    """The union projection's tuple; ``whole`` spells the core row, used
    when every core column stays in place (some query does not
    project) and the row is extended instead of rebuilt."""
    fragments = [expr.row_source(schema, bindings) for _, expr in union]
    keep = len(schema)
    if fragments[:keep] == [schema.column_source(n) for n in schema.names()]:
        return "%s + (%s)" % (whole, "".join(
            "%s, " % fragment for fragment in fragments[keep:]))
    return "(%s)" % "".join("%s, " % fragment for fragment in fragments)


# -- join: one kernel per side -----------------------------------------------


class _Halves:
    """A join's core schema as its kernel holds a joined row: the probing
    delta's half ``drow`` and the matched slot's ``orow``, never
    concatenated unless the whole row is what leaves."""

    __slots__ = ("schema", "split", "delta_left")

    def __init__(self, schema, split, delta_left):
        self.schema = schema
        self.split = split  # the left input's width
        self.delta_left = delta_left

    def names(self):
        return self.schema.names()

    def __len__(self):
        return len(self.schema)

    def column_source(self, name):
        i = self.schema.index_of(name)
        if (i < self.split) == self.delta_left:
            return "drow[%d]" % (i if self.delta_left else i - self.split)
        return "orow[%d]" % (i - self.split if self.delta_left else i)


_JOIN = """\
def kernel(rows, signs, bits, other_get, own, out_rows, out_signs, out_bits):
    rows_append = out_rows.append
    signs_append = out_signs.append
    bits_append = out_bits.append
    {count_init}
{setup}\
    for drow, sign, dbits in zip(rows, signs, bits):
        key = {key}
        matches = other_get(key)
        if matches:
            for (orow, sbits), net in matches.items():
                b = dbits & sbits
                if not b:
                    continue
                if net == 1:
{count_one}{decorate_one}\
                    rows_append({row})
                    signs_append(sign)
                    bits_append(b)
                    continue
                if net > 0:
                    out_sign, reps = sign, net
                else:
                    out_sign, reps = -sign, -net
{count_many}{decorate_many}\
                out_rows.extend([{row}] * reps)
                out_signs.extend([out_sign] * reps)
                out_bits.extend([b] * reps)
{install}\
    return {counted}
"""

#: a private side's install of the delta just probed: a slot's net moves
#: by the sign, a slot at net 0 leaves at once (and its key with its last
#: slot), so a returning slot lands at its key's tail -- the reference's
#: dict order
_INSTALL = """\
        inner = table_get(key)
        if inner is None:
            table[key] = {(drow, dbits): sign}
            entries += 1
        else:
            slot = (drow, dbits)
            size = len(inner)
            # one hash of the (wide) row for a fresh slot
            net = inner.setdefault(slot, sign)
            if len(inner) != size:
                entries += 1
            elif net + sign:
                inner[slot] = net + sign
            else:
                del inner[slot]
                entries -= 1
                if not inner:
                    del table[key]
    own.entries = entries
"""


def _build_join_kernel(node, side, install):
    """``kernel(rows, signs, bits, other_get, own, out_rows, out_signs,
    out_bits) -> joined``: one side's new deltas through join ``node``
    in one loop.  Per delta: its key, inlined; the probe of the other
    side's table (``other_get``), emitting the reference's sequence --
    per delta its key's slots in insertion order, ``|net|`` copies each,
    the sign flipped under a negative net, zero-bit pairs dropped; the
    node's mark filters and union projection on each match, spelled from
    the half each column lives in, so only the projected tuple is built;
    with ``install``, the delta's install into ``own`` (a
    :class:`~repro.engine.arrangements.PrivateSide`).  Returns the match
    count before the filters, what the join's output charge and the
    filter stage's input charge count; ``kernel.width`` is the arity of
    the rows it emits."""
    bindings = Bindings()
    left_schema = node.children[0].out_schema
    right_schema = node.children[1].out_schema
    delta_schema, key_names = (
        (left_schema, node.left_keys) if side == 0
        else (right_schema, node.right_keys))
    indexes = [delta_schema.index_of(name) for name in key_names]
    key = "drow[%d]" % indexes[0] if len(indexes) == 1 else "(%s)" % "".join(
        "drow[%d], " % i for i in indexes)
    whole = "drow + orow" if side == 0 else "orow + drow"
    width = len(left_schema) + len(right_schema)
    row = whole
    halves = _Halves(left_schema.concat(right_schema), len(left_schema),
                     side == 0)
    decorate = "".join(line + "\n" for line in _filter_lines(
        sorted(node.filters.items()), halves, bindings, "b", 0))
    union = node.union_projection()
    if union is not None:
        row = _projected(union, halves, bindings, whole)
        width = len(union)
    if decorate:
        # filters drop matches: count them as they come
        count = dict(count_init="joined = 0",
                     count_one=" " * 20 + "joined += 1\n",
                     count_many=" " * 16 + "joined += reps\n",
                     counted="joined")
    else:
        # every match leaves: the count is what was appended
        count = dict(count_init="start = len(out_rows)", count_one="",
                     count_many="", counted="len(out_rows) - start")
    text = _JOIN.format(
        **count,
        setup="    table = own.table\n    table_get = table.get\n"
              "    entries = own.entries\n" if install else "",
        key=key, row=row,
        # the net-1 branch is one level deeper than the general one
        decorate_one=indent(decorate, " " * 20),
        decorate_many=indent(decorate, " " * 16),
        install=_INSTALL if install else "",
    )
    kernel = _compile_kernel("join", [text], dict(bindings.names))
    kernel.width = width
    return kernel


# -- aggregate: group records, absorb and per-group emission ----------------
#
# The production aggregate keeps ONE record per live group, reached by one
# dict lookup per delta: ``[key, sort prefix, touched, state, state, ...]``
# -- the groups dict's key (the bare value of a one-column group-by, else
# the tuple), ``_sort_key`` of the group key (memoised at the first
# emission), whether the record is in the operator's touched list, and one
# state per query of the operator's mask, ``None`` while that query has
# nothing in the group.  A state is the flat list ``[contributions,
# previously emitted row, spec slots...]``: SUM one slot, AVG two (total,
# Neumaier compensation), MIN/MAX one (its multiset object), COUNT none --
# its value, like AVG's count, *is* the contributions.  The arithmetic
# copies :mod:`repro.physical.operators`' state classes operation for
# operation, so floats stay bit-identical to the per-tuple reference.

_STATE0 = 3  # record index of the first query's state

#: ``{v}``: the signed input; ``count``: the state's new contributions (an
#: emptied group snaps back to exactly zero: it has drifted nowhere)
_AVG_UPDATE = """\
if count == 0:
    {t} = 0
    {c} = 0.0
else:
    value = {v}
    total = {t}
    if type(total) is int and type(value) is int:
        {t} = total + value
    else:
        new_total = total + value
        if abs(total) >= abs(value):
            {c} += (total - new_total) + value
        else:
            {c} += (value - new_total) + total
        {t} = new_total
"""

_ABSORB = """\
def absorb(rows, signs, bits, groups, touched, meter, name, state_count):
    groups_get = groups.get
    touched_append = touched.append
    for row, sign, b in zip(rows, signs, bits):
        {wanted}
            continue
        group = {group}
        rec = groups_get(group)
        if rec is None:
            rec = groups[group] = [group, None, True{nones}]
            touched_append(rec)
        elif not rec[2]:
            rec[2] = True
            touched_append(rec)
{inputs}
{update}
    return state_count
"""

#: one query: straight-line, at most one delete and one insert per group,
#: nothing to coalesce or tie-break
_EMIT_ONE = """\
def emit(touched, groups, state_count):
    pending = []
    for rec in touched:
        rec[2] = False
        key = rec[0]
        st = rec[{slot}]
        previous = st[1]
        if st[0] > 0:
            row = {row}
            if row == previous:
                continue
            st[1] = row
        else:
            if st[0] < 0:
                raise ExecutionError({negative} % ({key}, QID))
            del groups[key]
            state_count -= 1
            if previous is None:
                continue
            row = None
        prefix = rec[1]
        if prefix is None:
            prefix = rec[1] = sort_key({key})
        pending.append((prefix, previous, row))
    if not pending:
        return EMPTY, state_count
    if len(pending) > 1:
        pending.sort(key=first)
    rows = [old for _, old, _ in pending if old is not None]
    deleted = len(rows)
    rows += [new for _, _, new in pending if new is not None]
    n = len(rows)
    return batch_of(rows, [-1] * deleted + [1] * (n - deleted),
                     [MASK] * n, {width}), state_count
"""

#: several queries: the rows they emit meet inside their group, and only
#: there (``olds`` / ``news``: row, bit, row, bit, ...)
_EMIT_MANY = """\
def emit(touched, groups, state_count):
    pending = []
    for rec in touched:
        rec[2] = False
        key = rec[0]
        olds = news = ()
        live = False
        for slot, bit, qid in QUERIES:
            st = rec[slot]
            if st is None:
                continue
            previous = st[1]
            if st[0] > 0:
                live = True
                row = {row}
                if row == previous:
                    continue
                st[1] = row
                news += (row, bit)
            else:
                if st[0] < 0:
                    raise ExecutionError({negative} % ({key}, qid))
                rec[slot] = None
                state_count -= 1
            if previous is not None:
                olds += (previous, bit)
        if not live:
            del groups[key]
        if olds or news:
            prefix = rec[1]
            if prefix is None:
                prefix = rec[1] = sort_key({key})
            pending.append((prefix, coalesce(olds, {arity}),
                            coalesce(news, {arity})))
    if not pending:
        return EMPTY, state_count
    if len(pending) > 1:
        pending.sort(key=first)
    rows = []
    bits = []
    for _, (old_rows, old_bits), _ in pending:
        rows += old_rows
        bits += old_bits
    deleted = len(rows)
    for _, _, (new_rows, new_bits) in pending:
        rows += new_rows
        bits += new_bits
    return batch_of(rows, [-1] * deleted + [1] * (len(rows) - deleted),
                     bits, {width}), state_count
"""

def _coalesce(flat, arity):
    """One group's ``(row, bit, row, bit, ...)`` of one sign as ``(rows,
    bits)``: equal rows OR their bits, distinct ones order by ``_sort_key``
    of their values -- the only place those are ever sort-keyed."""
    if len(flat) <= 2:
        return flat[:1], flat[1:]
    merged = {}
    for row, bit in zip(flat[::2], flat[1::2]):
        merged[row] = merged.get(row, 0) | bit
    rows = list(merged)
    if len(rows) > 1:
        rows.sort(key=lambda row: _sort_key(row[arity:]))
    return rows, [merged[row] for row in rows]


#: ``fused_source`` is the pair of texts ``(absorb's, emit's)``, each
#: the very string its compiled code is cached under
AggregateKernels = namedtuple(
    "AggregateKernels", "absorb emit slot_of fused_source")


def _state_layout(aggs):
    """A query state's fresh-list text and each spec's first slot: SUM
    one slot, AVG two (total, compensation), MIN/MAX one (its multiset
    object), COUNT none, after ``[contributions, emitted row]``."""
    fresh = ["0", "None"]
    offsets = []
    for spec in aggs:
        offsets.append(len(fresh))
        if spec.func == "sum":
            fresh.append("0")
        elif spec.func == "avg":
            fresh.extend(("0", "0.0"))
        elif spec.func != "count":
            fresh.append("MinMax(%r)" % (spec.func == "max"))
    return "[%s]" % ", ".join(fresh), offsets


def _build_aggregate_kernels(node, qids):
    """Generate the :class:`AggregateKernels` of aggregate ``node`` run
    for the queries ``qids``, specialised on what the operator can see:
    the arity of its group key, its specs, whether it serves one query.

    ``absorb`` is the per-delta loop with the group key, the inputs and
    the state updates inlined.  ``emit`` re-emits every touched group whose row changed, in the
    reference's ``(sign, _sort_key(row))`` order (deletions first, so
    downstream never sees a transient duplicate): rows of different
    groups never tie or coalesce -- a row starts with its group key -- so
    groups sort once by their memoised prefix and queries meet inside a
    group only.
    """
    bindings = Bindings()
    schema = node.children[0].out_schema
    indexes = [schema.index_of(name) for name in node.group_by]
    arity = len(indexes)
    slot_of = {qid: _STATE0 + i for i, qid in enumerate(qids)}

    # per spec its update and its value, at its slot of the state layout
    fresh, offsets = _state_layout(node.aggs)
    inputs, updates, currents = [], [], []
    for position, (spec, slot) in enumerate(zip(node.aggs, offsets)):
        value = spec.expr.row_source(schema, bindings)
        summed = spec.func in ("sum", "avg")
        if summed or not isinstance(spec.expr, (Col, Const)):
            # (a bare column or constant cannot raise: it stays inline;
            # a summed value is read twice, so it is evaluated once)
            inputs.append("v%d = %s" % (position, value))
            value = "v%d" % position
        if spec.func == "sum":
            updates.append("st[%d] += %s if sign == 1 else -%s\n"
                           % (slot, value, value))
            currents.append("st[%d]" % slot)
        elif spec.func == "count":
            currents.append("st[0]")
        elif spec.func == "avg":
            total, comp = "st[%d]" % slot, "st[%d]" % (slot + 1)
            updates.append(_AVG_UPDATE.format(
                t=total, c=comp, v="-{0} if sign == -1 else {0}".format(value)))
            currents.append("(({t} + {c}) / st[0] if {c} else {t} / st[0])"
                            .format(t=total, c=comp))
        else:
            # MIN/MAX keeps the method call: it charges the meter on rescans
            updates.append("st[%d].update(%s, sign, meter, name)\n"
                           % (slot, value))
            currents.append("st[%d].extremum" % slot)
    update = (
        "st = rec[{slot}]\n"
        "if st is None:\n"
        "    st = rec[{slot}] = %s\n"
        "    state_count += 1\n"
        "count = st[0] = st[0] + sign\n" % fresh
    ) + "".join(updates)
    if len(qids) == 1:
        # a row no query wants only "touches" its group in the reference,
        # which is observably a no-op
        wanted = "if not b & MASK:"
        update = indent(update.format(slot=_STATE0), " " * 8)
    else:
        wanted = "masked = b & MASK\n        if not masked:"
        update = indent(
            "slots = slots_get(masked)\n"
            "if slots is None:\n"
            "    slots = decode_slots(masked)\n"
            "for slot in slots:\n", " " * 8,
        ) + indent(update.format(slot="slot"), " " * 12)
    group = "row[%d]" % indexes[0] if arity == 1 else "(%s)" % "".join(
        "row[%d], " % i for i in indexes)
    source = intern(_ABSORB.format(
        wanted=wanted, group=group,
        nones=", None" * len(qids),
        inputs=indent("\n".join(inputs), " " * 8), update=update,
    ))

    key_part = "key, " if arity == 1 else "".join(
        "key[%d], " % i for i in range(arity))
    shape = dict(
        row="(%s%s)" % (key_part, "".join("%s, " % c for c in currents)),
        key="(key,)" if arity == 1 else "key",
        negative='"negative multiplicity in group %r for q%d"',
        width=arity + len(node.aggs), arity=arity,
    )
    emit = _EMIT_ONE if len(qids) == 1 else _EMIT_MANY
    # emit is its own text: it reads no bindings and no inputs, so every
    # node of one output shape shares one compiled emit
    emit = intern(emit.format(slot=_STATE0, **shape))

    slots = {}  # a delta's masked bits -> the record slots of its queries

    def decode_slots(masked):
        if len(slots) >= _QIDS_LIMIT:
            slots.clear()
        found = slots[masked] = tuple(slot_of[q] for q in qids_of(masked))
        return found

    # queries are bound, not spelled: one compiled text per node shape
    namespace = dict(
        bindings.names,
        MASK=sum(1 << qid for qid in qids),
        QID=qids[0],
        MinMax=_MinMaxState,
        slots_get=slots.get,
        decode_slots=decode_slots,
        QUERIES=tuple((slot, 1 << qid, qid) for qid, slot in slot_of.items()),
        ExecutionError=ExecutionError,
        sort_key=_sort_key,
        coalesce=_coalesce,
        first=itemgetter(0),
        EMPTY=ColumnBatch.empty(shape["width"]),
        batch_of=ColumnBatch,
    )
    exec(compile_source("aggregate", source), namespace)
    exec(compile_source("aggregate-emit", emit), namespace)
    # out of their globals (none calls a sibling): dead kernels are no cycle
    generated = map(namespace.pop, AggregateKernels._fields[:2])
    return AggregateKernels(*generated, slot_of, (source, emit))


def fused_row_kernel(node, source=False):
    """The memoized kernel of ``node``'s chain (``source``:
    behind the subplan mask, for the source that owns the chain)."""
    return cached_artifacts(
        node,
        "fused-row-src" if source else "fused-row",
        lambda: _build_row_kernel(node, source),
    )


def fused_join_kernel(node, side, install):
    """The memoized kernel of join ``node``'s ``side`` (0 left, 1 right)
    -- ``install``: into a private own side -- the one path every window,
    calibration and the injected join fault run."""
    return cached_artifacts(
        node,
        ("fused-join", side, install),
        lambda: _build_join_kernel(node, side, install),
    )


def fused_aggregate_kernels(node, qids):
    """The memoized :class:`AggregateKernels` of aggregate ``node`` run
    for the queries ``qids``."""
    return cached_artifacts(
        node,
        ("fused-aggregate", qids),
        lambda: _build_aggregate_kernels(node, qids),
    )
