"""Fused kernel codegen: one generated kernel per operator chain and lane.

Nothing on the engine's per-batch path interprets an expression tree or
walks a list of closures: this module *generates Python source* for a
node's whole chain -- source mask, every filter's bit-clear, the union
projection -- compiles the text and memoizes the kernel through
:func:`~repro.physical.hotpath.cached_artifacts`.  Following the
codegen-then-measure pattern (the Cozy cost model generates source,
compiles it, and keeps it only when measurement confirms the win -- see
SNIPPETS.md), there is one generator per lane of the size dispatch
(``columnar.ROW_LANE_MAX``):

* the **vector kernels** (:func:`fused_source_kernel`,
  :func:`fused_decoration_kernel`, :func:`fused_aggregate_inputs`)
  flatten each vectorizable expression tree into a single inline NumPy
  expression with constants folded and column reads hoisted;
* the **row kernels** are their scalar twins: :func:`fused_row_kernel`
  is one ``for row, sign, bits in zip(...)`` loop with the mask, the
  bit-clears and the projection tuple inlined from
  :meth:`Expression.row_source <repro.relational.expressions.Expression
  .row_source>` (no call per row at all), and
  :func:`fused_absorb_kernel` is the aggregate's per-delta loop with the
  group key, the input expressions and each spec's state update
  inlined.  A row-lane chain passes Python lists from kernel to kernel
  and never touches NumPy.

A kernel is generated the first time its lane is taken, the compiled
text is shared by every node that generates the same text
(:func:`~repro.relational.codegen.compile_source`), and every kernel's
source is inspectable as ``kernel.fused_source`` and shows in
tracebacks under its ``<fused:...>`` filename.

Exactness contract: every kernel of a node emits the same rows in the
same order with the same WorkMeter charges -- the filter stage is
charged its input length (after the source mask), the projection stage
the survivors, both even at zero.  The vector kernels perform the *same
array operations in the same order* as the unfused closure chain that
calibration still runs (``stats_mode`` needs its per-filter counters);
expression shapes the flattener does not cover (containment predicates,
row-wise fallbacks) are bound into the generated source as the very
closures that chain would call.  ``tests/test_columnar_equivalence.py``
replays every fig11 batch through all of them.
"""

from ..engine.columns import ColumnBatch, np
from ..relational.codegen import Bindings, compile_source, const_fragment
from ..relational.expressions import (
    And,
    BinaryOp,
    Col,
    Comparison,
    Const,
    Not,
    Or,
)
from .hotpath import _QIDS_CACHE, cached_artifacts, qids_of

__all__ = [
    "fused_decoration_kernel",
    "fused_source_kernel",
    "fused_aggregate_inputs",
    "fused_row_kernel",
    "fused_absorb_kernel",
]


class _Emitter(Bindings):
    """Bound constants and closures, plus fresh local names, while
    expression trees are flattened into source fragments."""

    def __init__(self):
        Bindings.__init__(self)
        self._counter = 0

    def fresh(self, prefix):
        self._counter += 1
        return "_%s%d" % (prefix, self._counter)


class _NotInline(Exception):
    """Internal: this subtree is not flattened; bind its closure."""


def _fragment(expr, schema, batch_var, columns, emitter, n_var):
    """A source fragment evaluating ``expr`` over ``batch_var``.

    Mirrors :func:`repro.physical.columnar._vec` operation for
    operation; anything `_vec` would reject raises :class:`_NotInline`
    so the caller binds the chain's compiled closure instead.
    """
    if isinstance(expr, Col):
        index = schema.index_of(expr.name)
        name = columns.get(index)
        if name is None:
            name = columns[index] = "%s_c%d" % (batch_var, index)
        return name
    if isinstance(expr, Const):
        return const_fragment(expr.value, emitter)
    if isinstance(expr, BinaryOp):
        left = _fragment(expr.left, schema, batch_var, columns, emitter, n_var)
        right = _fragment(expr.right, schema, batch_var, columns, emitter,
                          n_var)
        op = expr.op
        if op in ("+", "-", "*"):
            return "(%s %s %s)" % (left, op, right)
        # division only by a nonzero constant, like the vectorizer
        if not (isinstance(expr.right, Const) and expr.right.value != 0):
            raise _NotInline
        if op == "/":
            return "(%s / %s)" % (left, right)
        return "(%s // %s)" % (left, right)
    if isinstance(expr, Comparison):
        left = _fragment(expr.left, schema, batch_var, columns, emitter, n_var)
        right = _fragment(expr.right, schema, batch_var, columns, emitter,
                          n_var)
        return "(%s %s %s)" % (left, expr.op, right)
    if isinstance(expr, And):
        left = _fragment(expr.left, schema, batch_var, columns, emitter, n_var)
        right = _fragment(expr.right, schema, batch_var, columns, emitter,
                          n_var)
        return "np.logical_and(_truthy(%s, %s), _truthy(%s, %s))" % (
            left, n_var, right, n_var,
        )
    if isinstance(expr, Or):
        left = _fragment(expr.left, schema, batch_var, columns, emitter, n_var)
        right = _fragment(expr.right, schema, batch_var, columns, emitter,
                          n_var)
        return "np.logical_or(_truthy(%s, %s), _truthy(%s, %s))" % (
            left, n_var, right, n_var,
        )
    if isinstance(expr, Not):
        child = _fragment(expr.child, schema, batch_var, columns, emitter,
                          n_var)
        return "np.logical_not(_truthy(%s, %s))" % (child, n_var)
    # Containment predicates vectorize but do not flatten: bind the very
    # closure ``_vec`` would build for this subtree.  If the subtree is
    # *not* vectorizable, re-raise so the whole expression falls back to
    # the row-wise closure exactly like the unfused path (a partial
    # fallback would change the arithmetic path and break bit-identity).
    from .columnar import _NotVectorizable, _vec

    try:
        fn = _vec(expr, schema)
    except _NotVectorizable:
        raise _NotInline
    name = emitter.bind("f", fn)
    return "%s(%s)" % (name, batch_var)


def _expr_source(expr, schema, batch_var, columns, emitter, n_var):
    """Fragment for ``expr``, falling back to a bound closure call."""
    try:
        return _fragment(expr, schema, batch_var, columns, emitter, n_var)
    except _NotInline:
        from .columnar import compile_columnar

        fn = compile_columnar(expr, schema)
        name = emitter.bind("f", fn)
        return "%s(%s)" % (name, batch_var)


def _hoist_columns(lines, batch_var, columns):
    """Emit the per-stage column reads the fragments referenced."""
    for index in sorted(columns):
        lines.append("    %s = %s.column(%d)" % (
            columns[index], batch_var, index,
        ))


def _filter_block(node, batch_var, emitter, indent="    "):
    """Source lines replicating ``ColumnarDecorations.apply``'s filter
    loop over ``batch_var`` (charge, per-pair bit clears, final keep)."""
    lines = []
    columns = {}
    body = []
    core_schema = node.core_schema
    n_var = "n"
    body.append("%sn = len(%s)" % (indent, batch_var))
    body.append("%smeter.charge_input(FILTER_NAME, n)" % indent)
    body.append("%sbits = %s.bits" % (indent, batch_var))
    for qid, predicate in sorted(node.filters.items()):
        bit = 1 << qid
        clear = ~bit
        frag = _expr_source(predicate, core_schema, batch_var, columns,
                            emitter, n_var)
        has = emitter.fresh("has")
        drop = emitter.fresh("drop")
        body.append("%s%s = (bits & %d) != 0" % (indent, has, bit))
        body.append("%sif %s.any():" % (indent, has))
        body.append("%s    pred = _bool_mask(%s, n)" % (indent, frag))
        body.append("%s    %s = %s & ~pred" % (indent, drop, has))
        body.append("%s    if %s.any():" % (indent, drop))
        body.append("%s        bits = np.where(%s, bits & %d, bits)"
                    % (indent, drop, clear))
    body.append("%skeep = bits != 0" % indent)
    body.append("%sif keep.all():" % indent)
    body.append("%s    %s = %s.with_bits(bits)" % (indent, batch_var,
                                                   batch_var))
    body.append("%selse:" % indent)
    body.append(
        "%s    %s = %s.with_bits(bits).take(np.flatnonzero(keep))"
        % (indent, batch_var, batch_var)
    )
    _hoist_columns(lines, batch_var, columns)
    lines.extend(body)
    return lines


def _projection_block(node, batch_var, emitter, indent="    "):
    """Source lines replicating the union-projection stage."""
    union = node.union_projection()
    if union is None:
        return None
    lines = []
    columns = {}
    frags = [
        _expr_source(expr, node.core_schema, batch_var, columns, emitter, "m")
        for _, expr in union
    ]
    body = []
    body.append("%sm = len(%s)" % (indent, batch_var))
    body.append("%smeter.charge_input(PROJ_NAME, m)" % indent)
    cols = ", ".join("_materialize(%s, m)" % frag for frag in frags)
    if len(frags) == 1:
        cols += ","
    body.append("%scolumns = (%s)" % (indent, cols))
    body.append(
        "%s%s = ColumnBatch(columns, %s.signs, %s.bits)"
        % (indent, batch_var, batch_var, batch_var)
    )
    _hoist_columns(lines, batch_var, columns)
    lines.extend(body)
    return lines


def _compile_kernel(kind, lines, namespace):
    """The ``kernel`` function ``lines`` define, over ``namespace``."""
    source = "\n".join(lines) + "\n"
    exec(compile_source(kind, source), namespace)
    kernel = namespace["kernel"]
    kernel.fused_source = source  # inspectable (tests, debugging)
    return kernel


def _vector_namespace(node, emitter):
    from .columnar import _bool_mask, _materialize, _truthy

    return dict(
        emitter.names,
        np=np,
        ColumnBatch=ColumnBatch,
        _truthy=_truthy,
        _bool_mask=_bool_mask,
        _materialize=_materialize,
        FILTER_NAME="filter:%d" % node.uid,
        PROJ_NAME="proj:%d" % node.uid,
    )


def _build_decoration_kernel(node):
    """``kernel(batch, meter) -> batch`` fusing filters + projection."""
    emitter = _Emitter()
    lines = ["def kernel(batch, meter):"]
    if node.filters:
        lines.extend(_filter_block(node, "batch", emitter))
    projection = _projection_block(node, "batch", emitter)
    if projection is not None:
        lines.extend(projection)
    lines.append("    return batch")
    return _compile_kernel("deco", lines, _vector_namespace(node, emitter))


def _build_source_kernel(node):
    """``kernel(batch, subplan_mask, meter) -> batch`` fusing the source
    bit-mask stage with the node's decorations in one generated body."""
    emitter = _Emitter()
    lines = [
        "def kernel(batch, subplan_mask, meter):",
        "    sbits = batch.bits & subplan_mask",
        "    skeep = sbits != 0",
        "    if skeep.all():",
        "        batch = batch.with_bits(sbits)",
        "    else:",
        "        batch = batch.with_bits(sbits).take(np.flatnonzero(skeep))",
    ]
    if node.filters:
        lines.extend(_filter_block(node, "batch", emitter))
    projection = _projection_block(node, "batch", emitter)
    if projection is not None:
        lines.extend(projection)
    lines.append("    return batch")
    return _compile_kernel("src", lines, _vector_namespace(node, emitter))


def _build_aggregate_inputs(node):
    """``kernel(batch, n) -> [array, ...]`` evaluating every aggregate
    input expression in one pass with shared column hoisting."""
    emitter = _Emitter()
    child_schema = node.children[0].out_schema
    columns = {}
    frags = [
        _expr_source(spec.expr, child_schema, "batch", columns, emitter, "n")
        for spec in node.aggs
    ]
    lines = ["def kernel(batch, n):"]
    _hoist_columns(lines, "batch", columns)
    items = ", ".join("_materialize(%s, n)" % frag for frag in frags)
    lines.append("    return [%s]" % items)
    return _compile_kernel("agg", lines, _vector_namespace(node, emitter))


def _build_row_kernel(node, source):
    """``kernel(batch, mask, meter) -> batch``: the row lane of a node's
    chain -- (source mask ->) mark filters -> projection -- as one loop
    over the batch's Python rows, every expression inlined.  ``source``
    kernels apply ``mask`` (the owning subplan's query mask) first;
    bare decorations ignore it."""
    bindings = Bindings()
    schema = node.core_schema
    filters = sorted(node.filters.items())
    union = node.union_projection()
    width = len(schema) if union is None else len(union)
    lines = ["def kernel(batch, mask, meter):"]
    if not source and not filters and union is None:
        lines.append("    return batch")
        return _compile_kernel("row", lines, {})
    lines.extend(("    out_rows = []", "    out_signs = []",
                  "    out_bits = []"))
    filter_input = "len(batch)"
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
    for qid, predicate in filters:
        # each filter owns one bit: clear it where the predicate rejects
        lines.append("        if bits & %d and not %s:" % (
            1 << qid, predicate.row_source(schema, bindings)))
        lines.append("            bits &= %d" % ~(1 << qid))
    if filters:
        lines.extend(("        if not bits:", "            continue"))
    if union is None:
        projected = "row"
    else:
        fragments = [expr.row_source(schema, bindings) for _, expr in union]
        keep = len(schema)
        if fragments[:keep] == ["row[%d]" % i for i in range(keep)]:
            # every core column kept in place (some query does not
            # project): extend the row instead of rebuilding it
            projected = "row + (%s)" % "".join(
                "%s, " % fragment for fragment in fragments[keep:])
        else:
            projected = "(%s)" % "".join(
                "%s, " % fragment for fragment in fragments)
    lines.append("        out_rows.append(%s)" % projected)
    lines.extend(("        out_signs.append(sign)",
                  "        out_bits.append(bits)"))
    if filters:
        lines.append("    meter.charge_input(FILTER_NAME, %s)" % filter_input)
    if union is not None:
        lines.append("    meter.charge_input(PROJ_NAME, len(out_rows))")
    lines.extend(("    if not out_rows:", "        return EMPTY",
                  "    return from_rows(out_rows, out_signs, out_bits, %d)"
                  % width))
    return _compile_kernel("row", lines, dict(
        bindings.names,
        EMPTY=ColumnBatch.empty(width),
        from_rows=ColumnBatch.from_rows,
        FILTER_NAME="filter:%d" % node.uid,
        PROJ_NAME="proj:%d" % node.uid,
    ))


#: per aggregate function, the state update of one (delta, query) with
#: the input value spelled ``{v}``.  The arithmetic is copied verbatim
#: from the state classes of :mod:`repro.physical.operators` (an
#: identical operation sequence keeps float results bit-identical to the
#: per-tuple reference path); MIN/MAX keeps the method call because it
#: charges the work meter on rescans.
_STATE_UPDATES = {
    "sum": ("st.value += {v} if sign == 1 else -{v}",),
    "count": ("st.count += sign",),
    "avg": (
        "count = st.count + sign",
        "st.count = count",
        "if count == 0:",
        "    st.total = 0",
        "    st.compensation = 0.0",
        "else:",
        "    value = -{v} if sign == -1 else {v}",
        "    total = st.total",
        "    if type(total) is int and type(value) is int:",
        "        st.total = total + value",
        "    else:",
        "        new_total = total + value",
        "        if abs(total) >= abs(value):",
        "            st.compensation += (total - new_total) + value",
        "        else:",
        "            st.compensation += (value - new_total) + total",
        "        st.total = new_total",
    ),
}
_MINMAX_UPDATE = ("st.update({v}, sign, meter, name)",)


def _build_absorb_kernel(node):
    """``kernel(triples, groups, touched, mask, meter, name, state_count)
    -> state_count``: an aggregate's per-delta absorb over ``(row, sign,
    bits)`` triples, with the group key, the input expressions and every
    spec's state update inlined (no call per row but MIN/MAX's)."""
    from .operators import _GroupQueryState

    bindings = Bindings()
    schema = node.children[0].out_schema
    lines = [
        "def kernel(triples, groups, touched, mask, meter, name, state_count):",
        "    groups_get = groups.get",
        "    touched_add = touched.add",
        # group keys are interned per batch: the key tuple is built once
        # per distinct group, and every later delta of the group probes
        # groups/touched with the identical object (identity fast path)
        "    key_cache = {}",
        "    key_cache_get = key_cache.get",
        "    for row, sign, bits in triples:",
    ]
    indexes = [schema.index_of(name) for name in node.group_by]
    if len(indexes) == 1:
        lines.extend((
            "        group = row[%d]" % indexes[0],
            "        key = key_cache_get(group)",
            "        if key is None:",
            "            key = key_cache[group] = (group,)",
        ))
    elif indexes:
        lines.extend((
            "        group = (%s)" % ", ".join("row[%d]" % i for i in indexes),
            "        key = key_cache_get(group)",
            "        if key is None:",
            "            key = key_cache[group] = group",
        ))
    else:
        lines.append("        key = ()")
    lines.extend((
        "        per_query = groups_get(key)",
        "        if per_query is None:",
        "            per_query = groups[key] = {}",
        "        touched_add(key)",
        "        masked = bits & mask",
        "        qids = qids_cache_get(masked)",
        "        if qids is None:",
        "            qids = qids_of(masked)",
        "        per_query_get = per_query.get",
    ))
    values = []
    for position, spec in enumerate(node.aggs):
        source = spec.expr.row_source(schema, bindings)
        if isinstance(spec.expr, (Col, Const)):
            values.append(source)  # cannot raise and costs nothing: inline
        else:
            values.append("v%d" % position)
            lines.append("        v%d = %s" % (position, source))
    lines.extend((
        "        for qid in qids:",
        "            state = per_query_get(qid)",
        "            if state is None:",
        "                state = per_query[qid] = new_state(specs)",
        "                state_count += 1",
        "            state.contributions += sign",
    ))
    if len(values) > 1:
        lines.append("            states = state.states")
    for position, spec in enumerate(node.aggs):
        lines.append("            st = %s[%d]" % (
            "states" if len(values) > 1 else "state.states", position))
        for line in _STATE_UPDATES.get(spec.func, _MINMAX_UPDATE):
            lines.append("            " + line.replace("{v}", values[position]))
    lines.append("    return state_count")
    return _compile_kernel("absorb", lines, dict(
        bindings.names,
        specs=node.aggs,
        new_state=_GroupQueryState,
        qids_cache_get=_QIDS_CACHE.get,
        qids_of=qids_of,
    ))


def fused_decoration_kernel(node):
    """The memoized decoration kernel of ``node`` (filters+projection)."""
    return cached_artifacts(
        ("fused-deco", node.uid), lambda: _build_decoration_kernel(node)
    )


def fused_source_kernel(node):
    """The memoized source-chain kernel of ``node`` (mask+decorations)."""
    return cached_artifacts(
        ("fused-src", node.uid), lambda: _build_source_kernel(node)
    )


def fused_aggregate_inputs(node):
    """The memoized aggregate-input kernel of ``node``."""
    return cached_artifacts(
        ("fused-agg", node.uid), lambda: _build_aggregate_inputs(node)
    )


def fused_row_kernel(node, source=False):
    """The memoized row-lane kernel of ``node``'s chain (``source``:
    behind the subplan mask, for the source that owns the chain)."""
    return cached_artifacts(
        ("fused-row-src" if source else "fused-row", node.uid),
        lambda: _build_row_kernel(node, source),
    )


def fused_absorb_kernel(node):
    """The memoized per-delta absorb kernel of aggregate ``node``."""
    return cached_artifacts(
        ("fused-absorb", node.uid), lambda: _build_absorb_kernel(node)
    )
