"""Fused kernel codegen: one generated NumPy kernel per operator chain.

The unfused columnar path executes a node's mark filters and union
projection as a chain of small compiled closures -- one lambda per
expression tree node, one dispatch through
:meth:`~repro.physical.columnar.ColumnarDecorations.apply` per batch.
At fig11 batch sizes that per-node Python dispatch is a measurable slice
of the end-to-end run.  Following the codegen-then-measure pattern (the
Cozy cost model generates source, compiles it, and keeps it only when
measurement confirms the win -- see SNIPPETS.md), this module *generates
Python source* for the whole chain -- source mask, every filter's
bit-clear, the union projection -- flattens each vectorizable expression
tree into a single inline NumPy expression with constants folded and
column reads hoisted, compiles the text once per node, and memoizes the
kernel through :func:`~repro.physical.hotpath.cached_artifacts` keyed on
the fused chain signature.

Exactness contract: a fused kernel performs the *same array operations
in the same order with the same WorkMeter charges* as the unfused
chain -- it only removes interpreter dispatch between them.  Expression
shapes the flattener does not cover (containment predicates, row-wise
fallbacks) are bound into the generated source as the very closures the
unfused path would call, so results are bit-identical by construction.
Columnar operators run the fused kernel whenever ``stats_mode`` is off
and the batch is above ``columnar.ROW_LANE_MAX`` rows (smaller batches
take the operator's row lane); the unfused closures stay because
calibration (``stats_mode`` needs their per-filter counters) still runs
them, and ``tests/test_columnar_equivalence.py`` feeds every fig11
node's batches to all three and asserts identical output and identical
WorkMeter charges.
"""

from ..engine.columns import ColumnBatch, np
from ..relational.expressions import (
    And,
    BinaryOp,
    Col,
    Comparison,
    Const,
    Not,
    Or,
)
from .hotpath import cached_artifacts

__all__ = [
    "fused_decoration_kernel",
    "fused_source_kernel",
    "fused_aggregate_inputs",
]


class _Emitter:
    """Collects hoisted column reads, bound constants and closures while
    expression trees are flattened into source fragments."""

    def __init__(self):
        self.bindings = {}  # name -> python object closed over
        self._binding_ids = {}  # id(obj) -> name
        self.lines = []
        self._counter = 0

    def bind(self, prefix, obj):
        """A stable name for ``obj`` in the kernel's namespace."""
        key = id(obj)
        name = self._binding_ids.get(key)
        if name is None:
            name = "_%s%d" % (prefix, len(self.bindings))
            self._binding_ids[key] = name
            self.bindings[name] = obj
        return name

    def fresh(self, prefix):
        self._counter += 1
        return "_%s%d" % (prefix, self._counter)


def _const_fragment(value, emitter):
    """Inline literal when ``repr`` round-trips exactly; bind otherwise."""
    if value is None or value is True or value is False:
        return repr(value)
    if type(value) is int:
        return repr(value)
    if type(value) is float:
        # repr of a float round-trips exactly in python 3
        text = repr(value)
        if text in ("inf", "-inf", "nan"):
            return emitter.bind("k", value)
        return text
    if type(value) is str:
        return repr(value)
    return emitter.bind("k", value)


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
        return _const_fragment(expr.value, emitter)
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


def _compile_kernel(name, source, bindings, uid):
    from .columnar import _bool_mask, _materialize, _truthy

    namespace = {
        "np": np,
        "ColumnBatch": ColumnBatch,
        "_truthy": _truthy,
        "_bool_mask": _bool_mask,
        "_materialize": _materialize,
    }
    namespace.update(bindings)
    code = compile(source, "<fused:%s:%d>" % (name, uid), "exec")
    exec(code, namespace)
    kernel = namespace["kernel"]
    kernel.fused_source = source  # inspectable (tests, debugging)
    return kernel


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
    source = "\n".join(lines) + "\n"
    bindings = dict(emitter.bindings)
    bindings["FILTER_NAME"] = "filter:%d" % node.uid
    bindings["PROJ_NAME"] = "proj:%d" % node.uid
    return _compile_kernel("deco", source, bindings, node.uid)


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
    source = "\n".join(lines) + "\n"
    bindings = dict(emitter.bindings)
    bindings["FILTER_NAME"] = "filter:%d" % node.uid
    bindings["PROJ_NAME"] = "proj:%d" % node.uid
    return _compile_kernel("src", source, bindings, node.uid)


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
    source = "\n".join(lines) + "\n"
    return _compile_kernel("agg", source, dict(emitter.bindings), node.uid)


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
