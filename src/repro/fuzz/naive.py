"""Ground truth that shares no code with the engine.

A recompute-from-scratch evaluator of a logical query over the *final*
contents of its tables: plain dicts and loops, one obvious walk of the
logical tree, and expressions through :func:`evaluate`, a tree-walking
spec of the expression language (``Expression.compile`` and the fused
kernels run *generated source*; this is the independent statement of
what that source must compute).  It imports nothing from
``repro.physical``, ``repro.engine`` or ``repro.mqo`` -- no operators,
no batches, no bitvectors, no deltas after the tables are netted -- so
a bug shared by every engine path (reference, production, shared,
unshared) cannot pass it; CI walks this module's imports to keep it so.
Float sums associate in table order here and in arrival order in the
engine: compare with ``repro.engine.compare.results_close``.

It is the reference leg of every fuzz case (:mod:`repro.fuzz.oracles`).
"""

import operator

from ..relational.expressions import (
    And, BinaryOp, Col, Comparison, Const, Contains, InList, Not, Or,
    StartsWith,
)

_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "//": operator.floordiv,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def evaluate(expr, row, schema):
    """The value of ``expr`` on ``row`` (left to right, short-circuit)."""
    if isinstance(expr, Col):
        return row[schema.index_of(expr.name)]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, (BinaryOp, Comparison)):
        left = evaluate(expr.left, row, schema)
        return _OPS[expr.op](left, evaluate(expr.right, row, schema))
    if isinstance(expr, And):
        return (bool(evaluate(expr.left, row, schema))
                and bool(evaluate(expr.right, row, schema)))
    if isinstance(expr, Or):
        return (bool(evaluate(expr.left, row, schema))
                or bool(evaluate(expr.right, row, schema)))
    if isinstance(expr, Not):
        return not evaluate(expr.child, row, schema)
    if isinstance(expr, InList):
        return evaluate(expr.child, row, schema) in frozenset(expr.values)
    if isinstance(expr, StartsWith):
        return evaluate(expr.child, row, schema).startswith(expr.prefix)
    if isinstance(expr, Contains):
        return expr.needle in evaluate(expr.child, row, schema)
    raise TypeError("no spec for %r" % (expr,))


def final_rows(table):
    """The rows a table holds once its whole delta log has arrived (an
    update is a deletion of the old row plus an insertion of the new)."""
    counts = {}
    for row, sign in table.delta_log():
        counts[row] = counts.get(row, 0) + sign
    rows = []
    for row, count in counts.items():
        if count < 0:
            raise ValueError("table %s deletes %r more often than it "
                             "inserts it" % (table.name, row))
        rows.extend([row] * count)
    return rows


def _rows(op, catalog):
    """The output rows (a list: a multiset) of logical operator ``op``."""
    if op.kind == "scan":
        return final_rows(catalog.get(op.table_name))
    if op.kind == "select":
        schema = op.child.schema
        return [row for row in _rows(op.child, catalog)
                if evaluate(op.predicate, row, schema)]
    if op.kind == "project":
        schema = op.child.schema
        return [tuple(evaluate(expr, row, schema) for _, expr in op.exprs)
                for row in _rows(op.child, catalog)]
    if op.kind == "join":
        right_at = [op.right.schema.index_of(key) for key in op.right_keys]
        matches = {}
        for row in _rows(op.right, catalog):
            matches.setdefault(tuple(row[i] for i in right_at), []).append(row)
        left_at = [op.left.schema.index_of(key) for key in op.left_keys]
        return [
            left + right
            for left in _rows(op.left, catalog)
            for right in matches.get(tuple(left[i] for i in left_at), ())
        ]
    if op.kind == "aggregate":
        return _aggregate(op, _rows(op.child, catalog))
    raise TypeError("no naive evaluation for %r" % (op,))


def _aggregate(op, rows):
    schema = op.child.schema
    key_at = [schema.index_of(name) for name in op.group_by]
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[i] for i in key_at), []).append(row)
    out = []
    for key, members in groups.items():
        values = []
        for spec in op.aggs:
            inputs = [evaluate(spec.expr, row, schema) for row in members]
            if spec.func == "count":
                values.append(len(inputs))
            elif spec.func == "sum":
                values.append(sum(inputs))
            elif spec.func == "avg":
                values.append(sum(inputs) / len(inputs))
            elif spec.func == "min":
                values.append(min(inputs))
            elif spec.func == "max":
                values.append(max(inputs))
            else:
                raise TypeError("no naive %s()" % spec.func)
        out.append(key + tuple(values))
    return out


def naive_result(query, catalog):
    """``{row: multiplicity}`` of ``query`` over ``catalog``'s final
    table contents -- the shape of ``RunResult.query_results[qid]``."""
    result = {}
    for row in _rows(query.root, catalog):
        result[row] = result.get(row, 0) + 1
    return result
