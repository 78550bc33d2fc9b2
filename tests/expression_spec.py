"""A tree-walking executable spec of the expression language.

``Expression.compile`` and the fused row kernels run *generated source*;
this is the independent statement of what that source must compute --
one obvious ``isinstance`` walk, no code generation, no import from
``repro.physical``.  Tests compare values, result types and raised
exceptions against it.
"""

import operator

from repro.relational.expressions import (
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
