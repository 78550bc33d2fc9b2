"""Logical operator trees.

A logical plan is an immutable tree over the operator set the paper's
shared execution engine supports (section 2.3): scan, select, project,
inner (equi-)join and group-by aggregate.  Each node derives its output
schema.  The MQO optimizer's sharability test works on the canonical
form (:mod:`repro.mqo.canonical`), where selects and projects are
folded onto the core operators as decorations that may differ between
sharable plans.
"""

from ..errors import PlanError
from ..relational.schema import Schema, Column, FLOAT, INT
from ..relational.expressions import Expression, AggSpec


class LogicalOp:
    """Base class for logical operators."""

    #: subclasses set this to their operator kind string
    kind = None

    def children(self):
        """The ordered child operators."""
        raise NotImplementedError

    @property
    def schema(self):
        """The output schema of this operator."""
        raise NotImplementedError

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def operator_count(self):
        """Number of operators in this subtree."""
        return sum(1 for _ in self.walk())

    def is_blocking(self):
        """True for operators that pipeline-break (aggregates).

        NoShare-Nonuniform (section 5.2) breaks queries into subplans at
        blocking operators; this predicate defines those cut points.
        """
        return False


class Scan(LogicalOp):
    """Scan of a base relation (fed by the stream source)."""

    kind = "scan"

    def __init__(self, table_name, schema):
        if not isinstance(schema, Schema):
            raise PlanError("Scan needs the table schema, got %r" % (schema,))
        self.table_name = table_name
        self._schema = schema

    def children(self):
        return ()

    @property
    def schema(self):
        return self._schema

    def __repr__(self):
        return "Scan(%r)" % self.table_name


class Select(LogicalOp):
    """Filter by a boolean predicate."""

    kind = "select"

    def __init__(self, child, predicate):
        if not isinstance(predicate, Expression):
            raise PlanError("Select predicate must be an Expression, got %r" % (predicate,))
        self.child = child
        self.predicate = predicate

    def children(self):
        return (self.child,)

    @property
    def schema(self):
        return self.child.schema

    def __repr__(self):
        return "Select(%r)" % (self.predicate,)


class Project(LogicalOp):
    """Compute output columns ``alias -> expression``."""

    kind = "project"

    def __init__(self, child, exprs):
        """``exprs`` is an ordered list of ``(alias, Expression)`` pairs."""
        exprs = tuple((alias, expr) for alias, expr in exprs)
        if not exprs:
            raise PlanError("Project needs at least one output expression")
        self.child = child
        self.exprs = exprs
        self._schema = Schema(tuple(Column(alias, FLOAT) for alias, _ in exprs))

    def children(self):
        return (self.child,)

    @property
    def schema(self):
        return self._schema

    def __repr__(self):
        return "Project(%s)" % ", ".join(alias for alias, _ in self.exprs)


class Join(LogicalOp):
    """Inner equi-join on key column lists."""

    kind = "join"

    def __init__(self, left, right, left_keys, right_keys):
        left_keys = tuple(left_keys)
        right_keys = tuple(right_keys)
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError(
                "Join needs equal-length non-empty key lists, got %r / %r"
                % (left_keys, right_keys)
            )
        for key in left_keys:
            left.schema.index_of(key)
        for key in right_keys:
            right.schema.index_of(key)
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self._schema = left.schema.concat(right.schema)

    def children(self):
        return (self.left, self.right)

    @property
    def schema(self):
        return self._schema

    def __repr__(self):
        return "Join(%s = %s)" % (self.left_keys, self.right_keys)


class Aggregate(LogicalOp):
    """Group-by aggregate; blocking."""

    kind = "aggregate"

    def __init__(self, child, group_by, aggs):
        group_by = tuple(group_by)
        aggs = tuple(aggs)
        if not aggs:
            raise PlanError("Aggregate needs at least one AggSpec")
        for spec in aggs:
            if not isinstance(spec, AggSpec):
                raise PlanError("Aggregate expects AggSpec entries, got %r" % (spec,))
        for name in group_by:
            child.schema.index_of(name)
        self.child = child
        self.group_by = group_by
        self.aggs = aggs
        columns = [child.schema.column(name) for name in group_by]
        columns += [
            Column(spec.alias, INT if spec.func == "count" else FLOAT) for spec in aggs
        ]
        self._schema = Schema(tuple(columns))

    def children(self):
        return (self.child,)

    @property
    def schema(self):
        return self._schema

    def is_blocking(self):
        return True

    def __repr__(self):
        return "Aggregate(by=%s, %s)" % (
            list(self.group_by),
            [spec.alias for spec in self.aggs],
        )


class Query:
    """A named scheduled query: an id, a root plan, and display metadata.

    The final-work constraint is supplied separately at optimization time
    (:class:`repro.core.optimizer.QuerySpec`) because the same query can be
    re-optimized under different constraints.
    """

    __slots__ = ("query_id", "name", "root")

    def __init__(self, query_id, name, root):
        if not isinstance(root, LogicalOp):
            raise PlanError("Query root must be a LogicalOp, got %r" % (root,))
        self.query_id = query_id
        self.name = name
        self.root = root

    def __repr__(self):
        return "Query(%d, %r)" % (self.query_id, self.name)


def format_plan(op, indent=0):
    """Pretty-print a logical plan tree (debugging / examples)."""
    lines = ["%s%r" % ("  " * indent, op)]
    for child in op.children():
        lines.append(format_plan(child, indent + 1))
    return "\n".join(lines)
