"""Canonicalization of logical plans for sharing.

The MQO sharability rule (paper section 2.3) says two subplans are
sharable when they have the same structure and operators *except* that
select and project operators may differ: differing selects become marking
selects (they update the tuple's query bitvector instead of dropping it),
and differing projects are merged by unioning their expressions.

To make that rule mechanical we rewrite every per-query logical tree into
a *canonical tree* whose nodes are only the core operators (scan, join,
aggregate); the selects and projects that sat above each core operator are
folded into two decorations on that node:

``filter``
    a single conjunctive predicate over the core operator's output schema
    (selects above a project are rewritten through the projection by
    substituting column references), and
``projection``
    a single list of ``(alias, expression)`` outputs over the core
    operator's output schema (consecutive projects compose).

Two canonical trees then share exactly when their core structures match,
which is the paper's rule.
"""

from ..errors import PlanError
from ..logical.ops import Scan, Select, Project, Join, Aggregate
from ..relational.expressions import (
    And,
    BinaryOp,
    Col,
    Comparison,
    Const,
    Contains,
    InList,
    Not,
    Or,
    StartsWith,
)


def substitute(expr, mapping):
    """Rewrite ``expr`` replacing each column ref per ``mapping``.

    ``mapping`` maps column names to replacement expressions.  Columns not
    present in the mapping are left untouched (used when pulling a select
    through a projection).
    """
    if isinstance(expr, Col):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping)
        )
    if isinstance(expr, Comparison):
        return Comparison(
            expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping)
        )
    if isinstance(expr, And):
        return And(substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Or):
        return Or(substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Not):
        return Not(substitute(expr.child, mapping))
    if isinstance(expr, InList):
        return InList(substitute(expr.child, mapping), expr.values)
    if isinstance(expr, StartsWith):
        return StartsWith(substitute(expr.child, mapping), expr.prefix)
    if isinstance(expr, Contains):
        return Contains(substitute(expr.child, mapping), expr.needle)
    raise PlanError("cannot substitute into expression %r" % (expr,))


class CanonicalNode:
    """One core operator plus its folded select/project decorations.

    Attributes
    ----------
    kind:
        ``"scan"``, ``"join"`` or ``"aggregate"``.
    payload:
        kind-specific: table name for scans; ``(left_keys, right_keys)``
        for joins; ``(group_by, aggs)`` for aggregates.
    children:
        canonical child nodes (0, 1 or 2).
    core_schema:
        output schema of the core operator, before decorations.
    filter:
        optional predicate over ``core_schema`` (None means keep all).
    projection:
        optional ordered ``[(alias, expr)]`` over ``core_schema``
        (None means identity).
    """

    __slots__ = ("kind", "payload", "children", "core_schema", "filter", "projection")

    def __init__(self, kind, payload, children, core_schema, filter_=None, projection=None):
        self.kind = kind
        self.payload = payload
        self.children = tuple(children)
        self.core_schema = core_schema
        self.filter = filter_
        self.projection = projection

    @property
    def schema(self):
        """Output schema after decorations."""
        if self.projection is None:
            return self.core_schema
        from ..relational.schema import Schema, Column

        return Schema(tuple(Column(alias) for alias, _ in self.projection))

    def operator_key(self):
        """The core operator alone: children and decorations excluded."""
        if self.kind == "scan":
            return ("scan", self.payload)
        if self.kind == "join":
            left_keys, right_keys = self.payload
            return ("join", left_keys, right_keys)
        group_by, aggs = self.payload
        return ("aggregate", group_by, tuple(spec.signature() for spec in aggs))

    def structure_key(self):
        """The core structure of the subtree, decorations excluded."""
        return (
            self.operator_key(),
            tuple(child.structure_key() for child in self.children),
        )

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self):
        deco = []
        if self.filter is not None:
            deco.append("filter")
        if self.projection is not None:
            deco.append("project")
        suffix = ("+" + "+".join(deco)) if deco else ""
        return "CanonicalNode(%s%s)" % (self.kind, suffix)


def _merge_filter(existing, extra):
    if existing is None:
        return extra
    if extra is None:
        return existing
    return And(existing, extra)


def canonicalize(op):
    """Rewrite a logical tree into a canonical tree.

    Selects and projects are folded onto the core operator below them; the
    rewrite preserves semantics exactly (selects commute with projects via
    substitution of projected expressions into the predicate).
    """
    if isinstance(op, Select):
        node = canonicalize(op.child)
        if node.projection is None:
            predicate = op.predicate
        else:
            mapping = {alias: expr for alias, expr in node.projection}
            predicate = substitute(op.predicate, mapping)
        return CanonicalNode(
            node.kind,
            node.payload,
            node.children,
            node.core_schema,
            _merge_filter(node.filter, predicate),
            node.projection,
        )
    if isinstance(op, Project):
        node = canonicalize(op.child)
        if node.projection is None:
            projection = tuple(op.exprs)
        else:
            mapping = {alias: expr for alias, expr in node.projection}
            projection = tuple(
                (alias, substitute(expr, mapping)) for alias, expr in op.exprs
            )
        return CanonicalNode(
            node.kind,
            node.payload,
            node.children,
            node.core_schema,
            node.filter,
            projection,
        )
    if isinstance(op, Scan):
        return CanonicalNode("scan", op.table_name, (), op.schema)
    if isinstance(op, Join):
        left = canonicalize(op.left)
        right = canonicalize(op.right)
        core_schema = left.schema.concat(right.schema)
        return CanonicalNode(
            "join", (op.left_keys, op.right_keys), (left, right), core_schema
        )
    if isinstance(op, Aggregate):
        child = canonicalize(op.child)
        return CanonicalNode(
            "aggregate", (op.group_by, op.aggs), (child,), op.schema
        )
    raise PlanError("cannot canonicalize operator %r" % (op,))


def split_conjuncts(expr):
    """Flatten an AND tree into its conjuncts."""
    if isinstance(expr, And):
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def _and_all(conjuncts):
    result = None
    for conjunct in conjuncts:
        result = conjunct if result is None else And(result, conjunct)
    return result


def _absorb_filter(node, conjunct):
    """Merge a predicate (over the node's decorated output) into its filter.

    The node's filter applies over its *core* schema (before the
    projection), so predicates arriving from above are rewritten through
    the projection mapping first.
    """
    if node.projection is not None:
        mapping = {alias: expr for alias, expr in node.projection}
        conjunct = substitute(conjunct, mapping)
    node.filter = _merge_filter(node.filter, conjunct)


def push_down_filters(node):
    """Push filter conjuncts towards the scans (standard pushdown).

    * At a join, a conjunct referencing only one child's output columns
      moves into that child (inner joins commute with selections).
    * At an aggregate, a conjunct referencing only group-by columns moves
      below the aggregate (groups are partitioned by those columns).

    The paper's Spark substrate performs this via Catalyst; without it,
    per-query plans would join unfiltered inputs and the solo-vs-shared
    work disparity that drives the evaluation would disappear.
    """
    if node.filter is not None and node.kind == "join":
        left, right = node.children
        left_width = len(left.schema)
        names = node.core_schema.names()
        left_cols = set(names[:left_width])
        right_cols = set(names[left_width:])
        kept = []
        for conjunct in split_conjuncts(node.filter):
            columns = conjunct.columns()
            if columns <= left_cols:
                _absorb_filter(left, conjunct)
            elif columns <= right_cols:
                _absorb_filter(right, conjunct)
            else:
                kept.append(conjunct)
        node.filter = _and_all(kept)
    elif node.filter is not None and node.kind == "aggregate":
        child = node.children[0]
        group_by, _ = node.payload
        group_cols = set(group_by)
        kept = []
        for conjunct in split_conjuncts(node.filter):
            if conjunct.columns() <= group_cols:
                _absorb_filter(child, conjunct)
            else:
                kept.append(conjunct)
        node.filter = _and_all(kept)
    for child in node.children:
        push_down_filters(child)
    return node


def canonicalize_optimized(op):
    """Canonicalize and push filters down -- the frontend's standard path."""
    return push_down_filters(canonicalize(op))
