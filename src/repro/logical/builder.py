"""Fluent builder for logical plans.

The builder is the primary programmatic frontend::

    plan = (
        PlanBuilder.scan(catalog, "lineitem")
        .where(col("l_quantity") > 10)
        .aggregate(["l_partkey"], [agg_sum(col("l_quantity"), "sum_qty")])
        .project([("l_partkey", col("l_partkey")), ("sum_qty", col("sum_qty"))])
        .build()
    )

Every combinator returns a new builder wrapping a new immutable logical
operator, so partial plans can be reused across queries (which is exactly
what makes sub-expressions shareable).
"""

from ..errors import PlanError
from ..relational.expressions import col
from .ops import Scan, Select, Project, Join, Aggregate, Query


class PlanBuilder:
    """Wraps a :class:`~repro.logical.ops.LogicalOp` and offers combinators."""

    __slots__ = ("op",)

    def __init__(self, op):
        self.op = op

    @classmethod
    def scan(cls, catalog, table_name):
        """Start a plan from a base table registered in ``catalog``."""
        table = catalog.get(table_name)
        return cls(Scan(table.name, table.schema))

    @classmethod
    def wrap(cls, op):
        """Wrap an existing logical operator."""
        return cls(op)

    def where(self, predicate):
        """Filter rows by ``predicate``."""
        return PlanBuilder(Select(self.op, predicate))

    def project(self, exprs):
        """Project to ``[(alias, expression), ...]``.

        Plain column names are accepted as shorthand for ``(name, col(name))``.
        """
        normalized = []
        for entry in exprs:
            if isinstance(entry, str):
                normalized.append((entry, col(entry)))
            else:
                alias, expr = entry
                normalized.append((alias, expr))
        return PlanBuilder(Project(self.op, normalized))

    def join(self, other, left_keys, right_keys=None):
        """Inner equi-join with another builder or logical op."""
        if isinstance(other, PlanBuilder):
            other = other.op
        if isinstance(left_keys, str):
            left_keys = [left_keys]
        if right_keys is None:
            right_keys = left_keys
        elif isinstance(right_keys, str):
            right_keys = [right_keys]
        return PlanBuilder(Join(self.op, other, left_keys, right_keys))

    def aggregate(self, group_by, aggs):
        """Group by ``group_by`` columns and compute ``aggs``."""
        if isinstance(group_by, str):
            group_by = [group_by]
        return PlanBuilder(Aggregate(self.op, group_by, aggs))

    def build(self):
        """Return the underlying logical operator tree."""
        return self.op

    def as_query(self, query_id, name):
        """Wrap the plan into a :class:`~repro.logical.ops.Query`."""
        return Query(query_id, name, self.op)

    @property
    def schema(self):
        return self.op.schema

    def __repr__(self):
        return "PlanBuilder(%r)" % (self.op,)


def scan(catalog, table_name):
    """Module-level shorthand for :meth:`PlanBuilder.scan`."""
    return PlanBuilder.scan(catalog, table_name)


def validate_query_ids(queries):
    """Check that a query batch has unique non-negative integer ids.

    A query id is the query's bit in every bitvector of the shared plan,
    which is all the engine asks of it: ids need not be dense or start at
    0 (a long-running service keeps a query on one slot while its
    neighbours come and go).
    """
    seen = set()
    for query in queries:
        query_id = query.query_id
        if not isinstance(query_id, int) or isinstance(query_id, bool) \
                or query_id < 0:
            raise PlanError(
                "query ids are bitvector slots and must be non-negative "
                "integers; query %r has id %r" % (query.name, query_id)
            )
        if query_id in seen:
            raise PlanError(
                "query ids are bitvector slots and must be unique; id %d "
                "is used twice (second time by query %r)"
                % (query_id, query.name)
            )
        seen.add(query_id)
