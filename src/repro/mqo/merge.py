"""The input MQO optimizer: merging queries into a shared plan.

This reproduces the role of the shared-workload optimizer the paper uses
as its black-box input (Giannikis et al. [17]): queries are
canonicalized, common sub-expressions are identified by structural
signature, and matching subtrees are merged into shared operators whose
select/project decorations are tracked per query (SharedDB bitvector
execution).

The merged DAG is then cut into :class:`~repro.mqo.nodes.Subplan` units at
operators with more than one consumer; those operators materialize their
output into buffers that each parent consumes at its own offset.  Base
relations are buffers themselves, so *source* nodes are never shared --
they are replicated into each consuming subplan (paper section 2.2).

The two baseline plan shapes of section 5.2 are the same merge without
hash-consing, so every occurrence of a subtree is its own node:

* :func:`build_unshared_plan` -- one subplan per query (NoShare-Uniform);
* :func:`build_blocking_cut_plan` -- each query cut into subplans at
  blocking (aggregate) operators (NoShare-Nonuniform).
"""

from ..logical.builder import validate_query_ids
from ..relational import bitvec
from ..relational.expressions import col
from .canonical import canonicalize_optimized
from .nodes import OpNode, SharedQueryPlan, Subplan, SubplanRef, TableRef


class _MergedNode:
    """A node of the merged (pre-cut) DAG."""

    __slots__ = ("canonical_kind", "payload", "children", "filters",
                 "projections", "query_mask", "schema_source")

    def __init__(self, canonical_kind, payload, children, schema_source):
        self.canonical_kind = canonical_kind
        self.payload = payload
        self.children = children
        self.filters = {}
        self.projections = {}
        self.query_mask = 0
        # a representative CanonicalNode, used for core schema information
        self.schema_source = schema_source

    def add_query(self, query_id, canonical_node):
        self.query_mask |= 1 << query_id
        if canonical_node.filter is not None:
            self.filters[query_id] = canonical_node.filter
        if canonical_node.projection is not None:
            self.projections[query_id] = canonical_node.projection

    def projection_conflicts_with(self, projection):
        """True if adding ``projection`` would assign an alias two meanings."""
        if projection is None:
            return False
        incoming = {alias: expr.signature() for alias, expr in projection}
        for existing in self.projections.values():
            for alias, expr in existing:
                if alias in incoming and incoming[alias] != expr.signature():
                    return True
        return False

    def accepts(self, query_id, canonical_node):
        """True if ``canonical_node``, an occurrence in ``query_id``, may
        reuse this node.

        The node keeps one filter and one projection per query, so a
        second occurrence within a query it already serves must carry the
        same filter and a projection either decoration can stand for.
        """
        if self.projection_conflicts_with(canonical_node.projection):
            return False
        if not self.query_mask >> query_id & 1:
            return True
        return (
            _filter_signature(self.filters.get(query_id))
            == _filter_signature(canonical_node.filter)
            and _interchangeable(
                self.projections.get(query_id), canonical_node.projection,
                canonical_node.core_schema,
            )
        )


def _filter_signature(predicate):
    return None if predicate is None else predicate.signature()


def _projection_signature(projection):
    return tuple((alias, expr.signature()) for alias, expr in projection)


def _interchangeable(first, second, core_schema):
    """True if projections ``first`` and ``second`` (None is the identity)
    are equal, or one is the identity and the other passes every core
    column through under its own name."""
    if first is None and second is None:
        return True
    if first is not None and second is not None:
        return _projection_signature(first) == _projection_signature(second)
    entries = set(_projection_signature(first if second is None else second))
    return all(
        (name, col(name).signature()) in entries for name in core_schema.names()
    )


class MQOOptimizer:
    """Signature-based multi-query optimizer producing a shared plan.

    Sharing is unconditional: every common sub-expression with more than
    one consumer, however small, is materialized as a shared subplan,
    matching the paper's aggressive sharing input.

    Parameters
    ----------
    catalog:
        the table catalog scans resolve against.
    """

    def __init__(self, catalog):
        self.catalog = catalog

    def build_shared_plan(self, queries):
        """Merge ``queries`` (a list of :class:`~repro.logical.ops.Query`)."""
        return self._build(queries, share=True, cut_aggregates=False)

    def _build(self, queries, share, cut_aggregates):
        """Canonicalize, hash-cons (only if ``share``), cut, convert."""
        validate_query_ids(queries)
        merged_roots, merge_table = self._merge(queries, share)
        return self._cut(
            queries, merged_roots, merge_table, cut_aggregates, named=not share
        )

    # -- phase 1: hash-consing merge ---------------------------------------

    def _merge(self, queries, share):
        merge_table = {}
        merged_roots = {}
        for query in queries:
            canonical = canonicalize_optimized(query.root)
            merged_roots[query.query_id] = _intern(
                canonical, query.query_id, merge_table, share
            )
        return merged_roots, list(merge_table.values())

    # -- phase 2: cutting into subplans --------------------------------------

    def _cut(self, queries, merged_roots, merged_nodes, cut_aggregates, named):
        """Cut the merged DAG into subplans: at query roots, at nodes with
        more than one consumer and, if ``cut_aggregates``, at every
        aggregate.

        With ``named`` (every node serves one query) a subplan is labelled
        after its query: ``Q`` at the query's root, ``Q.partN`` below it.
        """
        consumers = {id(node): 0 for node in merged_nodes}
        for node in merged_nodes:
            for child in node.children:
                consumers[id(child)] += 1
        root_ids = set()
        for root in merged_roots.values():
            consumers[id(root)] += 1
            root_ids.add(id(root))

        def is_cut(node):
            if id(node) in root_ids:
                return True
            if node.canonical_kind == "scan":
                return False  # base relations are buffers; scans replicate
            return consumers[id(node)] > 1 or (
                cut_aggregates and node.canonical_kind == "aggregate"
            )

        cut_nodes = [node for node in merged_nodes if is_cut(node)]
        cut_ids = {id(node) for node in cut_nodes}

        # Build subplans bottom-up so SubplanRef targets exist.
        order = self._topological(cut_nodes, cut_ids)
        query_meta = {q.query_id: q for q in queries}
        subplan_of = {}
        subplans = []
        for sid, node in enumerate(order):
            root_op = self._convert(
                node, node.query_mask, node, cut_ids, subplan_of
            )
            label = ""
            if named:
                name = query_meta[bitvec.to_ids(node.query_mask)[0]].name
                label = name if id(node) in root_ids else "%s.part%d" % (name, sid)
            subplan = Subplan(sid, root_op, node.query_mask, label=label)
            subplan_of[id(node)] = subplan
            subplans.append(subplan)

        query_root_subplans = {
            qid: subplan_of[id(root)] for qid, root in merged_roots.items()
        }
        return SharedQueryPlan(self.catalog, subplans, query_root_subplans, query_meta)

    def _convert(self, node, region_mask, region_root, cut_ids, subplan_of):
        """The OpNode tree of ``region_root``'s subplan below ``node``."""
        if id(node) in cut_ids and node is not region_root:
            return OpNode(
                "source",
                ref=SubplanRef(subplan_of[id(node)]),
                query_mask=region_mask,
            )
        keep = set(bitvec.iter_bits(region_mask))
        filters = {q: p for q, p in node.filters.items() if q in keep}
        projections = {q: p for q, p in node.projections.items() if q in keep}
        if node.canonical_kind == "scan":
            table = self.catalog.get(node.payload)
            return OpNode(
                "source",
                ref=TableRef(table.name, table.schema),
                filters=filters,
                projections=projections,
                query_mask=region_mask,
            )
        children = [
            self._convert(child, region_mask, region_root, cut_ids, subplan_of)
            for child in node.children
        ]
        if node.canonical_kind == "join":
            left_keys, right_keys = node.payload
            return OpNode(
                "join",
                children=children,
                left_keys=left_keys,
                right_keys=right_keys,
                filters=filters,
                projections=projections,
                query_mask=region_mask,
            )
        group_by, aggs = node.payload
        return OpNode(
            "aggregate",
            children=children,
            group_by=group_by,
            aggs=aggs,
            filters=filters,
            projections=projections,
            query_mask=region_mask,
        )

    @staticmethod
    def _topological(cut_nodes, cut_ids):
        order = []
        done = set()
        for node in cut_nodes:
            _visit_cut(node, cut_ids, done, order)
        return order


# The merge's recursive walks are module-level functions rather than
# nested closures: a closure that calls itself holds its own cell, and
# that reference cycle kept every merged DAG alive until the cyclic
# collector found it.


def _intern(canonical_node, query_id, merge_table, share):
    """Hash-cons one canonical subtree into ``merge_table``.

    An occurrence reuses the first variant of its key that
    :meth:`_MergedNode.accepts` it; without ``share`` none does, so every
    occurrence is its own node.
    """
    children = tuple(
        _intern(child, query_id, merge_table, share)
        for child in canonical_node.children
    )
    # equal child ids already mean equal subtrees below
    base_key = (
        canonical_node.operator_key(),
        tuple(id(child) for child in children),
    )
    variant = 0
    while True:
        key = (base_key, variant)
        node = merge_table.get(key)
        if node is None:
            node = _MergedNode(
                canonical_node.kind,
                canonical_node.payload,
                children,
                canonical_node,
            )
            merge_table[key] = node
            break
        if share and node.accepts(query_id, canonical_node):
            break
        variant += 1
    node.add_query(query_id, canonical_node)
    return node


def _depends_on(node, cut_ids, acc):
    """The cut nodes directly below ``node``, left to right."""
    for child in node.children:
        if id(child) in cut_ids:
            acc.append(child)
        else:
            _depends_on(child, cut_ids, acc)


def _visit_cut(node, cut_ids, done, order):
    if id(node) in done:
        return
    done.add(id(node))
    dependencies = []
    _depends_on(node, cut_ids, dependencies)
    for dependency in dependencies:
        _visit_cut(dependency, cut_ids, done, order)
    order.append(node)


def build_unshared_plan(catalog, queries):
    """One subplan per query: the NoShare-Uniform plan shape."""
    return MQOOptimizer(catalog)._build(queries, share=False, cut_aggregates=False)


def build_blocking_cut_plan(catalog, queries):
    """Per-query subplans cut at blocking (aggregate) operators.

    This is the NoShare-Nonuniform plan shape of section 5.2: "The root of
    a subplan is either a blocking operator or the root of the query", and
    each subplan extends downward until another blocking operator or a
    base relation.
    """
    return MQOOptimizer(catalog)._build(queries, share=False, cut_aggregates=True)
