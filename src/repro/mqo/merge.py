"""The input MQO optimizer: merging queries into a shared plan.

This reproduces the role of the shared-workload optimizer the paper uses
as its black-box input (Giannikis et al. [17], with the materialization-
cost extension of Roy et al. [40]): queries are canonicalized, common
sub-expressions are identified by structural signature, and matching
subtrees are merged into shared operators whose select/project
decorations are tracked per query (SharedDB bitvector execution).

The merged DAG is then cut into :class:`~repro.mqo.nodes.Subplan` units at
operators with more than one consumer; those operators materialize their
output into buffers that each parent consumes at its own offset.  Base
relations are buffers themselves, so *source* nodes are never shared --
they are replicated into each consuming subplan (paper section 2.2).

The module also provides the two baseline plan shapes of section 5.2:

* :func:`build_unshared_plan` -- one subplan per query (NoShare-Uniform);
* :func:`build_blocking_cut_plan` -- each query cut into subplans at
  blocking (aggregate) operators (NoShare-Nonuniform).
"""

from ..errors import PlanError
from ..logical.builder import validate_query_ids
from ..relational import bitvec
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


class MQOOptimizer:
    """Signature-based multi-query optimizer producing a shared plan.

    Parameters
    ----------
    catalog:
        the table catalog scans resolve against.
    min_shared_operators:
        a sharing gate approximating the materialization-cost check of
        [40]: a common sub-expression is only materialized as a shared
        subplan if it contains at least this many core operators (sharing
        a lone scan or trivial expression costs more in buffer
        materialization than it saves).  Default 1 shares everything
        sharable, matching the paper's aggressive sharing input.
    """

    def __init__(self, catalog, min_shared_operators=1):
        self.catalog = catalog
        self.min_shared_operators = min_shared_operators

    def build_shared_plan(self, queries):
        """Merge ``queries`` (a list of :class:`~repro.logical.ops.Query`)."""
        validate_query_ids(queries)
        merged_roots, merge_table = self._merge(queries)
        return self._cut(queries, merged_roots, merge_table)

    # -- phase 1: hash-consing merge ---------------------------------------

    def _merge(self, queries):
        merge_table = {}
        merged_roots = {}
        for query in queries:
            canonical = canonicalize_optimized(query.root)
            merged_roots[query.query_id] = _intern(
                canonical, query.query_id, merge_table
            )
        return merged_roots, list(merge_table.values())

    # -- phase 2: cutting into subplans --------------------------------------

    def _cut(self, queries, merged_roots, merged_nodes):
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
            if consumers[id(node)] <= 1:
                return False
            return self._operator_weight(node) >= self.min_shared_operators

        cut_nodes = [node for node in merged_nodes if is_cut(node)]
        cut_ids = {id(node) for node in cut_nodes}

        # Build subplans bottom-up so SubplanRef targets exist.
        order = self._topological(cut_nodes, cut_ids)
        subplan_of = {}
        subplans = []
        for sid, node in enumerate(order):
            root_op = self._convert(
                node, node.query_mask, node, cut_ids, subplan_of
            )
            subplan = Subplan(sid, root_op, node.query_mask)
            subplan_of[id(node)] = subplan
            subplans.append(subplan)

        query_root_subplans = {
            qid: subplan_of[id(root)] for qid, root in merged_roots.items()
        }
        query_meta = {q.query_id: q for q in queries}
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
    def _operator_weight(node):
        """Core-operator count of the subtree rooted at ``node``."""
        weight = 0 if node.canonical_kind == "scan" else 1
        return weight + sum(
            MQOOptimizer._operator_weight(child) for child in node.children
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


def _intern(canonical_node, query_id, merge_table):
    """Hash-cons one canonical subtree into ``merge_table``."""
    children = tuple(
        _intern(child, query_id, merge_table)
        for child in canonical_node.children
    )
    base_key = (
        canonical_node.structure_key(),
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
        if not node.projection_conflicts_with(canonical_node.projection):
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


def _tree_to_opnode(catalog, canonical_node, query_id, cut_at_aggregates, out):
    """Convert one query's canonical tree to OpNodes, optionally cutting.

    ``out`` is a list collecting ``(OpNode_root, is_aggregate_cut)`` pairs
    for the blocking-cut builder; the returned value is the OpNode for the
    current position (a SubplanRef placeholder is installed later).
    """
    filters = {}
    projections = {}
    if canonical_node.filter is not None:
        filters[query_id] = canonical_node.filter
    if canonical_node.projection is not None:
        projections[query_id] = canonical_node.projection
    mask = 1 << query_id
    if canonical_node.kind == "scan":
        table = catalog.get(canonical_node.payload)
        return OpNode(
            "source",
            ref=TableRef(table.name, table.schema),
            filters=filters,
            projections=projections,
            query_mask=mask,
        )
    children = []
    for child in canonical_node.children:
        child_op = _tree_to_opnode(catalog, child, query_id, cut_at_aggregates, out)
        if cut_at_aggregates and child.kind == "aggregate":
            out.append(child_op)
            child_op = OpNode("source", ref=_PendingRef(child_op), query_mask=mask)
        children.append(child_op)
    if canonical_node.kind == "join":
        left_keys, right_keys = canonical_node.payload
        return OpNode(
            "join",
            children=children,
            left_keys=left_keys,
            right_keys=right_keys,
            filters=filters,
            projections=projections,
            query_mask=mask,
        )
    group_by, aggs = canonical_node.payload
    return OpNode(
        "aggregate",
        children=children,
        group_by=group_by,
        aggs=aggs,
        filters=filters,
        projections=projections,
        query_mask=mask,
    )


class _PendingRef:
    """Placeholder ref resolved to a SubplanRef once subplans exist."""

    def __init__(self, root_op):
        self.root_op = root_op

    @property
    def schema(self):
        return self.root_op.out_schema

    def key(self):
        return ("pending", id(self.root_op))


def build_unshared_plan(catalog, queries):
    """One subplan per query: the NoShare-Uniform plan shape."""
    validate_query_ids(queries)
    subplans = []
    query_roots = {}
    for sid, query in enumerate(queries):
        canonical = canonicalize_optimized(query.root)
        root_op = _tree_to_opnode(catalog, canonical, query.query_id, False, [])
        subplan = Subplan(sid, root_op, 1 << query.query_id, label=query.name)
        subplans.append(subplan)
        query_roots[query.query_id] = subplan
    query_meta = {q.query_id: q for q in queries}
    return SharedQueryPlan(catalog, subplans, query_roots, query_meta)


def build_blocking_cut_plan(catalog, queries):
    """Per-query subplans cut at blocking (aggregate) operators.

    This is the NoShare-Nonuniform plan shape of section 5.2: "The root of
    a subplan is either a blocking operator or the root of the query", and
    each subplan extends downward until another blocking operator or a
    base relation.
    """
    validate_query_ids(queries)
    subplans = []
    query_roots = {}
    sid = 0
    for query in queries:
        canonical = canonicalize_optimized(query.root)
        inner_roots = []
        root_op = _tree_to_opnode(catalog, canonical, query.query_id, True, inner_roots)
        mask = 1 << query.query_id
        built = {}
        for op in inner_roots:  # collected bottom-up: children precede parents
            subplan = Subplan(sid, op, mask, label="%s.part%d" % (query.name, sid))
            sid += 1
            built[id(op)] = subplan
            subplans.append(subplan)
        root_subplan = Subplan(sid, root_op, mask, label=query.name)
        sid += 1
        subplans.append(root_subplan)
        for subplan in subplans:
            _resolve_pending(subplan.root, built)
        query_roots[query.query_id] = root_subplan
    query_meta = {q.query_id: q for q in queries}
    return SharedQueryPlan(catalog, subplans, query_roots, query_meta)


def _resolve_pending(op, built):
    if op.kind == "source" and isinstance(op.ref, _PendingRef):
        target = built.get(id(op.ref.root_op))
        if target is None:
            raise PlanError("unresolved pending subplan reference")
        op.ref = SubplanRef(target)
    for child in op.children:
        _resolve_pending(child, built)
