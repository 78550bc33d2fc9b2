"""Shared-plan data structures: operator nodes, subplans, the plan DAG.

A :class:`SharedQueryPlan` is a DAG of :class:`Subplan` objects.  Each
subplan owns a tree of :class:`OpNode` operators; the tree's leaves are
*source* nodes referencing either a base table (:class:`TableRef`) or a
child subplan's materialization buffer (:class:`SubplanRef`).  Subplan
boundaries sit exactly where an operator's output is consumed by more than
one parent (paper section 2.2), and the engine requires the query set of a
subplan to subsume the query sets of its parents.

Per the SharedDB execution model, every node carries per-query decorations:

* ``filters`` -- ``{query_id: predicate}``; a query absent from the dict
  does not filter at this node.  In a shared subplan these act as *marking*
  selects (sigma-star in the paper's Figure 2): they clear the query's bit
  instead of dropping the tuple, unless no query wants the tuple at all.
* ``projections`` -- ``{query_id: ((alias, expr), ...)}``; the physical
  operator computes the *union* of all projections (merged projects union
  their expressions, section 2.3).
"""

from ..errors import PlanError
from ..relational import bitvec
from ..relational.schema import Schema, Column

_NODE_COUNTER = [0]


def _next_uid():
    _NODE_COUNTER[0] += 1
    return _NODE_COUNTER[0]


class TableRef:
    """A source leaf reading a base table's delta log."""

    __slots__ = ("name", "schema")

    def __init__(self, name, schema):
        self.name = name
        self.schema = schema

    def key(self):
        return ("table", self.name)

    def __repr__(self):
        return "TableRef(%r)" % self.name


class SubplanRef:
    """A source leaf reading a child subplan's materialization buffer."""

    __slots__ = ("subplan",)

    def __init__(self, subplan):
        self.subplan = subplan

    @property
    def schema(self):
        return self.subplan.output_schema

    def key(self):
        return ("subplan", self.subplan.sid)

    def __repr__(self):
        return "SubplanRef(subplan=%d)" % self.subplan.sid


class OpNode:
    """One core operator with per-query filter/projection decorations."""

    __slots__ = (
        "uid",
        "kind",
        "ref",
        "left_keys",
        "right_keys",
        "group_by",
        "aggs",
        "children",
        "filters",
        "projections",
        "stats",
        "query_mask",
        "__weakref__",
    )

    def __init__(self, kind, children=(), ref=None, left_keys=None, right_keys=None,
                 group_by=None, aggs=None, filters=None, projections=None, stats=None,
                 query_mask=0):
        if kind not in ("source", "join", "aggregate"):
            raise PlanError("unknown OpNode kind %r" % (kind,))
        self.uid = _next_uid()
        self.kind = kind
        self.children = list(children)
        self.ref = ref
        self.left_keys = tuple(left_keys) if left_keys else None
        self.right_keys = tuple(right_keys) if right_keys else None
        self.group_by = tuple(group_by) if group_by is not None else None
        self.aggs = tuple(aggs) if aggs is not None else None
        self.filters = dict(filters) if filters else {}
        self.projections = dict(projections) if projections else {}
        self.stats = stats
        # the queries this operator serves; decides whether the union
        # projection must keep identity columns for non-projecting queries
        self.query_mask = query_mask or self.node_mask()
        if kind == "source" and ref is None:
            raise PlanError("source node needs a ref")
        if kind == "join" and (len(self.children) != 2 or not self.left_keys):
            raise PlanError("join node needs two children and key lists")
        if kind == "aggregate" and (len(self.children) != 1 or not self.aggs):
            raise PlanError("aggregate node needs one child and agg specs")

    # -- schemas -----------------------------------------------------------

    @property
    def core_schema(self):
        """Schema produced by the core operator, before decorations."""
        if self.kind == "source":
            return self.ref.schema
        if self.kind == "join":
            return self.children[0].out_schema.concat(self.children[1].out_schema)
        child_schema = self.children[0].out_schema
        columns = [child_schema.column(name) for name in self.group_by]
        columns += [Column(spec.alias) for spec in self.aggs]
        return Schema(tuple(columns))

    @property
    def out_schema(self):
        """Schema after the union projection (input schema of the parent)."""
        union = self.union_projection()
        if union is None:
            return self.core_schema
        return Schema(tuple(Column(alias) for alias, _ in union))

    def union_projection(self):
        """The ordered union of per-query projections, or None for identity.

        If any participating query has no projection at this node, the
        union must keep every core column (identity) and append the extra
        computed aliases of the projecting queries.  Conflicting aliases
        (same name, different expression signature) raise
        :class:`~repro.errors.PlanError`; the MQO merge avoids creating
        them by splitting incompatible queries apart.
        """
        if not self.projections:
            return None
        entries = []
        seen = {}

        def add(alias, expr):
            signature = expr.signature()
            if alias in seen:
                if seen[alias] != signature:
                    raise PlanError(
                        "conflicting projection alias %r at node %d" % (alias, self.uid)
                    )
                return
            seen[alias] = signature
            entries.append((alias, expr))

        from ..relational.expressions import col

        all_queries_project = all(
            qid in self.projections for qid in bitvec.iter_bits(self.query_mask)
        )
        if not all_queries_project:
            for column in self.core_schema:
                add(column.name, col(column.name))
        for qid in sorted(self.projections):
            for alias, expr in self.projections[qid]:
                add(alias, expr)
        return tuple(entries)

    def node_mask(self):
        """Union of query ids appearing in decorations (may be 0).

        The authoritative query set of a node is its owning subplan's
        ``query_mask``; this helper only reports which queries decorate.
        """
        mask = bitvec.mask_of(self.filters.keys())
        mask |= bitvec.mask_of(self.projections.keys())
        return mask

    # -- structure ---------------------------------------------------------

    def walk(self):
        """This node and all descendants within the subplan, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def source_nodes(self):
        """All source leaves of this tree."""
        return [node for node in self.walk() if node.kind == "source"]

    # -- copying / restriction ----------------------------------------------

    def copy(self, children=None, ref=None):
        """A new node like this one with other ``children`` or ``ref``;
        decorations, statistics and query mask are this node's."""
        return OpNode(
            self.kind,
            children=self.children if children is None else children,
            ref=self.ref if ref is None else ref,
            left_keys=self.left_keys,
            right_keys=self.right_keys,
            group_by=self.group_by,
            aggs=self.aggs,
            filters=self.filters,
            projections=self.projections,
            stats=self.stats,
            query_mask=self.query_mask,
        )

    def rewired(self, ref_mapping):
        """This tree with every source leaf reading a subplan whose sid is
        a key of ``ref_mapping`` pointed at ``ref_mapping[sid]`` instead.

        Only the nodes on the paths from this node to those leaves are
        copies; every other node is shared with this tree.
        """
        if self.kind == "source":
            ref = self.ref
            if isinstance(ref, SubplanRef) and ref.subplan.sid in ref_mapping:
                return self.copy(ref=SubplanRef(ref_mapping[ref.subplan.sid]))
            return self
        children = [child.rewired(ref_mapping) for child in self.children]
        if all(new is old for new, old in zip(children, self.children)):
            return self
        return self.copy(children=children)

    def clone(self, ref_mapping=None, keep_queries=None):
        """Deep-copy this tree.

        ``ref_mapping`` remaps :class:`SubplanRef` targets (old subplan ->
        new subplan).  ``keep_queries`` restricts decorations to a query-id
        set (used when decomposing a shared subplan into partitions).
        Statistics objects are shared by reference: a decomposed copy of an
        operator keeps the calibrated statistics of the original.
        """
        ref = self.ref
        if ref is not None and isinstance(ref, SubplanRef) and ref_mapping:
            target = ref_mapping.get(ref.subplan.sid)
            if target is not None:
                ref = SubplanRef(target)
        filters = self.filters
        projections = self.projections
        query_mask = self.query_mask
        if keep_queries is not None:
            filters = {q: p for q, p in filters.items() if q in keep_queries}
            projections = {q: p for q, p in projections.items() if q in keep_queries}
            query_mask &= bitvec.mask_of(keep_queries)
        return OpNode(
            self.kind,
            children=[c.clone(ref_mapping, keep_queries) for c in self.children],
            ref=ref,
            left_keys=self.left_keys,
            right_keys=self.right_keys,
            group_by=self.group_by,
            aggs=self.aggs,
            filters=filters,
            projections=projections,
            stats=self.stats,
            query_mask=query_mask,
        )

    def __repr__(self):
        if self.kind == "source":
            return "OpNode(source %r)" % (self.ref,)
        if self.kind == "join":
            return "OpNode(join %s=%s)" % (list(self.left_keys), list(self.right_keys))
        return "OpNode(aggregate by=%s)" % (list(self.group_by),)


class Subplan:
    """A pace-schedulable unit: an operator tree between buffer boundaries."""

    __slots__ = ("sid", "root", "query_mask", "label", "__weakref__")

    def __init__(self, sid, root, query_mask, label=""):
        self.sid = sid
        self.root = root
        self.query_mask = query_mask
        self.label = label or ("subplan%d" % sid)

    @property
    def output_schema(self):
        return self.root.out_schema

    def source_refs(self):
        """The (deduplicated, ordered) refs of this subplan's source leaves."""
        seen = set()
        refs = []
        for node in self.root.source_nodes():
            key = node.ref.key()
            if key not in seen:
                seen.add(key)
                refs.append(node.ref)
        return refs

    def child_subplans(self):
        """Child subplans this subplan consumes from."""
        return [ref.subplan for ref in self.source_refs() if isinstance(ref, SubplanRef)]

    def base_tables(self):
        """Names of base tables this subplan scans."""
        return [ref.name for ref in self.source_refs() if isinstance(ref, TableRef)]

    def operator_count(self):
        return sum(1 for _ in self.root.walk())

    def query_ids(self):
        return bitvec.to_ids(self.query_mask)

    def __repr__(self):
        return "Subplan(%d, %s, queries=%s)" % (
            self.sid,
            self.label,
            bitvec.format_mask(self.query_mask),
        )


class SharedQueryPlan:
    """The full DAG of subplans for a batch of scheduled queries.

    A plan is not mutated after construction.  A rewrite builds a new plan
    with :meth:`derive`, sharing with this one every subplan it left
    alone -- the same :class:`Subplan` and :class:`OpNode` objects -- so
    a plan keeps, per subplan object, the child list it read from that
    subplan's tree, and a derived plan walks only the trees it rewrote.
    """

    def __init__(self, catalog, subplans, query_roots, queries=None):
        self.catalog = catalog
        self.subplans = list(subplans)
        self.query_roots = dict(query_roots)
        self.queries = dict(queries) if queries else {}
        self._children = {}  # Subplan -> tuple of its child subplans
        self._parents = None
        self._order = None
        self.validate()

    def derive(self, subplans, query_roots):
        """A plan of this catalog and these queries over ``subplans``.

        Every subplan object this plan also holds is shared and keeps its
        child list; only the others -- the ones the caller rewrote -- are
        walked, for their child lists and for :meth:`validate`.
        """
        derived = SharedQueryPlan.__new__(SharedQueryPlan)
        derived.catalog = self.catalog
        derived.subplans = list(subplans)
        derived.query_roots = dict(query_roots)
        derived.queries = dict(self.queries)
        inherited = self._children
        derived._children = {
            subplan: inherited[subplan]
            for subplan in derived.subplans if subplan in inherited
        }
        derived._parents = None
        derived._order = None
        derived.validate()
        return derived

    # -- identity / lookup ---------------------------------------------------

    def subplan_by_id(self, sid):
        for subplan in self.subplans:
            if subplan.sid == sid:
                return subplan
        raise PlanError("no subplan with id %d" % sid)

    def query_ids(self):
        return sorted(self.query_roots)

    # -- DAG structure --------------------------------------------------------

    def children_of(self, subplan):
        """Child subplans ``subplan`` consumes from, in source-leaf order
        (:meth:`Subplan.child_subplans`, read once per subplan object)."""
        children = self._children.get(subplan)
        if children is None:
            children = self._children[subplan] = tuple(subplan.child_subplans())
        return children

    def parents_of(self, subplan):
        """Subplans that consume ``subplan``'s buffer, in plan order."""
        if self._parents is None:
            parents = {candidate: [] for candidate in self.subplans}
            for candidate in self.subplans:
                for child in self.children_of(candidate):
                    parents.setdefault(child, []).append(candidate)
            self._parents = parents
        return list(self._parents.get(subplan, ()))

    def consumer_count(self, subplan):
        """Number of consumers: parent subplans plus query outputs."""
        count = len(self.parents_of(subplan))
        count += sum(1 for root in self.query_roots.values() if root is subplan)
        return count

    def topological_order(self):
        """Subplans ordered child-first (leaves before parents)."""
        if self._order is None:
            order = []
            visited = set()
            for subplan in self.subplans:
                _visit_child_first(self, subplan, visited, order)
            self._order = tuple(order)
        return list(self._order)

    def shared_subplans(self):
        """Subplans whose query set has more than one query."""
        return [s for s in self.subplans if bitvec.popcount(s.query_mask) > 1]

    def connected_components(self):
        """Group query ids by shared-subplan connectivity.

        Share-Uniform assigns one pace per connected shared plan; two
        queries are connected when some subplan serves both.
        """
        parent = {qid: qid for qid in self.query_roots}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for subplan in self.subplans:
            ids = subplan.query_ids()
            for other in ids[1:]:
                union(ids[0], other)
        groups = {}
        for qid in self.query_roots:
            groups.setdefault(find(qid), []).append(qid)
        return [sorted(group) for group in groups.values()]

    def subplans_of_query(self, query_id):
        """All subplans participating in ``query_id``, child-first order."""
        return [
            s for s in self.topological_order() if s.query_mask & (1 << query_id)
        ]

    # -- validation ------------------------------------------------------------

    def validate(self):
        """Check the structural invariants of the execution engine.

        * every query root exists and covers its query;
        * the query set of every subplan subsumes the query sets of all of
          its parent subplans (engine requirement, section 2.2);
        * the DAG is acyclic (guaranteed by tree-of-refs construction but
          re-checked after decomposition rewrites).
        """
        sids = [s.sid for s in self.subplans]
        if len(set(sids)) != len(sids):
            raise PlanError("duplicate subplan ids: %r" % (sids,))
        known = {s.sid for s in self.subplans}
        for qid, root in self.query_roots.items():
            if root.sid not in known:
                raise PlanError("query %d roots at unknown subplan %d" % (qid, root.sid))
            if not root.query_mask & (1 << qid):
                raise PlanError(
                    "query %d not in its root subplan's query set %s"
                    % (qid, bitvec.format_mask(root.query_mask))
                )
        for subplan in self.subplans:
            for child in self.children_of(subplan):
                if child.sid not in known:
                    raise PlanError(
                        "subplan %d consumes unknown subplan %d" % (subplan.sid, child.sid)
                    )
                if not bitvec.subsumes(child.query_mask, subplan.query_mask):
                    raise PlanError(
                        "subsumption violated: subplan %d %s consumes %d %s"
                        % (
                            subplan.sid,
                            bitvec.format_mask(subplan.query_mask),
                            child.sid,
                            bitvec.format_mask(child.query_mask),
                        )
                    )
        # acyclicity: topological_order visits every subplan exactly once
        # unless a ref cycle makes the walk recurse forever; detect it.
        self._check_acyclic()

    def _check_acyclic(self):
        state = {}
        for subplan in self.subplans:
            _visit_acyclic(self, subplan, state)

    # -- copying ---------------------------------------------------------------

    def clone(self):
        """Deep copy the plan (fresh Subplan/OpNode objects, same sids).

        Statistics references on nodes are shared with the original, so a
        cloned plan can be re-costed without recalibration.
        """
        mapping = {}
        for subplan in self.topological_order():
            new_root = subplan.root.clone(ref_mapping=mapping)
            mapping[subplan.sid] = Subplan(
                subplan.sid, new_root, subplan.query_mask, subplan.label
            )
        new_subplans = [mapping[s.sid] for s in self.subplans]
        new_roots = {qid: mapping[root.sid] for qid, root in self.query_roots.items()}
        return SharedQueryPlan(self.catalog, new_subplans, new_roots, self.queries)

    def describe(self):
        """Multi-line human-readable plan summary."""
        lines = []
        for subplan in self.topological_order():
            children = ", ".join(
                "%s" % (ref.name if isinstance(ref, TableRef) else "sp%d" % ref.subplan.sid)
                for ref in subplan.source_refs()
            )
            lines.append(
                "subplan %d %s queries=%s ops=%d <- [%s]"
                % (
                    subplan.sid,
                    subplan.label,
                    bitvec.format_mask(subplan.query_mask),
                    subplan.operator_count(),
                    children,
                )
            )
        for qid in sorted(self.query_roots):
            lines.append("query q%d -> subplan %d" % (qid, self.query_roots[qid].sid))
        return "\n".join(lines)

    def __repr__(self):
        return "SharedQueryPlan(%d subplans, %d queries)" % (
            len(self.subplans),
            len(self.query_roots),
        )


# Plan walks are module-level functions rather than nested closures: a
# closure that calls itself holds its own cell, and that reference cycle
# kept every plan it walked alive until the cyclic collector found it.


def _visit_child_first(plan, subplan, visited, order):
    if subplan.sid in visited:
        return
    visited.add(subplan.sid)
    for child in plan.children_of(subplan):
        _visit_child_first(plan, child, visited, order)
    order.append(subplan)


def _visit_acyclic(plan, subplan, state):
    mark = state.get(subplan.sid)
    if mark == "done":
        return
    if mark == "active":
        raise PlanError("cycle through subplan %d" % subplan.sid)
    state[subplan.sid] = "active"
    for child in plan.children_of(subplan):
        _visit_acyclic(plan, child, state)
    state[subplan.sid] = "done"
