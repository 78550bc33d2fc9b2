"""Plan regeneration after decomposing a shared subplan (section 4.2).

Replacing a shared subplan with per-partition copies can break the
engine's requirement that a subplan's query set subsume its parents':
a parent spanning two partitions cannot consume either partition's buffer
alone.  Such parents are split along the partition boundaries, recursively
upward, until the requirement holds (Figure 8, middle).  Afterwards,
newly created subplans left with exactly one consumer are merged into
that consumer, removing the now-pointless materialization (Figure 8,
right: Subplan_1b + Subplan_4b -> Subplan_14b).

The function also derives the *initial* pace configuration of the new
plan per section 4.2: every new subplan inherits the pace of the subplan
it derives from, and merged subplans take the larger of the two, with
any children of the merged subplan that lag behind it raised to the same
pace (a parent may never run eagerer than a child) -- a configuration at
least as eager as the original, which the descending search then
corrects.
"""

from ..errors import OptimizationError
from ..mqo.nodes import Subplan, SubplanRef
from ..obs import OBS
from ..relational import bitvec
from .pace import validate_parent_child


def apply_split(plan, old_paces, target_sid, partitions):
    """Decompose subplan ``target_sid`` into ``partitions`` (qid tuples).

    Returns ``(new_plan, initial_paces)``.  The input ``plan`` is left
    untouched: the new plan is derived from it (:func:`copy_upward`,
    :meth:`~repro.mqo.nodes.SharedQueryPlan.derive`), and only the pieces
    and the target's ancestors are new objects.
    """
    target = plan.subplan_by_id(target_sid)
    covered = sorted(qid for part in partitions for qid in part)
    if covered != sorted(target.query_ids()):
        raise OptimizationError(
            "partitions %r do not cover subplan %d's queries %r"
            % (partitions, target_sid, target.query_ids())
        )
    if len(partitions) < 2:
        raise OptimizationError("a split needs at least two partitions")

    initial_paces = dict(old_paces)
    state = _RewriteState(plan, target, initial_paces)
    state.split(
        target, [tuple(part) for part in partitions], reason="decomposition",
    )
    state.merge_single_consumer_chains()
    new_plan = plan.derive(state.subplans, state.query_roots)
    validate_parent_child(new_plan, initial_paces)
    return new_plan, initial_paces


def copy_upward(plan, subplan, replacement):
    """``plan``'s subplans and query roots with ``subplan`` replaced.

    Returns ``(subplans, query_roots, copies)``: ``replacement`` (which
    keeps ``subplan``'s sid; ``subplan`` itself to only re-point) takes
    ``subplan``'s place, and each strict ancestor of ``subplan`` is
    replaced by a copy with the same sid whose tree reads the replacement
    and the other copies (:meth:`~repro.mqo.nodes.OpNode.rewired`: only
    the operators on the paths to those reads are new).  ``copies`` is
    the set of the ancestors' copies.  Every other subplan is ``plan``'s
    own object, in ``plan``'s order.
    """
    ancestors = set()
    frontier = [subplan]
    while frontier:
        for parent in plan.parents_of(frontier.pop()):
            if parent not in ancestors:
                ancestors.add(parent)
                frontier.append(parent)
    mapping = {subplan.sid: replacement}
    copies = set()
    for old in plan.topological_order():  # children before parents
        if old in ancestors:
            new = Subplan(old.sid, old.root.rewired(mapping), old.query_mask,
                          old.label)
            mapping[old.sid] = new
            copies.add(new)
    subplans = [mapping.get(old.sid, old) for old in plan.subplans]
    query_roots = {
        qid: mapping.get(root.sid, root)
        for qid, root in plan.query_roots.items()
    }
    return subplans, query_roots, copies


class _RewriteState:
    """The plan under surgery and its pace bookkeeping.

    ``subplans`` and ``query_roots`` start as :func:`copy_upward` of the
    target, which re-points nothing but copies every ancestor: all a
    split can change is the target and its ancestors, and those are new
    objects (``fresh``) from the start, along with every piece.  Only a
    fresh subplan is ever changed in place, so its children are read from
    its tree; the others are the input plan's own, whose child lists the
    input plan keeps.
    """

    def __init__(self, plan, target, initial_paces):
        self.plan = plan
        self.subplans, self.query_roots, self.fresh = copy_upward(
            plan, target, target)
        self.initial_paces = initial_paces
        self.next_sid = max(subplan.sid for subplan in plan.subplans) + 1

    def children_of(self, subplan):
        if subplan in self.fresh:  # its tree may have changed: read it
            return subplan.child_subplans()
        return self.plan.children_of(subplan)

    def parents_of(self, subplan):
        return [
            candidate for candidate in self.subplans
            if candidate is not subplan
            and any(child is subplan for child in self.children_of(candidate))
        ]

    def split(self, subplan, partitions, reason="parent_subsumption"):
        """Split ``subplan`` along ``partitions``; returns aligned pieces."""
        parents = self.parents_of(subplan)
        inherited_pace = self.initial_paces.pop(subplan.sid)
        if OBS.enabled:
            OBS.declog.log(
                "repair_split", sid=subplan.sid, reason=reason,
                partitions=[list(part) for part in partitions],
                inherited_pace=inherited_pace,
            )

        pieces = []
        for part in partitions:
            keep = set(part)
            piece = Subplan(
                self.next_sid,
                subplan.root.clone(keep_queries=keep),
                bitvec.mask_of(part),
                label="%s/%s" % (subplan.label, "+".join("q%d" % q for q in part)),
            )
            self.next_sid += 1
            self.fresh.add(piece)
            self.initial_paces[piece.sid] = inherited_pace
            pieces.append((keep, piece))

        self.subplans.remove(subplan)
        self.subplans.extend(piece for _, piece in pieces)
        for qid, root in list(self.query_roots.items()):
            if root is subplan:
                self.query_roots[qid] = next(
                    piece for keep, piece in pieces if qid in keep
                )

        for parent in parents:
            parent_qids = set(parent.query_ids())
            overlaps = [
                (keep & parent_qids, piece)
                for keep, piece in pieces
                if keep & parent_qids
            ]
            if len(overlaps) == 1:
                _retarget_refs(parent.root, subplan.sid, overlaps[0][1])
            else:
                parent_parts = [tuple(sorted(qids)) for qids, _ in overlaps]
                parent_pieces = self.split(parent, parent_parts)
                for (_, source_piece), (_, parent_piece) in zip(overlaps, parent_pieces):
                    _retarget_refs(parent_piece.root, subplan.sid, source_piece)
        return pieces

    def merge_single_consumer_chains(self):
        """Inline new subplans whose buffer has exactly one consumer.

        Mergeable when: created by this surgery, not a query root,
        exactly one parent, equal query masks, referenced by exactly one
        undecorated source leaf of that parent.  The merged subplan keeps
        the larger of the two paces (section 4.2, step 2); the parent's
        *other* children may be lazier than that and are raised with it.
        """
        initial_paces = self.initial_paces
        # built once and patched per merge
        parents_of = {subplan: [] for subplan in self.subplans}
        for subplan in self.subplans:
            for child in self.children_of(subplan):
                parents_of[child].append(subplan)
        changed = True
        while changed:
            changed = False
            for child in list(self.subplans):
                if child not in self.fresh:
                    continue
                if any(root is child for root in self.query_roots.values()):
                    continue
                parents = parents_of[child]
                if len(parents) != 1:
                    continue
                parent = parents[0]
                if parent.query_mask != child.query_mask:
                    continue
                leaves = [
                    node
                    for node in parent.root.source_nodes()
                    if isinstance(node.ref, SubplanRef) and node.ref.subplan is child
                ]
                if len(leaves) != 1:
                    continue
                leaf = leaves[0]
                if leaf.filters or leaf.projections:
                    continue
                grandchildren = self.children_of(child)
                if leaf is parent.root:
                    parent.root = child.root
                else:
                    _replace_child(parent.root, leaf, child.root)
                self.subplans.remove(child)
                # the child's inputs are the parent's now
                for grandchild in grandchildren:
                    consumers = parents_of[grandchild]
                    consumers.remove(child)
                    if parent not in consumers:
                        consumers.append(parent)
                child_pace = initial_paces.pop(child.sid)
                merged_pace = max(initial_paces[parent.sid], child_pace)
                initial_paces[parent.sid] = merged_pace
                raised = self._raise_lagging_children(parent, merged_pace)
                if OBS.enabled:
                    OBS.declog.log(
                        "repair_merge", child_sid=child.sid, parent_sid=parent.sid,
                        merged_pace=merged_pace, raised=raised,
                    )
                changed = True
                break

    def _raise_lagging_children(self, subplan, pace):
        """Raise every descendant of ``subplan`` lazier than ``pace`` to it.

        Returns the raised sids.  A descendant already at ``pace`` or above
        shields its own cone (its children are at least as eager as it is).
        """
        paces = self.initial_paces
        raised = []
        for child in self.children_of(subplan):
            if paces[child.sid] < pace:
                paces[child.sid] = pace
                raised.append(child.sid)
                raised.extend(self._raise_lagging_children(child, pace))
        return raised


def _retarget_refs(root, old_sid, new_subplan):
    for node in root.walk():
        if node.kind == "source" and isinstance(node.ref, SubplanRef):
            if node.ref.subplan.sid == old_sid:
                node.ref = SubplanRef(new_subplan)


def _replace_child(root, old_node, new_node):
    for node in root.walk():
        for index, child in enumerate(node.children):
            if child is old_node:
                node.children[index] = new_node
                return
    raise OptimizationError("node to replace not found in subplan tree")
