"""Partial decomposition: splitting only a root-sharing subtree (section 4.3).

Instead of unsharing an entire subplan, iShare can select a subtree that
contains the subplan's root, break the subplan at the subtree's frontier
(the excluded child subtrees become child subplans with the same query
set), and then split only the root subtree.  This keeps expensive lower
operators shared while the cheap-but-eager upper operators unshare.

Candidate subtrees are generated with a breadth-first expansion from the
root: each candidate adds the not-yet-included operator closest to the
root, so the number of candidates is bounded by the operator count of the
subplan (section 4.3).
"""

from collections import deque

from ..mqo.nodes import OpNode, Subplan, SubplanRef
from .regenerate import copy_upward


def bfs_order(root):
    """Nodes of a subplan tree in breadth-first order (root first)."""
    order = []
    queue = deque([root])
    while queue:
        node = queue.popleft()
        order.append(node)
        queue.extend(node.children)
    return order


def partial_cut_candidates(plan, target_sid):
    """Yield ``(new_plan, top_sid, bottom_sids)`` tuples.

    Each candidate is derived from ``plan`` with the target subplan
    broken into a *top* subplan (a BFS prefix of its operators, keeping
    the original sid) and one *bottom* subplan per excluded maximal
    subtree.  The bottoms' trees are the target's own operators; the top
    copies only the prefix operators above a cut, and the target's
    ancestors are copied to read the top (:func:`copy_upward`).  Every
    other subplan is ``plan``'s own.

    Prefixes equal to the whole tree reproduce the original subplan and
    are skipped, and a target whose root is a bare source node has no
    candidate.
    """
    target = plan.subplan_by_id(target_sid)
    if target.root.kind == "source":
        return
    order = bfs_order(target.root)
    first_sid = max(subplan.sid for subplan in plan.subplans) + 1
    for prefix_size in range(1, len(order)):
        prefix = set(id(node) for node in order[:prefix_size])
        bottoms = []
        top = Subplan(
            target_sid,
            _cut_below(target.root, prefix, target, first_sid, bottoms),
            target.query_mask,
            target.label,
        )
        subplans, query_roots, _ = copy_upward(plan, target, top)
        new_plan = plan.derive(subplans + bottoms, query_roots)
        yield new_plan, target_sid, [bottom.sid for bottom in bottoms]


def _cut_below(node, prefix, target, first_sid, bottoms):
    """``node`` with every maximal subtree under it outside ``prefix``
    turned into a bottom subplan (appended to ``bottoms``, sids from
    ``first_sid`` on), read through a new source leaf in its place.

    A node with a cut below it is a copy; every other node, and every
    bottom's tree, is shared with ``node``'s tree.  A module-level
    function rather than a closure: a closure that calls itself holds its
    own cell, and that cycle kept every candidate plan alive until the
    cyclic collector found it.
    """
    children = []
    for child in node.children:
        if id(child) in prefix:
            children.append(_cut_below(child, prefix, target, first_sid, bottoms))
            continue
        bottom = Subplan(
            first_sid + len(bottoms),
            child,
            target.query_mask,
            label="%s.bottom%d" % (target.label, len(bottoms)),
        )
        bottoms.append(bottom)
        children.append(OpNode(
            "source", ref=SubplanRef(bottom), query_mask=target.query_mask,
        ))
    if all(new is old for new, old in zip(children, node.children)):
        return node
    return node.copy(children=children)
