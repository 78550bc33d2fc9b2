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

from ..mqo.nodes import OpNode, SharedQueryPlan, Subplan, SubplanRef


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
    """Yield ``(new_plan, initial_pace_hint, top_sid, bottom_sids)`` tuples.

    Each candidate is a clone of ``plan`` where the target subplan has
    been broken into a *top* subplan (a BFS prefix of its operators,
    keeping the original sid) and one *bottom* subplan per excluded
    maximal subtree.  ``initial_pace_hint`` maps the new bottom sids to
    the target sid whose pace they inherit.

    Prefixes equal to the whole tree reproduce the original subplan and
    are skipped; prefixes whose top would be a bare source node are
    skipped as degenerate.
    """
    original = plan.subplan_by_id(target_sid)
    operator_count = sum(1 for _ in original.root.walk())
    for prefix_size in range(1, operator_count):
        work = plan.clone()
        target = work.subplan_by_id(target_sid)
        order = bfs_order(target.root)
        prefix = set(id(node) for node in order[:prefix_size])
        if target.root.kind == "source":
            continue
        bottom_sids = []
        _cut_below(target.root, prefix, work, target, bottom_sids)
        if not bottom_sids:
            continue  # the prefix covered the whole tree: nothing was cut
        new_plan = SharedQueryPlan(
            work.catalog, work.subplans, work.query_roots, work.queries
        )
        yield new_plan, target_sid, bottom_sids


def _cut_below(node, prefix, work, target, bottom_sids):
    """Turn every maximal subtree under ``node`` outside ``prefix`` into a
    bottom subplan of ``work``, read through a source in its place.

    A module-level function rather than a closure: a closure that calls
    itself holds its own cell, and that cycle kept every candidate plan
    alive until the cyclic collector found it.
    """
    for index, child in enumerate(node.children):
        if id(child) in prefix:
            _cut_below(child, prefix, work, target, bottom_sids)
        else:
            bottom = Subplan(
                work.next_sid(),
                child,
                target.query_mask,
                label="%s.bottom%d" % (target.label, len(bottom_sids)),
            )
            work.subplans.append(bottom)
            bottom_sids.append(bottom.sid)
            node.children[index] = OpNode(
                "source", ref=SubplanRef(bottom),
                query_mask=target.query_mask,
            )
