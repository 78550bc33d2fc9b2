"""Incremental re-optimization of a live shared plan under query churn.

The paper optimizes a fixed batch of scheduled queries once; a
long-running service (:mod:`repro.service`) sees queries register and
deregister at runtime.  Rebuilding and recalibrating the whole plan on
every churn event wastes exactly the work sharing is supposed to save, so
this module re-runs the MQO merge and then *carries over* everything the
churn did not invalidate:

1. :func:`match_subplans` pairs the freshly merged plan's subplans with
   the previous plan's wherever the operator tree, decorations and query
   set are identical (children matched first, so the pairing respects the
   DAG).  Registering or deregistering one query only perturbs the
   subplans serving that query; everything else matches.
2. :func:`merge_with_carry` transfers calibrated node statistics onto
   matched subplans, scopes fresh calibration to the *unmatched* ones
   (the downward closure executes as a temporary plan, exactly the
   plan-repair trick :mod:`repro.core.regenerate` uses for surgery), and
   builds the new cost model over the old one's
   :class:`~repro.cost.memo.MemoPool`: a cone that matched whole has the
   signature it had before, so its memo rows are simply still there.
   Solo estimates, which are keyed by subplan id, move over via
   :meth:`repro.cost.memo.PlanCostModel.carry_solo_from`.
3. :func:`carry_paces` seeds the optimizers' one search body,
   :func:`repro.core.optimizer.search`, with the previous configuration
   (matched subplans keep their pace, fresh ones start at batch pace),
   and :func:`descend`, its ``finish`` step, lets the descending
   correction relax what churn made too eager -- a subplan-scoped
   re-search instead of a from-scratch rebuild.  The body restarts the
   model's ``time_budget`` deadline, so a re-search long after the merge
   that built the model still gets its whole budget.
"""

from ..cost.cache import node_signature
from ..cost.memo import PlanCostModel
from ..engine.calibrate import calibrate_plan
from ..mqo.merge import MQOOptimizer
from ..mqo.nodes import SharedQueryPlan
from ..obs import OBS
from .greedy import decrease_paces


class MergeOutcome:
    """A freshly merged plan plus everything carried over from its
    predecessor."""

    __slots__ = ("plan", "model", "matched", "fresh_sids")

    def __init__(self, plan, model, matched, fresh_sids):
        self.plan = plan
        self.model = model
        #: {new sid: previous-plan sid} for structurally identical subplans
        self.matched = matched
        #: new sids with no predecessor (scoped calibration ran for these)
        self.fresh_sids = fresh_sids

    def __repr__(self):
        return "MergeOutcome(%d subplans, %d matched, %d fresh)" % (
            len(self.plan.subplans), len(self.matched), len(self.fresh_sids)
        )


def match_subplans(old_plan, new_plan):
    """``{new_sid: old_sid}`` for subplans identical across a re-merge.

    Two subplans match when their operator trees -- structure,
    decorations *and* query sets -- are identical and all their child
    subplans matched (child-first traversal).  The node signature is the
    calibration cache's (:func:`repro.cost.cache.node_signature`), with
    the new plan's child refs rewritten through the matches found so far
    so sid renumbering across merges cannot break the comparison.  Query
    ids are compared as they are: a query keeps its id across re-merges
    (the service's slots are stable), so a subplan serving a newly
    arrived query matches nothing, which is exactly right -- its query
    set did change.
    """
    old_identity = {subplan.sid: subplan.sid for subplan in old_plan.subplans}
    old_index = {}
    for subplan in old_plan.topological_order():
        key = (subplan.query_mask, node_signature(subplan.root, old_identity))
        old_index.setdefault(key, []).append(subplan.sid)
    matches = {}
    for subplan in new_plan.topological_order():
        child_map = {}
        unmatched_child = False
        for child in subplan.child_subplans():
            mapped = matches.get(child.sid)
            if mapped is None:
                unmatched_child = True
                break
            child_map[child.sid] = mapped
        if unmatched_child:
            continue
        key = (subplan.query_mask, node_signature(subplan.root, child_map))
        bucket = old_index.get(key)
        if bucket:
            matches[subplan.sid] = bucket.pop(0)
    return matches


def _transfer_stats(new_root, old_root):
    """Copy calibrated statistics between structurally identical trees."""
    new_root.stats = old_root.stats
    for new_child, old_child in zip(new_root.children, old_root.children):
        _transfer_stats(new_child, old_child)


def scoped_calibration_plan(plan, fresh_sids):
    """A temporary plan over the downward closure of ``fresh_sids``.

    The subset shares ``plan``'s actual :class:`Subplan` objects, so
    calibrating it attaches statistics to the real nodes; query roots are
    empty because only per-node statistics are wanted, and matched
    descendants are included only as inputs of the fresh subplans.
    Returns ``None`` when nothing is fresh.
    """
    if not fresh_sids:
        return None
    needed = set()
    # a loop, not a self-recursive closure (which would be a reference
    # cycle through its own cell)
    stack = [s for s in plan.subplans if s.sid in fresh_sids]
    while stack:
        subplan = stack.pop()
        if subplan.sid not in needed:
            needed.add(subplan.sid)
            stack.extend(subplan.child_subplans())
    subset = [s for s in plan.subplans if s.sid in needed]
    return SharedQueryPlan(plan.catalog, subset, {}, {})


def merge_with_carry(catalog, queries, config, old_plan=None, old_model=None):
    """Merge ``queries`` into a shared plan, carrying prior optimizer state.

    A query that was in ``old_plan`` must come back under the same query
    id.  Returns a :class:`MergeOutcome`; with no prior plan this
    degrades to a plain build + full calibration (the bootstrap path).
    """
    plan = MQOOptimizer(catalog).build_shared_plan(queries)
    matched = {} if old_plan is None else match_subplans(old_plan, plan)
    fresh = sorted(s.sid for s in plan.subplans if s.sid not in matched)
    scope = scoped_calibration_plan(plan, set(fresh))
    if scope is not None:
        calibrate_plan(scope, config.stream_config)
    # last, because the scoped run re-measures the matched inputs of fresh
    # subplans: a matched subplan keeps the statistics *objects* it had,
    # and with them the cone signature its memo rows are filed under
    if matched:
        old_by_sid = {s.sid: s for s in old_plan.subplans}
        for new_sid, old_sid in matched.items():
            _transfer_stats(
                plan.subplan_by_id(new_sid).root, old_by_sid[old_sid].root
            )
    model = PlanCostModel(
        plan, config.cost_config, use_memo=config.use_memo,
        time_budget=config.time_budget,
        memo_pool=old_model.memo_pool if old_model is not None else None,
    )
    if old_model is not None:
        model.carry_solo_from(old_model, matched)
    if OBS.enabled:
        OBS.declog.log(
            "service_plan_update",
            subplans=len(plan.subplans),
            reused=sorted(matched),
            recalibrated=list(fresh),
        )
    return MergeOutcome(plan, model, matched, fresh)


def carry_paces(plan, matched, old_paces, max_pace):
    """Initial pace configuration after churn: matched subplans keep their
    previous pace, fresh ones start at batch pace 1.

    The mix can violate the parent-order invariant (a carried-over eager
    parent above a fresh batch-pace child), so parents are lowered to
    their children's pace in child-first order before the search sees the
    configuration.
    """
    old_paces = old_paces or {}
    paces = {}
    for subplan in plan.subplans:
        old_sid = matched.get(subplan.sid)
        pace = old_paces.get(old_sid, 1) if old_sid is not None else 1
        paces[subplan.sid] = max(1, min(int(pace), max_pace))
    for subplan in plan.topological_order():  # children fixed before parents
        for child in subplan.child_subplans():
            paces[subplan.sid] = min(paces[subplan.sid], paces[child.sid])
    return paces


def descend(chosen, constraints, diagnostics):
    """``finish`` step of the service's re-search: the descending
    correction (:func:`~repro.core.greedy.decrease_paces`) gives back the
    eagerness that the warm-started ascending search carried over but
    the departed or arrived queries no longer justify."""
    plan, paces, _, model = chosen
    paces, evaluation = decrease_paces(model, constraints, paces)
    return plan, paces, evaluation, model
