"""Applying decomposition to the full plan (paper section 4.4).

After the greedy search fixes a nonuniform pace configuration, iShare
walks the shared subplans from parents to children and, for each one,
proposes a split (greedy clustering or brute force over the local
optimization of section 4.1), regenerates the plan (section 4.2), derives
a corrected, lazier pace configuration with the descending search, and
adopts the new plan iff its estimated total work is lower.  When the full
split is rejected, partial decomposition candidates (section 4.3) are
tried as a fallback.
"""

import logging

from ..cost.memo import PlanCostModel
from ..obs import OBS
from ..relational import bitvec
from .greedy import decrease_paces
from .partial import partial_cut_candidates
from .regenerate import apply_split
from .split import LocalSplitOptimizer

logger = logging.getLogger(__name__)


def total_missed_final_work(evaluation, constraints):
    """Sum of constraint violations: how infeasible a configuration is."""
    return sum(
        max(0.0, evaluation.query_final_work.get(qid, 0.0) - bound)
        for qid, bound in constraints.items()
    )


def _improves(new_eval, old_eval, constraints, epsilon=1e-6):
    """Feasibility-first acceptance (the paper's optimization objective).

    The problem statement minimizes total work *subject to* the final-work
    constraints, so a candidate that reduces the total missed final work
    is adopted even at higher total work; with equal feasibility, lower
    total work wins.
    """
    new_missed = total_missed_final_work(new_eval, constraints)
    old_missed = total_missed_final_work(old_eval, constraints)
    if new_missed < old_missed - epsilon:
        return True
    if new_missed > old_missed + epsilon:
        return False
    return new_eval.total_work < old_eval.total_work - epsilon


class DecompositionAction:
    """Record of one adopted decomposition step (for diagnostics)."""

    __slots__ = ("target_sid", "kind", "partitions", "work_before", "work_after")

    def __init__(self, target_sid, kind, partitions, work_before, work_after):
        self.target_sid = target_sid
        self.kind = kind
        self.partitions = partitions
        self.work_before = work_before
        self.work_after = work_after

    def __repr__(self):
        return "DecompositionAction(sp%d %s %s: %.1f -> %.1f)" % (
            self.target_sid,
            self.kind,
            [list(p) for p in self.partitions],
            self.work_before,
            self.work_after,
        )


class DecompositionOutcome:
    """The final plan, paces and evaluation after full-plan decomposition."""

    __slots__ = ("plan", "pace_config", "evaluation", "cost_model", "actions")

    def __init__(self, plan, pace_config, evaluation, cost_model, actions):
        self.plan = plan
        self.pace_config = pace_config
        self.evaluation = evaluation
        self.cost_model = cost_model
        self.actions = actions


def decompose_full_plan(plan, pace_config, absolute_constraints, max_pace,
                        cost_config=None, use_brute_force=False,
                        cost_model=None):
    """Run section 4.4 over the whole plan.

    ``cost_model`` may pass in the model already built for the greedy
    search (``cost_config`` only builds one when none is passed).  Every
    candidate plan is costed by a
    :meth:`~repro.cost.memo.PlanCostModel.sibling` of it -- same memo
    pool, so only the cones a surgery touched are re-simulated, and same
    deadline, so ``time_budget`` bounds the decomposition too.

    The pool keeps every row until the decomposition ends: a subplan is
    re-tried after each adoption, and its candidates' rows, solo rows and
    partition-cost tables are what the retry reads.  Rows are functions
    of cone content, so keeping them changes no decision.  On return, and
    on an :class:`~repro.cost.memo.OptimizationTimeout` raised midway,
    the pool is pruned once to the cones of the plan in force: the
    returned model keeps rows for the returned plan only.
    """
    current_plan = plan
    current_paces = dict(pace_config)
    model = cost_model or PlanCostModel(current_plan, cost_config)
    pool = model.memo_pool
    evaluation = model.evaluate(current_paces)
    actions = []
    declog = OBS.declog if OBS.enabled else None
    start_us = OBS.tracer.now_us() if OBS.enabled else 0.0

    worklist = [
        subplan.sid
        for subplan in reversed(current_plan.topological_order())
        if bitvec.popcount(subplan.query_mask) > 1
    ]
    try:
        while worklist:
            sid = worklist.pop(0)
            candidate = _try_subplan(
                current_plan, current_paces, model, evaluation, sid,
                absolute_constraints, max_pace, use_brute_force,
            )
            if candidate is not None and _improves(
                    candidate[3], evaluation, absolute_constraints):
                new_plan, new_paces, new_model, new_eval, action = candidate
                action.work_before = evaluation.total_work
                action.work_after = new_eval.total_work
                actions.append(action)
                logger.debug(
                    "decomposition adopted: subplan %d %s, work %.1f -> %.1f",
                    sid, action.kind, action.work_before, action.work_after,
                )
                if declog is not None:
                    declog.log(
                        "decompose_adopt", sid=sid, kind=action.kind,
                        partitions=[list(p) for p in action.partitions],
                        work_before=round(action.work_before, 4),
                        work_after=round(action.work_after, 4),
                    )
                current_plan, current_paces = new_plan, new_paces
                model, evaluation = new_model, new_eval
                # newly created shared pieces may decompose further
                fresh = [
                    subplan.sid
                    for subplan in reversed(current_plan.topological_order())
                    if bitvec.popcount(subplan.query_mask) > 1
                    and subplan.sid not in worklist
                    and subplan.sid != sid
                ]
                live = {subplan.sid for subplan in current_plan.subplans}
                worklist = fresh + [s for s in worklist if s in live]
            elif declog is not None:
                if candidate is None:
                    declog.log("decompose_reject", sid=sid, reason="no_split")
                else:
                    _, _, _, rejected_eval, rejected_action = candidate
                    declog.log(
                        "decompose_reject", sid=sid, reason="not_improving",
                        kind=rejected_action.kind,
                        work_before=round(evaluation.total_work, 4),
                        work_after=round(rejected_eval.total_work, 4),
                    )
    finally:
        # the caller keeps the returned model, and with it the pool:
        # rows of cones the plan in force no longer has go with the
        # candidates -- once, so a subplan re-tried after an adoption
        # finds the rows its earlier try simulated
        pool.retain(model.cone_signatures())
    if OBS.enabled:
        OBS.tracer.complete("optimize.decompose", start_us, {
            "adopted": len(actions),
            "total_work": round(evaluation.total_work, 2),
        })
    return DecompositionOutcome(
        current_plan, current_paces, evaluation, model, actions)


def _try_subplan(plan, paces, model, evaluation, sid, absolute_constraints,
                 max_pace, use_brute_force):
    """Best decomposition candidate for one subplan, or None."""
    # the plan in force, re-read only for its inputs: ``evaluation`` is
    # this model's evaluation of ``paces``, so nothing is re-keyed
    inputs_eval = model.evaluate(paces, collect_inputs=True, base=evaluation)
    split = _split_candidate(
        plan, paces, model, inputs_eval, sid, absolute_constraints,
        max_pace, use_brute_force,
    )
    if split is not None:
        new_plan, new_paces, new_model, new_eval, parts = split
        action = DecompositionAction(sid, "unshare", parts, 0.0, 0.0)
        return new_plan, new_paces, new_model, new_eval, action
    return _try_partial(
        plan, paces, model, sid, absolute_constraints, max_pace,
        use_brute_force, evaluation,
    )


def _try_partial(plan, paces, model, sid, absolute_constraints, max_pace,
                 use_brute_force, evaluation):
    """Partial-decomposition fallback (section 4.3)."""
    best = None
    for cut_plan, top_sid, bottom_sids in partial_cut_candidates(plan, sid):
        cut_paces = dict(paces)
        for bottom_sid in bottom_sids:
            cut_paces[bottom_sid] = paces[sid]
        cut_model = model.sibling(cut_plan)
        cut_eval = cut_model.evaluate(cut_paces, collect_inputs=True)
        split = _split_candidate(
            cut_plan, cut_paces, cut_model, cut_eval, top_sid,
            absolute_constraints, max_pace, use_brute_force,
        )
        if split is None:
            continue
        new_plan, new_paces, new_model, new_eval, parts = split
        if not _improves(new_eval, evaluation, absolute_constraints):
            continue
        if best is None or _improves(new_eval, best[3], absolute_constraints):
            action = DecompositionAction(sid, "partial", parts, 0.0, 0.0)
            best = (new_plan, new_paces, new_model, new_eval, action)
    return best


def _split_candidate(plan, paces, model, inputs_eval, sid,
                     absolute_constraints, max_pace, use_brute_force):
    """Split subplan ``sid`` of ``plan`` and re-pace the result.

    ``model`` costs ``plan`` and ``inputs_eval`` is its evaluation of
    ``paces`` with inputs collected.  The local optimizer of section 4.1
    proposes the split (greedy clustering or brute force); the plan is
    regenerated (section 4.2) and the descending search corrects its
    inherited paces.  Returns ``(plan, paces, model, evaluation,
    partitions)`` of the split plan, or None when no split is proposed.
    """
    target = plan.subplan_by_id(sid)
    input_stats = inputs_eval.subplan_inputs[sid]
    splitter = LocalSplitOptimizer(
        target, input_stats,
        model.local_constraints(target, absolute_constraints),
        max_pace, model.config,
        cost_cache=model.partition_costs(sid, input_stats),
        program=model.programs[sid],
    )
    decision = splitter.brute_force() if use_brute_force else splitter.cluster()
    if not decision.is_split():
        return None
    parts = [part for part, _ in decision.partitions]
    new_plan, initial = apply_split(plan, paces, sid, parts)
    new_model = model.sibling(new_plan)
    new_paces, new_eval = decrease_paces(
        new_model, absolute_constraints, initial)
    return new_plan, new_paces, new_model, new_eval, parts
