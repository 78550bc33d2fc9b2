"""Greedy pace-configuration search (paper sections 3.2 and 4.2).

The *ascending* search starts at batch execution ``P_1`` and repeatedly
raises the pace of the subplan with the highest incrementability until
every query meets its final-work constraint or every pace hits the max
pace ``J``.  Candidate moves that would make a parent subplan eagerer
than one of its children are filtered out.

``groups`` ties several subplans to a single pace: Share-Uniform assigns
one pace per connected shared plan, and NoShare-Uniform one pace per
query, both expressed as groups over the same search.

The *descending* search is the corrected-pace algorithm of section 4.2:
starting from a configuration at least as eager as the original, it
repeatedly lowers the pace of the subplan with the *lowest*
incrementability -- the one whose eagerness buys the least -- as long as
all constraints remain satisfied.
"""

from ..errors import OptimizationError
from ..obs import OBS
from .incrementability import INFINITE, constraints_met, incrementability, unmet_queries
from .pace import batch_configuration, with_pace


def _score_field(score):
    """JSON-safe incrementability value (infinity degrades to a string)."""
    return "inf" if score == INFINITE else round(score, 6)


class PaceSearchResult:
    """Outcome of a greedy search."""

    __slots__ = ("pace_config", "evaluation", "iterations", "met_constraints")

    def __init__(self, pace_config, evaluation, iterations, met_constraints):
        self.pace_config = pace_config
        self.evaluation = evaluation
        self.iterations = iterations
        self.met_constraints = met_constraints

    def __repr__(self):
        return "PaceSearchResult(total=%.1f, iterations=%d, met=%s)" % (
            self.evaluation.total_work,
            self.iterations,
            self.met_constraints,
        )


class PaceSearch:
    """Greedy ascending pace search over one plan's cost model."""

    def __init__(self, cost_model, constraints, max_pace, groups=None):
        self.cost_model = cost_model
        self.plan = cost_model.plan
        self.constraints = dict(constraints)
        self.max_pace = max_pace
        if groups is None:
            groups = [[subplan.sid] for subplan in self.plan.subplans]
        self.groups = [tuple(group) for group in groups]
        self._validate_groups()
        self._children = cost_model.children
        masks = {subplan.sid: subplan.query_mask for subplan in self.plan.subplans}
        self._group_queries = []
        for group in self.groups:
            mask = 0
            for sid in group:
                mask |= masks[sid]
            self._group_queries.append(mask)

    def _validate_groups(self):
        covered = [sid for group in self.groups for sid in group]
        expected = sorted(subplan.sid for subplan in self.plan.subplans)
        if sorted(covered) != expected:
            raise OptimizationError(
                "pace groups must partition the subplans: %r vs %r"
                % (sorted(covered), expected)
            )

    def _candidate(self, pace_config, group_index):
        """``(config, None)`` with ``group``'s pace raised, or ``(None, reason)``."""
        group = self.groups[group_index]
        candidate = dict(pace_config)
        for sid in group:
            new_pace = candidate[sid] + 1
            if new_pace > self.max_pace:
                return None, "at_max_pace"
            candidate[sid] = new_pace
        for sid in group:
            for child_sid in self._children[sid]:
                if candidate[child_sid] < candidate[sid]:
                    return None, "parent_order"
        return candidate, None

    def find(self, initial=None):
        """Run the greedy loop; returns a :class:`PaceSearchResult`."""
        pace_config = dict(initial) if initial else batch_configuration(self.plan)
        evaluation = self.cost_model.evaluate(pace_config)
        iterations = 0
        declog = OBS.declog if OBS.enabled else None
        start_us = OBS.tracer.now_us() if OBS.enabled else 0.0
        while True:
            if constraints_met(evaluation, self.constraints):
                return self._finish(
                    pace_config, evaluation, iterations, True, declog, start_us
                )
            if all(pace_config[sid] >= self.max_pace for sid in pace_config):
                return self._finish(
                    pace_config, evaluation, iterations, False, declog, start_us
                )
            unmet = unmet_queries(evaluation, self.constraints)
            unmet_mask = 0
            for qid in unmet:
                unmet_mask |= 1 << qid
            best = None
            best_index = None
            candidates = []  # (index, score, extra) of evaluated neighbours
            skipped = {"met_queries": 0, "at_max_pace": 0, "parent_order": 0}
            for index in range(len(self.groups)):
                # only eagerness that can still help an unmet query is
                # worth buying; groups whose queries all meet their
                # constraints are left at their current pace
                if not self._group_queries[index] & unmet_mask:
                    skipped["met_queries"] += 1
                    continue
                candidate, reason = self._candidate(pace_config, index)
                if candidate is None:
                    skipped[reason] += 1
                    continue
                candidate_eval = self.cost_model.evaluate(
                    candidate, base=evaluation)
                inc = incrementability(candidate_eval, evaluation, self.constraints)
                extra = candidate_eval.total_work - evaluation.total_work
                score = (inc, -extra)
                if declog is not None:
                    candidates.append((index, score, extra))
                if best is None or score > best[0]:
                    best = (score, candidate, candidate_eval)
                    best_index = index
            if best is None:
                if declog is not None:
                    declog.log(
                        "pace_exhausted", iteration=iterations,
                        unmet_queries=list(unmet), skipped=dict(skipped),
                    )
                return self._finish(
                    pace_config, evaluation, iterations, False, declog, start_us
                )
            score, pace_config, evaluation = best
            iterations += 1
            if declog is not None:
                self._log_move(
                    declog, iterations, best_index, score, pace_config,
                    evaluation, unmet, candidates, skipped,
                )

    def _log_move(self, declog, iteration, group_index, score, pace_config,
                  evaluation, unmet, candidates, skipped):
        """One accepted ascending move plus its outscored alternatives."""
        group = self.groups[group_index]
        for index, cand_score, extra in candidates:
            if index == group_index:
                continue
            declog.log(
                "pace_reject", iteration=iteration, reason="outscored",
                group=list(self.groups[index]),
                incrementability=_score_field(cand_score[0]),
                extra_work=round(extra, 4),
            )
        declog.log(
            "pace_move", iteration=iteration, group=list(group),
            pace=pace_config[group[0]],
            incrementability=_score_field(score[0]),
            extra_work=round(-score[1], 4),
            total_work=round(evaluation.total_work, 4),
            unmet_queries=list(unmet), skipped=dict(skipped),
        )

    def _finish(self, pace_config, evaluation, iterations, met, declog, start_us):
        if declog is not None:
            declog.log(
                "pace_search_done", iterations=iterations, met=met,
                total_work=round(evaluation.total_work, 4),
                paces=dict(pace_config),
            )
        if OBS.enabled:
            OBS.tracer.complete("optimize.pace_search", start_us, {
                "iterations": iterations, "met": met,
                "groups": len(self.groups),
            })
        return PaceSearchResult(pace_config, evaluation, iterations, met)


def decrease_paces(cost_model, constraints, initial):
    """Descending correction of an eager configuration (section 4.2).

    Repeatedly lowers the pace of the subplan with the lowest
    incrementability -- i.e. the subplan whose laziness saves the most
    total work per unit of final work given up -- while every query keeps
    meeting its constraint (if the initial configuration already misses
    constraints, moves may not increase the missed final work of any
    unmet query).
    """
    plan = cost_model.plan
    parents = cost_model.parents
    pace_config = dict(initial)
    evaluation = cost_model.evaluate(pace_config)
    initially_met = constraints_met(evaluation, constraints)
    declog = OBS.declog if OBS.enabled else None
    while True:
        best = None
        for subplan in plan.subplans:
            sid = subplan.sid
            new_pace = pace_config[sid] - 1
            if new_pace < 1:
                continue
            if any(pace_config[p] > new_pace for p in parents[sid]):
                continue
            candidate = with_pace(pace_config, sid, new_pace)
            candidate_eval = cost_model.evaluate(candidate, base=evaluation)
            saved = evaluation.total_work - candidate_eval.total_work
            if saved <= 0:
                continue
            if initially_met:
                if not constraints_met(candidate_eval, constraints):
                    continue
            else:
                # never make any query's missed final work worse
                worse = any(
                    candidate_eval.query_final_work.get(q, 0.0)
                    > max(constraints[q], evaluation.query_final_work.get(q, 0.0))
                    for q in constraints
                )
                if worse:
                    continue
            # lowest incrementability of the *current* config relative to
            # the lazier candidate: benefit lost per work saved
            inc = incrementability(evaluation, candidate_eval, constraints)
            score = (inc, -saved)
            if best is None or score < best[0]:
                best = (score, candidate, candidate_eval, sid)
        if best is None:
            if declog is not None:
                declog.log(
                    "pace_decrease_done",
                    total_work=round(evaluation.total_work, 4),
                    paces=dict(pace_config),
                )
            return pace_config, evaluation
        score, pace_config, evaluation, moved_sid = best
        if declog is not None:
            declog.log(
                "pace_decrease", sid=moved_sid, pace=pace_config[moved_sid],
                incrementability=_score_field(score[0]),
                work_saved=round(-score[1], 4),
                total_work=round(evaluation.total_work, 4),
            )
