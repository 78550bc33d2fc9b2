"""Pace configurations.

A *pace configuration* maps every subplan id to its pace: the number of
incremental executions over the trigger window (section 2.2).  ``P_1``
(all ones) is batch execution.  The engine requires a parent subplan's
pace to be no larger than any of its children's.

Pace configurations are only comparable when they describe the *same*
plan: after decomposition the subplan-id set changes, so helpers that
look paces up by sid raise a descriptive
:class:`~repro.errors.OptimizationError` (instead of a bare ``KeyError``)
when asked about a subplan the configuration does not cover.
"""

from ..errors import OptimizationError


def batch_configuration(plan):
    """``P_1``: every subplan at pace 1 (pure batch execution)."""
    return {subplan.sid: 1 for subplan in plan.subplans}


def uniform_configuration(plan, pace):
    """Every subplan at the same pace."""
    return {subplan.sid: pace for subplan in plan.subplans}


def _pace_of(pace_config, sid, what="pace configuration"):
    """Look up one pace; descriptive error on a missing subplan id."""
    try:
        return pace_config[sid]
    except KeyError:
        raise OptimizationError(
            "%s has no pace for subplan %r (covers sids %s); "
            "was it built for a different (e.g. pre-decomposition) plan?"
            % (what, sid, sorted(pace_config) or "<none>")
        ) from None


def with_pace(pace_config, sid, pace):
    """A copy of ``pace_config`` with subplan ``sid`` set to ``pace``.

    ``sid`` must already be covered -- silently *adding* a subplan would
    mask a configuration built for the wrong plan.
    """
    if sid not in pace_config:
        raise OptimizationError(
            "cannot set pace for unknown subplan %r (configuration covers "
            "sids %s)" % (sid, sorted(pace_config) or "<none>")
        )
    updated = dict(pace_config)
    updated[sid] = pace
    return updated


def is_eagerer_or_equal(eager, lazy):
    """True iff every pace in ``eager`` is >= the matching pace in ``lazy``.

    Raises :class:`OptimizationError` when the two configurations cover
    different subplan-id sets (e.g. comparing a pre-decomposition
    configuration with a post-decomposition one) -- such configurations
    describe different plans and are not comparable pace-by-pace.
    """
    if set(eager) != set(lazy):
        only_eager = sorted(set(eager) - set(lazy))
        only_lazy = sorted(set(lazy) - set(eager))
        raise OptimizationError(
            "pace configurations cover different subplan-id sets and are "
            "not comparable (only in eager: %s; only in lazy: %s); did a "
            "decomposition change the plan between them?"
            % (only_eager or "-", only_lazy or "-")
        )
    return all(eager[sid] >= pace for sid, pace in lazy.items())


def validate_parent_child(plan, pace_config):
    """Raise unless parent paces never exceed child paces."""
    for subplan in plan.subplans:
        pace = _pace_of(pace_config, subplan.sid)
        for child in plan.children_of(subplan):
            if _pace_of(pace_config, child.sid) < pace:
                raise OptimizationError(
                    "parent subplan %d pace %d exceeds child %d pace %d"
                    % (subplan.sid, pace, child.sid, pace_config[child.sid])
                )


def _subplan_of(plan, sid):
    """Resolve a subplan id; descriptive error when the plan lacks it."""
    try:
        return plan.subplan_by_id(sid)
    except Exception:
        raise OptimizationError(
            "plan has no subplan %r (has sids %s); pace helpers must be "
            "called with the plan the configuration was built for"
            % (sid, sorted(s.sid for s in plan.subplans))
        ) from None


def can_increase(plan, pace_config, sid, max_pace):
    """True if raising ``sid``'s pace by one keeps the configuration legal."""
    subplan = _subplan_of(plan, sid)
    new_pace = _pace_of(pace_config, sid) + 1
    if new_pace > max_pace:
        return False
    return all(
        _pace_of(pace_config, child.sid) >= new_pace
        for child in plan.children_of(subplan)
    )


def can_decrease(plan, pace_config, sid):
    """True if lowering ``sid``'s pace by one keeps the configuration legal."""
    new_pace = _pace_of(pace_config, sid) - 1
    if new_pace < 1:
        return False
    subplan = _subplan_of(plan, sid)
    return all(
        _pace_of(pace_config, parent.sid) <= new_pace
        for parent in plan.parents_of(subplan)
    )
