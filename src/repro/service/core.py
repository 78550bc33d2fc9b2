"""The long-running query service: a live shared plan under churn.

One :class:`QueryService` owns one shared plan for the lifetime of the
process.  Tenants register and deregister queries at runtime, each with
its own relative latency goal; simulated data arrival fires trigger
windows; between the two the optimizer re-optimizes *incrementally*
(:mod:`repro.core.incremental`) -- matched subplans keep their calibrated
statistics, memo rows and paces, and only the subplans whose query sets
changed are recalibrated and re-searched.

Admission control evaluates every registration before adopting it: a
goal that cannot be met even at maximum eagerness under the current load
is provably unsatisfiable under the cost model and is rejected.
Per-tenant fairness is enforced through work budgets: a tenant's
registrations may not demand more estimated solo work per window than
its budget.  Admission is then re-checked against measurement: a query
whose first window misses its goal is re-run at maximum eagerness on
that window's data, and if it still misses there it is rejected as
``measured_unsatisfiable`` instead of missing silently for the rest of
its life.
Every query turned away as unsatisfiable is also run alone -- its own
unshared plan at ``P_max`` on the catalog the verdict was reached on --
and its decision records whether that meets the goal
(``AdmissionDecision.meets_alone``), next to the cost model's estimate
of the same run (``alone_estimate``); neither changes a status.

Statistics are calibrated once, against the service's *basis* window
(the first window's data; paper section 3.2,
:func:`~repro.engine.calibrate.calibrate_plan`).
"""

import itertools

from ..core.incremental import carry_paces, descend, merge_with_carry
from ..core.optimizer import OptimizerConfig, search
from ..core.pace import uniform_configuration
from ..engine.executor import PlanExecutor
from ..engine.metrics import missed_latency
from ..errors import OptimizationError, ServiceError
from ..logical.ops import Query
from ..mqo.merge import build_unshared_plan
from ..obs import OBS
from ..obs.attribution import AttributionLedger
from ..obs.slack import SlackLedger


class Registration:
    """One tenant's live query with its latency goal.

    ``margin`` is the query's learned goal margin: the pace search holds
    it to ``bound / (1 + margin)``.  It starts at 0 and only grows, to
    the measured over the estimated final work less one, after a window
    the query missed; goals, the slack ledger and miss counts keep the
    real bound.
    """

    __slots__ = ("query_id", "tenant", "name", "query", "relative_goal",
                 "registered_window", "margin")

    def __init__(self, query_id, tenant, query, relative_goal, registered_window):
        self.query_id = query_id
        self.tenant = tenant
        self.name = getattr(query, "name", None) or "q%d" % query_id
        self.query = query
        self.relative_goal = relative_goal
        self.registered_window = registered_window
        self.margin = 0.0

    def __repr__(self):
        return "Registration(q%d, tenant=%s, goal=%g)" % (
            self.query_id, self.tenant, self.relative_goal
        )


class AdmissionDecision:
    """The audit record of one registration attempt.

    ``meets_alone`` answers, for a query turned away as unsatisfiable
    (``goal_unsatisfiable`` or ``measured_unsatisfiable``), whether its
    own unshared plan at ``P_max`` meets the goal on the same catalog;
    ``alone_estimate`` is the cost model's final work for the query
    alone at ``P_max`` (:meth:`~repro.cost.memo.PlanCostModel.solo_final`).
    Both are None for every other decision.
    """

    __slots__ = ("query_id", "tenant", "status", "reason", "window",
                 "meets_alone", "alone_estimate")

    def __init__(self, query_id, tenant, status, reason, window,
                 meets_alone=None, alone_estimate=None):
        self.query_id = query_id
        self.tenant = tenant
        self.status = status  # admitted | rejected
        self.reason = reason
        self.window = window
        self.meets_alone = meets_alone
        self.alone_estimate = alone_estimate

    def to_dict(self):
        return {
            "query_id": self.query_id,
            "tenant": self.tenant,
            "status": self.status,
            "reason": self.reason,
            "window": self.window,
            "meets_alone": self.meets_alone,
            "alone_estimate": self.alone_estimate,
        }

    def __repr__(self):
        return "AdmissionDecision(q%d %s: %s)" % (
            self.query_id, self.status, self.reason
        )


class TriggerOutcome:
    """What one trigger window produced, JSON-navigable via :meth:`to_dict`."""

    __slots__ = ("window", "total_work", "queries", "tenants", "reoptimized",
                 "run", "slack", "attribution", "conserved")

    def __init__(self, window, total_work, queries, tenants, reoptimized,
                 run=None, slack=None, attribution=None, conserved=True):
        self.window = window
        self.total_work = total_work
        #: {qid: {tenant, name, latency/goal seconds, missed}}
        self.queries = queries
        #: {tenant: {work, queries, slo_misses}}
        self.tenants = tenants
        self.reoptimized = reoptimized
        self.run = run  # the raw RunResult (not serialized)
        #: {qid: slack-ledger entry} (headroom, deferral)
        self.slack = slack or {}
        #: {qid: attributed work} -- solo-cost-proportional, conservation-exact
        self.attribution = attribution or {}
        self.conserved = conserved

    def to_dict(self):
        return {
            "window": self.window,
            "total_work": self.total_work,
            "reoptimized": self.reoptimized,
            "queries": {str(qid): dict(q) for qid, q in sorted(self.queries.items())},
            "tenants": {t: dict(v) for t, v in sorted(self.tenants.items())},
            "slack": {
                str(qid): dict(entry)
                for qid, entry in sorted(self.slack.items())
            },
            "attribution": {
                "conserved": self.conserved,
                "queries": {
                    str(qid): work
                    for qid, work in sorted(self.attribution.items())
                },
            },
        }

    def __repr__(self):
        return "TriggerOutcome(window=%d, work=%.1f, queries=%d)" % (
            self.window, self.total_work, len(self.queries)
        )


class _WindowRun:
    """What one window ran on -- plan, slots, catalog -- and, measured
    once on first demand, the same plan's run at uniform ``P_max`` and
    each asked-about query's run alone."""

    __slots__ = ("window", "plan", "slots", "catalog", "_final_at_max",
                 "_final_alone")

    def __init__(self, window, plan, slots, catalog):
        self.window = window
        self.plan = plan
        self.slots = slots
        self.catalog = catalog
        self._final_at_max = None
        self._final_alone = {}  # qid -> final work of its own plan

    def classify(self, config, missed):
        """Split the missed queries of ``missed`` (``{qid: goal
        seconds}``) three ways.

        A query that meets its goal with every subplan of this plan at
        ``P_max`` is *avoidable*; one that still misses there is *late*,
        and is *isolable* if it meets the goal alone
        (:meth:`meets_alone`), *infeasible* otherwise.  Returns ``(split,
        late)``: ``split`` maps each kind to its qids in ``missed``'s
        order, ``late`` each late query's final work at ``P_max``.
        """
        if self._final_at_max is None:
            eager = PlanExecutor(
                self.plan, config.stream_config, catalog=self.catalog
            ).run(
                uniform_configuration(self.plan, config.max_pace),
                collect_results=False,
            )
            self._final_at_max = eager.query_final_work
        seconds = config.stream_config.seconds
        split = {"avoidable": [], "isolable": [], "infeasible": []}
        late = {}
        for qid, goal in missed.items():
            final = self._final_at_max.get(self.slots[qid], 0.0)
            if missed_latency(seconds(final), goal)[0] <= 0:
                kind = "avoidable"
            else:
                late[qid] = final
                alone = self.meets_alone(config, qid, goal)
                kind = "isolable" if alone else "infeasible"
            split[kind].append(qid)
        return split, late

    def meets_alone(self, config, qid, goal):
        """Whether query ``qid`` meets ``goal`` (seconds) on this window's
        catalog in its own unshared plan, every subplan at ``P_max``."""
        final = self._final_alone.get(qid)
        if final is None:
            slot = self.slots[qid]
            plan = build_unshared_plan(self.catalog, [self.plan.queries[slot]])
            alone = PlanExecutor(
                plan, config.stream_config, catalog=self.catalog
            ).run(
                uniform_configuration(plan, config.max_pace),
                collect_results=False,
            )
            final = self._final_alone[qid] = alone.query_final_work[slot]
        seconds = config.stream_config.seconds
        return missed_latency(seconds(final), goal)[0] <= 0


class QueryService:
    """A long-running scheduler owning one live shared plan.

    Parameters
    ----------
    make_catalog:
        ``window -> Catalog`` factory for each trigger window's data
        (same schemas, fresh rows).  Window 0 doubles as the calibration
        basis.
    config:
        an :class:`~repro.core.optimizer.OptimizerConfig`; its stream
        config drives execution and the work-to-seconds conversion.
    admission:
        the admission policy; ``"reject"``, the only one, turns away an
        inadmissible registration, or a live query whose first window
        proves it ``measured_unsatisfiable``, for good.
    tenant_budgets:
        optional ``{tenant: work_units}`` fairness budgets; a tenant's
        live queries may not demand more estimated solo batch work than
        its budget.
    """

    def __init__(self, make_catalog, config=None, admission="reject",
                 tenant_budgets=None):
        if admission != "reject":
            raise ServiceError(
                "admission mode must be 'reject', got %r" % (admission,)
            )
        self.make_catalog = make_catalog
        self.config = config or OptimizerConfig()
        self.tenant_budgets = dict(tenant_budgets or {})
        self.window = 0
        self.registrations = {}  # qid -> Registration, insertion-ordered
        self.decisions = []  # every AdmissionDecision ever made
        #: admitted queries that have not run a window yet: their first
        #: window re-checks admission against measurement
        self._unmeasured = set()
        self._executor = None
        self._basis = None
        self._clear_plan()
        self.slack = SlackLedger()
        self.attribution = AttributionLedger(self.config.stream_config.quantum)

    def _clear_plan(self):
        """The state of a service with no live query."""
        self.plan = None
        self.model = None
        self.paces = None  # None marks the configuration dirty
        #: what made it dirty: "churn" (the plan changed) or "miss" (a
        #: margin grew)
        self._trigger = "churn"
        #: {qid: margin} grown since the last search
        self._margins_grown = {}
        #: external query id -> bitvector slot in the live plan.  Tenants
        #: pick arbitrary ids; a registration takes the lowest free slot
        #: and keeps it until it is deregistered, so the plan's query ids
        #: -- and everything calibrated or memoized under them -- stay
        #: put while neighbours come and go.
        self.slots = {}
        self._initial_paces = {}
        self._last_merge = None
        self._goals = {}
        #: absolute final-work bounds keyed by slot, refreshed by every
        #: re-optimization (the slack ledger's goal_work)
        self._constraints = {}
        #: estimated per-slot final work at uniform max pace -- the
        #: eagerest plan the optimizer could have run; headroom over it
        #: is the slack budget the chosen paces were allowed to spend
        self._eager_final = {}
        #: estimated per-slot final work under the searched paces: what a
        #: miss's measured final work is held against
        self._estimated_final = {}
        #: the last window's :class:`_WindowRun` while churn has not
        #: changed the plan since (what :func:`split_misses` re-runs)
        self._last_run = None

    # -- registration lifecycle ---------------------------------------------

    @property
    def basis_catalog(self):
        """The calibration-basis catalog (window 0's data), built lazily."""
        if self._basis is None:
            self._basis = self.make_catalog(0)
        return self._basis

    def register(self, query, tenant, relative_goal):
        """Attempt to admit ``query`` for ``tenant``.

        Returns the :class:`AdmissionDecision`; only ``"admitted"``
        changes the live plan.  Invalid *requests* (bad goal, duplicate
        id) raise :class:`~repro.errors.ServiceError`; an admissible
        request with an unsatisfiable goal is a valid request with a
        negative answer, not an error.
        """
        query_id = getattr(query, "query_id", None)
        if not isinstance(query_id, int) or isinstance(query_id, bool) or query_id < 0:
            raise ServiceError(
                "a registered query needs a non-negative integer query_id, "
                "got %r" % (query_id,)
            )
        if not isinstance(tenant, str) or not tenant:
            raise ServiceError("tenant must be a non-empty string, got %r" % (tenant,))
        if not isinstance(relative_goal, (int, float)) or isinstance(relative_goal, bool) \
                or relative_goal <= 0:
            raise ServiceError(
                "query %d: latency goal must be a positive number, got %r"
                % (query_id, relative_goal)
            )
        if query_id in self.registrations:
            raise ServiceError(
                "query id %d is already registered; deregister it first or "
                "pick a fresh id" % query_id
            )
        registration = Registration(
            query_id, tenant, query, float(relative_goal), self.window
        )
        decision = self._try_admit(registration)
        self.decisions.append(decision)
        if OBS.enabled:
            OBS.declog.log(
                "service_admission", **decision.to_dict()
            )
        return decision

    def deregister(self, query_id):
        """Remove a live query.

        Referencing an unknown or already-deregistered id raises a
        descriptive :class:`~repro.errors.OptimizationError`.
        """
        registration = self.registrations.pop(query_id, None)
        if registration is None:
            live = sorted(self.registrations)
            raise OptimizationError(
                "cannot deregister query id %r: not registered (live ids: %s); "
                "was it already deregistered?"
                % (query_id, live if live else "none")
            )
        if OBS.enabled:
            OBS.declog.log(
                "service_deregister", query_id=query_id,
                tenant=registration.tenant,
            )
        self._unmeasured.discard(query_id)
        self._replan()
        return registration

    def _replan(self):
        """Re-merge the live registrations after some left."""
        if self.registrations:
            merge, slots = self._merge(list(self.registrations.values()))
            self._adopt(merge, slots)
        else:
            self._clear_plan()

    def _merge(self, registrations):
        """Re-merge ``registrations``, carrying live state.

        Returns ``(merge, slots)`` where ``slots`` is the external id ->
        slot map of the merged plan: live queries keep their slot, a new
        one takes the lowest slot nobody holds.
        """
        kept = {
            r.query_id: self.slots[r.query_id]
            for r in registrations if r.query_id in self.slots
        }
        free = (s for s in itertools.count() if s not in kept.values())
        slots = {
            r.query_id: kept[r.query_id] if r.query_id in kept else next(free)
            for r in registrations
        }
        queries = [
            Query(slots[r.query_id], r.name, r.query.root)
            for r in registrations
        ]
        merge = merge_with_carry(
            self.basis_catalog, queries, self.config, self.plan, self.model
        )
        return merge, slots

    def _try_admit(self, registration):
        """Check a registration against goal feasibility and tenant budget.

        Builds the candidate plan (incrementally, against the live one)
        and evaluates the new query's final work at maximum eagerness: if
        even ``P_max`` cannot meet the absolute bound, the goal is
        provably unsatisfiable under the cost model and current load.
        Admitting adopts the candidate plan; the pace search itself is
        deferred to the next trigger so bursts of churn coalesce into one
        re-search.
        """
        qid = registration.query_id
        candidates = list(self.registrations.values())
        candidates.append(registration)
        merge, slots = self._merge(candidates)
        slot = slots[qid]
        solo_total, _ = merge.model.solo_batch(slot)
        bound = merge.model.absolute_constraints(
            {slot: registration.relative_goal})[slot]
        eager = merge.model.evaluate(
            uniform_configuration(merge.plan, self.config.max_pace)
        )
        final_at_max = eager.query_final_work.get(slot, 0.0)
        if final_at_max > bound:
            alone = _WindowRun(self.window, merge.plan, slots,
                               self.basis_catalog)
            return AdmissionDecision(
                qid, registration.tenant, "rejected",
                "goal_unsatisfiable: final work %.1f at max pace %d exceeds "
                "bound %.1f (goal %g x solo %.1f)" % (
                    final_at_max, self.config.max_pace, bound,
                    registration.relative_goal, solo_total,
                ),
                self.window,
                meets_alone=alone.meets_alone(
                    self.config, qid, self.config.stream_config.seconds(bound)
                ),
                alone_estimate=merge.model.solo_final(
                    slot, self.config.max_pace),
            )
        budget = self.tenant_budgets.get(registration.tenant)
        if budget is not None:
            demand = solo_total
            for other in self.registrations.values():
                if other.tenant == registration.tenant:
                    demand += merge.model.solo_batch(slots[other.query_id])[0]
            if demand > budget:
                return AdmissionDecision(
                    qid, registration.tenant, "rejected",
                    "tenant_budget: estimated solo work %.1f exceeds budget "
                    "%.1f" % (demand, budget),
                    self.window,
                )
        self.registrations[qid] = registration
        self._unmeasured.add(qid)
        self._adopt(merge, slots)
        return AdmissionDecision(
            qid, registration.tenant, "admitted", "capacity available",
            self.window,
        )

    def _adopt(self, merge, slots):
        """Make a merge outcome the live plan; pace search stays deferred."""
        current = self.paces if self.paces is not None else self._initial_paces
        self._initial_paces = carry_paces(
            merge.plan, merge.matched, current, self.config.max_pace
        )
        self.plan = merge.plan
        self.model = merge.model
        self.slots = slots
        self.paces = None  # dirty: re-searched lazily at the next trigger
        self._trigger = "churn"
        self._last_merge = merge
        self._last_run = None
        # the pool outlives every merge: drop the cones only the previous
        # plan or a turned-away candidate had
        merge.model.memo_pool.retain(merge.model.cone_signatures())

    # -- trigger firings ------------------------------------------------------

    def _reoptimize(self):
        """Subplan-scoped pace re-search for the current (dirty) plan,
        each query held to its bound tightened by its margin."""
        # keyed by slot: the model's id space
        constraints = self.model.absolute_constraints({
            self.slots[qid]: registration.relative_goal
            for qid, registration in self.registrations.items()
        })
        seconds = self.config.stream_config.seconds
        self._goals = {  # keyed by external id: the reporting id space
            qid: seconds(constraints[self.slots[qid]])
            for qid in self.registrations
        }
        self._constraints = constraints
        pool = self.model.memo_pool
        hits_before = pool.hits
        targets = {
            self.slots[qid]: constraints[self.slots[qid]] / (1.0 + r.margin)
            for qid, r in self.registrations.items()
        }
        (_, self.paces, evaluation, _), diagnostics = search(
            self.model, targets, self.config.max_pace,
            initial=self._initial_paces, finish=descend,
        )
        self._estimated_final = dict(evaluation.query_final_work)
        grown, self._margins_grown = self._margins_grown, {}
        # the eagerest configuration's estimated final work: the slack
        # baseline.  Admission already evaluated uniform max pace on this
        # model, so the memo makes this re-evaluation nearly free.
        eager = self.model.evaluate(
            uniform_configuration(self.plan, self.config.max_pace)
        )
        self._eager_final = dict(eager.query_final_work)
        merge = self._last_merge
        if OBS.enabled:
            OBS.declog.log(
                "service_reoptimize",
                window=self.window,
                trigger=self._trigger,
                margins={
                    qid: round(margin, 4) for qid, margin in grown.items()
                    if qid in self.registrations
                },
                scope="incremental" if merge is not None and merge.matched
                else "full",
                subplans=len(self.plan.subplans),
                reused=sorted(merge.matched) if merge is not None else [],
                recalibrated=list(merge.fresh_sids) if merge is not None else [],
                memo_pool_hits=pool.hits - hits_before,
                search_iterations=diagnostics["iterations"],
                total_work=round(evaluation.total_work, 4),
            )
        return evaluation

    def run_window(self, collect_results=False):
        """Fire one trigger window; returns a :class:`TriggerOutcome`.

        Advances the window clock even when no query is live (an idle
        window), so registrations arriving later land on the right data.
        """
        window = self.window
        if not self.registrations:
            self.window += 1
            self._last_run = None
            return TriggerOutcome(window, 0.0, {}, {}, reoptimized=False)
        reoptimized = self.paces is None
        if reoptimized:
            self._reoptimize()
        today = self.make_catalog(window) if window > 0 else self.basis_catalog
        if self._executor is None:
            self._executor = PlanExecutor(
                self.plan, self.config.stream_config, catalog=today
            )
        else:
            self._executor.rebind(plan=self.plan, catalog=today)
        run = self._executor.run(self.paces, collect_results=collect_results)

        queries = {}
        tenants = {}
        work_share = self._attribute_work(window, run)
        slack_entries = {}
        attribution = {}
        seconds = self.config.stream_config.seconds
        final_work = run.query_final_work
        for qid, registration in self.registrations.items():
            slot = self.slots[qid]
            latency = seconds(final_work[slot])
            goal = self._goals[qid]
            missed_abs, missed_rel = missed_latency(latency, goal)
            attributed = work_share.get(slot, 0.0)
            attribution[qid] = attributed
            queries[qid] = {
                "tenant": registration.tenant,
                "name": registration.name,
                "latency_seconds": latency,
                "goal_seconds": goal,
                "missed_seconds": missed_abs,
                "missed_relative": missed_rel,
                "attributed_work": attributed,
            }
            slack_entries[qid] = {
                "goal_work": self._constraints.get(slot, 0.0),
                "final_work": final_work.get(slot, 0.0),
                "eager_final_work": self._eager_final.get(slot),
            }
            bucket = tenants.setdefault(
                registration.tenant,
                {"work": 0.0, "queries": 0, "slo_misses": 0},
            )
            bucket["work"] += attributed
            bucket["queries"] += 1
            if missed_abs > 0:
                bucket["slo_misses"] += 1
        slack = self.slack.record_window(window, slack_entries, seconds=seconds)
        self._learn_margins(queries, final_work)
        if OBS.enabled:
            OBS.declog.log(
                "service_trigger", window=window,
                total_work=round(run.total_work, 4),
                queries=len(queries), reoptimized=reoptimized,
            )
            roll_up = self.slack.windows[-1][1]
            OBS.declog.log(
                "service_slack", window=window,
                min_headroom_work=roll_up["min_headroom_work"],
                missed=roll_up["missed"],
            )
        ran = _WindowRun(window, self.plan, self.slots, today)
        self._recheck_admission(ran, queries)
        self._last_run = ran
        self.window += 1
        return TriggerOutcome(
            window, run.total_work, queries, tenants,
            reoptimized=reoptimized, run=run, slack=slack,
            attribution=attribution,
            # this window's split was checked exactly when recorded; the
            # full replay (``check_conservation``) is the ledger export's
            conserved=not self.attribution.check_running_totals(),
        )

    def _learn_margins(self, queries, final_work):
        """Grow each missed query's margin to its measured over estimated
        final work, less one; a grown margin makes the paces dirty, so
        the next trigger re-searches from them."""
        for qid, registration in self.registrations.items():
            estimate = self._estimated_final.get(self.slots[qid], 0.0)
            if queries[qid]["missed_seconds"] <= 0 or estimate <= 0:
                continue
            margin = final_work[self.slots[qid]] / estimate - 1.0
            if margin > registration.margin:
                registration.margin = self._margins_grown[qid] = margin
        if self._margins_grown:
            self._initial_paces = dict(self.paces)
            self.paces = None
            self._trigger = "miss"

    def _recheck_admission(self, ran, queries):
        """Admission re-checked against the first window's measurement.

        A query whose first window missed its goal is held to the same
        window re-run at uniform ``P_max``: if it misses there too, the
        cost model admitted it on an estimate the data refutes, so it
        leaves the live plan, rejected with an audited
        ``measured_unsatisfiable`` decision.  A miss ``P_max`` would have
        met stays live.
        """
        first, self._unmeasured = self._unmeasured, set()
        missed = {
            qid: queries[qid]["goal_seconds"] for qid in sorted(first)
            if queries[qid]["missed_seconds"] > 0
        }
        if not missed:
            return
        split, late = ran.classify(self.config, missed)
        if not late:
            return
        for qid, final in late.items():
            registration = self.registrations.pop(qid)
            decision = AdmissionDecision(
                qid, registration.tenant, "rejected",
                "measured_unsatisfiable: final work %.1f at max pace %d "
                "exceeds bound %.1f in window %d" % (
                    final, self.config.max_pace,
                    self._constraints[ran.slots[qid]], ran.window,
                ),
                ran.window,
                meets_alone=qid in split["isolable"],
                alone_estimate=self.model.solo_final(
                    ran.slots[qid], self.config.max_pace),
            )
            self.decisions.append(decision)
            if OBS.enabled:
                OBS.declog.log("service_admission", **decision.to_dict())
        self._replan()

    def _attribute_work(self, window, run):
        """Per-slot share of the measured work, conservation-exact.

        Each subplan's measured WorkMeter total is split across its
        beneficiary queries proportionally to their *calibrated solo
        cost* of that subplan (:meth:`PlanCostModel.solo_batch`'s
        per-subplan work) -- a heavy query sharing an operator with a
        light one pays most of the bill, as it would running alone.  The
        split is in integer quanta (:mod:`repro.obs.attribution`): per
        window, the attributed shares sum *exactly* to the measured
        per-subplan totals.  This is the basis of the per-tenant fairness
        accounting.  Returns each slot's share in work units.
        """
        solo_costs = {
            slot: self.model.solo_batch(slot)[1]
            for slot in self.slots.values()
        }
        tenant_of_slot = {
            self.slots[qid]: registration.tenant
            for qid, registration in self.registrations.items()
        }
        beneficiaries = {
            subplan.sid: subplan.query_ids() for subplan in self.plan.subplans
        }
        shares = self.attribution.record_window(
            window,
            run.subplan_total_quanta,
            lambda sid: beneficiaries.get(sid, ()),
            lambda sid, slot: solo_costs.get(slot, {}).get(sid, 0.0),
            tenant_of=tenant_of_slot.get,
        )
        return {slot: share / run.quantum for slot, share in shares.items()}


def split_misses(service, outcome):
    """Split one window's missed queries three ways.

    Re-runs the window's plan on a fresh executor over the catalog the
    window ran on, every subplan at the maximum pace: a missed query
    that meets its bound there is *avoidable* (the chosen paces spent
    slack the data did not have).  One that still misses is then run
    alone -- its own unshared plan at ``P_max`` on the same catalog --
    and is *isolable* if it meets its bound there (this sharing makes it
    infeasible), *infeasible* otherwise.  The window's admission
    re-check makes the same classification (:meth:`_WindowRun.classify`)
    on the same runs, so a query it evicted is never reported avoidable.

    Call it right after the :meth:`QueryService.run_window` that returned
    ``outcome``, before churn changes the plan.  It only reads: no
    service state, memo or ledger changes.  Returns
    ``{"avoidable": [qid, ...], "isolable": [...], "infeasible": [...]}``.
    """
    missed = {
        qid: entry["goal_seconds"]
        for qid, entry in sorted(outcome.queries.items())
        if entry["missed_seconds"] > 0
    }
    if not missed:
        return {"avoidable": [], "isolable": [], "infeasible": []}
    ran = service._last_run
    if ran is None or ran.window != outcome.window:
        raise ServiceError(
            "window %d's plan is no longer live: split its misses right "
            "after run_window" % outcome.window
        )
    return ran.classify(service.config, missed)[0]
