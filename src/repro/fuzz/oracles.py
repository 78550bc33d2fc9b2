"""Differential oracles: one fuzz case, several independent executions.

Every case runs through multiple pipelines that must agree:

``naive``
    the ground truth every leg's final results are compared against:
    each query recomputed from its tables' final contents by
    :mod:`repro.fuzz.naive`, which shares no code with the engine.  A
    bug every engine leg shares (``drop_last_key_match`` in
    :mod:`repro.physical.faults`) is caught here and nowhere else.
``unshared``
    each query as its own plan, everything at pace 1 -- the work
    baseline, and the leg whose error class decides whether a case is
    rejected.
``shared-columnar``
    the MQO-merged shared plan at a random (derived) pace configuration
    on the production operators.
``shared-unbatched``
    the same plan and paces on a
    :class:`~repro.fuzz.reference.ReferenceExecutor`, the per-tuple
    work oracle.  ``shared-columnar`` must be *bit-identical* to it --
    results, work, and every execution record.  This is also the
    exactness pair of shared arrangements
    (:mod:`repro.engine.arrangements`): production joins read them
    wherever the plan shape allows, the reference keeps private tables.
``shared-pace1``
    the shared plan with every pace forced to 1 (one-shot batch
    recompute of every trigger).
``decomposed``
    optionally, the shared plan after a random two-way decomposition
    (:func:`repro.core.regenerate.apply_split`) of one shared subplan,
    at the split's inherited paces.
``sql``
    optionally, the same queries rendered to SQL text, re-parsed through
    :mod:`repro.sqlparser`, and run unshared at pace 1.
``service``
    optionally, the whole batch registered into a long-running
    :class:`~repro.service.core.QueryService`, some queries deregistered
    after a trigger window (the case's ``dropouts``), and the *final*
    window's run compared against the naive ground truth for the
    surviving queries.  This fuzzes registration churn, incremental
    re-merge on stable query slots and the carry of calibrated state;
    after every churn event the live plan's statistics must be keyed by
    the queries each node serves (:func:`stats_keys_outside_mask`).
``service-unbatched``
    the ``service`` oracle's final plan, paces and catalog run once on a
    fresh :class:`~repro.fuzz.reference.ReferenceExecutor`; it must be
    *bit-identical* to the service's final window, so the reused,
    rebound, arranged production tree is checked against a fresh tree
    of private tables.  When the service raised, this leg raises the
    same error.
``optimized``
    optionally, :func:`~repro.core.optimizer.optimize_ishare` on the
    batch with the case's relative goals and ``use_memo`` and a maximum
    pace of ``pace_ceiling``, then the returned plan run at the returned
    paces.  Its exits are checked as they leave the optimizer
    (:func:`optimizer_exit_failures`): paces legal, no stray statistics
    keys, the memo pool pruned to the returned plan.

Divergence in net query results from the naive ground truth
(tolerance-based multiset comparison, :mod:`repro.engine.compare`), in
WorkMeter invariants, or in the *class* of raised
:class:`~repro.errors.ReproError` is a failure.  A ReproError
raised consistently by every oracle is a *rejected* case (the generator
built something invalid) -- noted, but not a bug.  Exceptions outside
the ReproError hierarchy propagate to the campaign loop, which treats
them as crash failures.
"""

import random

from ..core import pace as pace_mod
from ..cost.stats import NodeStats
from ..engine.compare import REL_TOL, ABS_TOL, result_diff, results_close
from ..engine.executor import PlanExecutor
from ..errors import OptimizationError, ReproError
from ..mqo.merge import MQOOptimizer, build_unshared_plan
from ..relational import bitvec
from . import grammar, naive
from .reference import ReferenceExecutor


def stats_keys_outside_mask(plan, mask=None):
    """Plan nodes whose per-query statistics name a query they do not serve.

    Every key of a ``*_per_q`` map of a node's calibrated
    :class:`~repro.cost.stats.NodeStats` must be a member of the node's
    query mask -- statistics carried across a churn re-merge under
    another query's id would silently cost the wrong query.  ``mask``,
    when given, is what every node's statistics may name instead of the
    node's own mask.  A node without statistics (the source leaf a
    partial cut reads its bottom piece through) has nothing to check.
    Returns one failure string per offending node (empty when the
    invariant holds).
    """
    maps = [name for name in NodeStats.__slots__ if name.endswith("_per_q")]
    failures = []
    for subplan in plan.subplans:
        for node in subplan.root.walk():
            if node.stats is None:
                continue
            served = node.query_mask if mask is None else mask
            keys = {qid for name in maps for qid in getattr(node.stats, name)}
            strays = sorted(qid for qid in keys if not served & bitvec.bit(qid))
            if strays:
                failures.append(
                    "subplan %d %s node: statistics keyed by queries %s, "
                    "node serves %s" % (
                        subplan.sid, node.kind, strays,
                        bitvec.format_mask(node.query_mask),
                    )
                )
    return failures


def optimizer_exit_failures(result):
    """What must hold of every :class:`~repro.core.optimizer.OptimizationResult`:
    parents never eagerer than their children, statistics keyed by the
    queries each node serves, and a memo pool holding exactly the returned
    plan's cones (none at all under ``use_memo=False``).  One failure
    string per violation.

    A decomposed plan is held to its batch's queries only: the copies of
    a split operator share its statistics by reference
    (:meth:`~repro.mqo.nodes.OpNode.clone`), so each keeps the keys of
    the queries its sibling pieces serve, and a single-consumer merge
    can inline away the sibling that served them.
    """
    plan = result.plan
    failures = []
    try:
        pace_mod.validate_parent_child(plan, result.pace_config)
    except OptimizationError as exc:
        failures.append("optimized paces: %s" % exc)
    batch = bitvec.mask_of(plan.query_roots)
    failures.extend(
        "optimized stats keys: " + failure
        for failure in stats_keys_outside_mask(
            plan, batch if result.diagnostics.get("actions") else None)
    )
    model = result.cost_model
    held = model.memo_pool.signatures()
    live = set(model.cone_signatures()) if model.use_memo else set()
    if held != live:
        failures.append(
            "optimized memo pool: %d table(s) for cones outside the returned "
            "plan, %d of its cones without one"
            % (len(held - live), len(live - held))
        )
    return failures


class OracleOutcome:
    """One oracle's execution: a run (plus its plan/paces) or an error.

    A service leg whose final window ran no query -- every registration
    was rejected, so the service fired an idle window -- has neither: its
    outcome is ``idle``, and there is nothing of it to compare.
    """

    __slots__ = ("name", "result", "plan", "paces", "error")

    def __init__(self, name, result=None, plan=None, paces=None, error=None):
        self.name = name
        self.result = result
        self.plan = plan
        self.paces = paces
        self.error = error

    @property
    def idle(self):
        return self.result is None and self.error is None

    def __repr__(self):
        state = (
            "error=%r" % self.error if self.error is not None
            else "idle" if self.idle else "ok"
        )
        return "OracleOutcome(%r, %s)" % (self.name, state)


class CaseReport:
    """Verdict for one case: ``ok`` / ``rejected`` / ``fail`` + details."""

    __slots__ = ("case", "status", "failures", "oracles")

    def __init__(self, case, status, failures, oracles):
        self.case = case
        self.status = status
        self.failures = failures
        self.oracles = oracles

    @property
    def ok(self):
        return self.status in ("ok", "rejected")

    def describe(self):
        lines = [
            "case seed=%s index=%s: %s"
            % (self.case.get("seed"), self.case.get("index"), self.status)
        ]
        lines.extend("  - %s" % failure for failure in self.failures)
        lines.extend(
            "  (%s: idle final window, nothing compared)" % name
            for name, outcome in sorted(self.oracles.items()) if outcome.idle
        )
        return "\n".join(lines)

    def __repr__(self):
        return "CaseReport(%s, %d failure(s))" % (self.status, len(self.failures))


def run_case(case, case_path=None, rel_tol=REL_TOL, abs_tol=ABS_TOL):
    """Execute every applicable oracle for ``case`` and compare them."""
    seed = case.get("seed")
    catalog = grammar.build_catalog(case)
    config = grammar.stream_config(case)
    try:
        queries = grammar.build_queries(catalog, case)
    except ReproError as exc:
        raise exc.attach_fuzz_context(seed=seed, case_path=case_path)

    outcomes = {}

    def attempt(name, fn):
        try:
            result, plan, paces = fn()
        except ReproError as exc:
            exc.attach_fuzz_context(seed=seed, case_path=case_path)
            outcomes[name] = OracleOutcome(name, error=exc)
        else:
            outcomes[name] = OracleOutcome(
                name, result=result, plan=plan, paces=paces
            )
        return outcomes[name]

    def run_unshared():
        plan = build_unshared_plan(catalog, queries)
        paces = {subplan.sid: 1 for subplan in plan.subplans}
        return PlanExecutor(plan, config).run(paces), plan, paces

    reference = attempt("unshared", run_unshared)

    shared_state = {}

    def run_shared(executor=PlanExecutor, pace1=False):
        def runner():
            if "plan" not in shared_state:
                shared_state["plan"] = MQOOptimizer(catalog).build_shared_plan(
                    queries
                )
                shared_state["paces"] = grammar.derive_paces(
                    shared_state["plan"], case
                )
            plan = shared_state["plan"]
            paces = (
                {subplan.sid: 1 for subplan in plan.subplans}
                if pace1
                else shared_state["paces"]
            )
            return executor(plan, config).run(paces), plan, paces

        return runner

    attempt("shared-columnar", run_shared())
    attempt("shared-unbatched", run_shared(ReferenceExecutor))
    attempt("shared-pace1", run_shared(pace1=True))

    if case.get("decompose") and "plan" in shared_state:
        target = _decomposition_target(shared_state["plan"], case["decompose"])
        if target is not None:

            def run_decomposed():
                from ..core.regenerate import apply_split

                sid, partitions = target
                new_plan, initial_paces = apply_split(
                    shared_state["plan"], shared_state["paces"], sid, partitions
                )
                pace_mod.validate_parent_child(new_plan, initial_paces)
                # pace configurations across a decomposition cover
                # different sid sets; the comparison must refuse cleanly
                # (this used to escape as a raw KeyError)
                try:
                    pace_mod.is_eagerer_or_equal(
                        initial_paces, shared_state["paces"]
                    )
                except OptimizationError:
                    pass
                result = PlanExecutor(new_plan, config).run(initial_paces)
                return result, new_plan, initial_paces

            attempt("decomposed", run_decomposed)

    if case.get("use_sql"):

        def run_sql():
            from ..sqlparser.lower import parse_query

            sql_queries = [
                parse_query(catalog, text, query_id, "s%d" % query_id)
                for query_id, text in enumerate(grammar.render_sql(case))
            ]
            plan = build_unshared_plan(catalog, sql_queries)
            paces = {subplan.sid: 1 for subplan in plan.subplans}
            return PlanExecutor(plan, config).run(paces), plan, paces

        attempt("sql", run_sql)

    service_slots = {}
    service_failures = []
    if case.get("service"):
        # the catalog the service built last: its final window's data
        service_data = {}

        def run_service():
            from ..core.optimizer import OptimizerConfig
            from ..service.core import QueryService

            def make_catalog(window):
                catalog = service_data["catalog"] = grammar.build_catalog(case)
                return catalog

            spec = case["service"]
            svc = QueryService(make_catalog, OptimizerConfig(
                max_pace=max(1, int(case.get("pace_ceiling", 1))),
                stream_config=config,
            ))

            def churned(event):
                if svc.plan is not None:
                    service_failures.extend(
                        "service stats keys after %s: %s" % (event, failure)
                        for failure in stats_keys_outside_mask(svc.plan)
                    )

            for query in queries:
                svc.register(
                    query, "t%d" % (query.query_id % 2),
                    spec.get("goal", 50.0),
                )
                churned("register %d" % query.query_id)
            for _ in range(max(1, int(spec.get("windows", 2))) - 1):
                svc.run_window()
            for qid in spec.get("dropouts", ()):
                # the shrinker mutates cases freely: only drop queries
                # that are actually live, and never the last one
                if qid in svc.registrations and len(svc.registrations) > 1:
                    svc.deregister(qid)
                    churned("deregister %d" % qid)
            outcome = svc.run_window(collect_results=True)
            if outcome.run is None:
                # no query was live (every registration rejected): an
                # idle window records no attribution and has no result
                return None, svc.plan, svc.paces
            # what the window ran on: a miss that grows a margin, or an
            # eviction, leaves the service dirty or re-planned after it
            ran = svc._last_run
            plan, paces = ran.plan, outcome.run.pace_config
            service_slots.update(ran.slots)
            # attribution conservation oracle: the ledger's own exact
            # re-check, plus an independent integer re-sum of the final
            # window against the measured per-subplan WorkMeter quanta --
            # the ledger can never silently leak or double-count work
            # across register/churn/dropout sequences
            service_failures.extend(
                "service attribution: " + failure
                for failure in svc.attribution.check_conservation()
            )
            _, shares = svc.attribution.windows[-1]
            attributed = sum(shares.values())
            served = {
                subplan.sid for subplan in plan.subplans
                if subplan.query_ids()
            }
            measured = sum(
                quanta
                for sid, quanta in outcome.run.subplan_total_quanta.items()
                if sid in served
            )
            if attributed != measured:
                service_failures.append(
                    "service attribution: final window attributed %s != "
                    "measured %s" % (attributed, measured)
                )
            return outcome.run, plan, paces

        def run_service_reference():
            service = outcomes["service"]
            if service.error is not None:
                raise service.error
            if service.idle:
                return None, service.plan, service.paces
            executor = ReferenceExecutor(
                service.plan, config, catalog=service_data["catalog"]
            )
            return executor.run(service.paces), service.plan, service.paces

        attempt("service", run_service)
        attempt("service-unbatched", run_service_reference)

    optimizer_failures = []
    if case.get("optimize"):

        def run_optimized():
            from ..core.optimizer import OptimizerConfig, optimize_ishare

            spec = case["optimize"]
            # the shrinker drops queries, not goals: index goals cyclically
            goals = spec.get("goals") or [1.0]
            relative = {
                query.query_id: goals[query.query_id % len(goals)]
                for query in queries
            }
            result = optimize_ishare(catalog, queries, relative, OptimizerConfig(
                max_pace=max(1, int(case.get("pace_ceiling", 1))),
                stream_config=config,
                use_memo=bool(spec.get("use_memo", True)),
            ))
            optimizer_failures.extend(optimizer_exit_failures(result))
            run = PlanExecutor(result.plan, config).run(result.pace_config)
            return run, result.plan, result.pace_config

        attempt("optimized", run_optimized)

    truth = None
    if reference.error is None:
        truth = {
            query.query_id: naive.naive_result(query, catalog)
            for query in queries
        }
    failures = _verdict(
        case, queries, outcomes, reference, truth, rel_tol, abs_tol,
        service_slots,
    )
    if failures is REJECTED:
        return CaseReport(case, "rejected", [], outcomes)
    failures = list(failures) + service_failures + optimizer_failures
    status = "fail" if failures else "ok"
    return CaseReport(case, status, failures, outcomes)


REJECTED = object()


def _decomposition_target(plan, spec):
    """Pick (sid, two-way qid partition) for the case's decompose choice."""
    candidates = [
        subplan
        for subplan in sorted(plan.shared_subplans(), key=lambda s: s.sid)
        if len(subplan.query_ids()) >= 2
    ]
    if not candidates:
        return None
    subplan = candidates[spec.get("rank", 0) % len(candidates)]
    qids = sorted(subplan.query_ids())
    rng = random.Random("split:%d" % spec.get("salt", 0))
    rng.shuffle(qids)
    cut = rng.randint(1, len(qids) - 1)
    return subplan.sid, [tuple(sorted(qids[:cut])), tuple(sorted(qids[cut:]))]


def _verdict(case, queries, outcomes, reference, truth, rel_tol, abs_tol,
             service_slots=None):
    failures = []
    if reference.error is not None:
        ref_class = type(reference.error)
        divergent = [
            "%s raised %s but the reference raised %s: %s"
            % (name, type(o.error).__name__ if o.error else "nothing",
               ref_class.__name__, reference.error)
            for name, o in sorted(outcomes.items())
            if name != "unshared"
            and (o.error is None or type(o.error) is not ref_class)
        ]
        if divergent:
            return divergent
        return REJECTED

    for name, outcome in sorted(outcomes.items()):
        if outcome.error is not None:
            failures.append(
                "oracle %s raised %s while the reference succeeded: %s"
                % (name, type(outcome.error).__name__, outcome.error)
            )
            continue
        if outcome.idle:
            continue
        failures.extend(_check_invariants(name, outcome))
        slots, checked = None, queries
        if name in ("service", "service-unbatched"):
            # the service runs each query under the slot it assigned at
            # registration and deregistered queries have no final-window
            # result: compare only the survivors, through the slot map
            slots = service_slots or {}
            checked = [q for q in queries if q.query_id in slots]
        failures.extend(
            _compare_results(
                name, outcome.result, truth, checked, rel_tol, abs_tol,
                slots=slots,
            )
        )

    # every production leg against the per-tuple replay of the same thing
    for oracle, per_tuple, check in (
        ("shared-columnar", "shared-unbatched", _check_bit_identity),
        ("service", "service-unbatched", _check_bit_identity),
    ):
        production = outcomes.get(oracle)
        unbatched = outcomes.get(per_tuple)
        if (
            production is None or unbatched is None
            or production.error is not None or unbatched.error is not None
        ):
            continue
        if production.idle or unbatched.idle:
            if production.idle != unbatched.idle:
                failures.append(
                    "%s: final window idle in %s only"
                    % (oracle, oracle if production.idle else per_tuple)
                )
            continue
        failures.extend(
            check(production.result, unbatched.result, oracle, per_tuple)
        )
    return failures


def _check_invariants(name, outcome):
    """WorkMeter bookkeeping invariants every run must satisfy, exactly:
    work is integer quanta, so the execution records sum to the run's
    total and to each subplan's total with no tolerance."""
    failures = []
    run, plan, paces = outcome.result, outcome.plan, outcome.paces
    record_sum = sum(record.work for record in run.records)
    if record_sum != run.total_quanta:
        failures.append(
            "%s: total work %d != sum of execution records %d (quanta)"
            % (name, run.total_quanta, record_sum)
        )
    per_subplan = {}
    for record in run.records:
        per_subplan[record.sid] = per_subplan.get(record.sid, 0) + record.work
    off = sorted(
        sid for sid in set(per_subplan) | set(run.subplan_total_quanta)
        if per_subplan.get(sid) != run.subplan_total_quanta.get(sid)
    )
    if off:
        failures.append(
            "%s: execution records of subplans %s do not sum to their "
            "subplan totals" % (name, off)
        )
    for record in run.records:
        if record.work < 0 or record.latency_work < 0:
            failures.append(
                "%s: negative work in record sid=%d (work=%d latency=%d quanta)"
                % (name, record.sid, record.work, record.latency_work)
            )
            break
    sids = {subplan.sid for subplan in plan.subplans}
    if set(run.subplan_final_quanta) != sids:
        failures.append(
            "%s: final work recorded for sids %s, plan has %s"
            % (name, sorted(run.subplan_final_quanta), sorted(sids))
        )
    expected_records = sum(paces.values())
    if len(run.records) != expected_records:
        failures.append(
            "%s: %d execution records for %d scheduled executions"
            % (name, len(run.records), expected_records)
        )
    expected_qids = set(plan.query_ids())
    if set(run.query_results) != expected_qids:
        failures.append(
            "%s: results for qids %s, plan has %s"
            % (name, sorted(run.query_results), sorted(expected_qids))
        )
    return failures


def _compare_results(name, run, truth, queries, rel_tol, abs_tol,
                     slots=None):
    """One failure per query whose result in ``run`` is not close to the
    naive ``truth[qid]``; ``slots`` maps a query id to the id ``run``
    answers it under."""
    failures = []
    for query in queries:
        qid = query.query_id
        left_qid = slots[qid] if slots is not None else qid
        left = run.query_results.get(left_qid, {})
        right = truth[qid]
        if results_close(left, right, rel_tol=rel_tol, abs_tol=abs_tol):
            continue
        only_left, only_right = result_diff(
            left, right, rel_tol=rel_tol, abs_tol=abs_tol
        )
        failures.append(
            "%s: query %s (qid %d) diverges from the naive ground truth: "
            "%d row(s) only in %s %r; %d row(s) only in naive %r"
            % (
                name, query.name, qid, len(only_left), name,
                only_left[:4], len(only_right), only_right[:4],
            )
        )
    return failures


def _records(run):
    return [
        (r.sid, r.fraction, r.work, r.latency_work, r.output_count)
        for r in run.records
    ]


def _check_work_identity(run, other, name, other_name):
    """Two runs whose work accounting must match *exactly*.

    Every WorkMeter-derived number is charged from batch lengths that
    must equal the reference's list lengths, so the slightest drift here
    means a dropped/duplicated delta or a divergent emission decision.
    """
    failures = []
    if run.total_quanta != other.total_quanta:
        failures.append(
            "%s: total_work differs %s=%r %s=%r"
            % (name, name, run.total_work, other_name, other.total_work)
        )
    if _records(run) != _records(other):
        failures.append(
            "%s: execution records differ between %s and %s"
            % (name, name, other_name)
        )
    if run.subplan_final_quanta != other.subplan_final_quanta:
        failures.append(
            "%s: subplan final work differs between %s and %s"
            % (name, name, other_name)
        )
    return failures


def _check_bit_identity(run, other, name, other_name):
    """Two runs that must match *exactly* (results, work, records)."""
    failures = []
    if run.query_results != other.query_results:
        failures.append(
            "%s: %s and %s query results are not bit-identical"
            % (name, name, other_name)
        )
    return failures + _check_work_identity(run, other, name, other_name)
