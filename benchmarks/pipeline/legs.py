"""Child-process side of the pipeline benchmark: one workload leg per process.

``run.py`` starts this file once per (workload, backend leg) with a JSON
spec on the command line and reads one JSON report from the last line of
standard output.  The leg drives the program only through its public
entry points, in a closed loop on one thread; every timed call goes
through :func:`timing.timed` (GC before, reference kernel either side).

Load shape per leg (sizes in :data:`SIZES`):

``plan_22q``
    repeated cold planning of the 22 TPC-H queries on the history catalog
    (``build_workload`` -> ``reference_absolute_constraints`` ->
    ``optimize_ishare``), then timed windows of the chosen plan over the
    seed's catalog on a warm executor.
``exec_lazy_22q`` / ``exec_eager_22q``
    repeated ``build_workload`` + ``MQOOptimizer.build_shared_plan``
    (planning without a pace search), then timed windows of that plan at
    *fixed* paces (1/3 lazy, 16/48 eager) on a warm executor.
``service_churn``
    one ``QueryService`` under a seeded register/deregister schedule;
    registrations and trigger windows are timed separately.

After the timed region every leg checks the measured plan's query
results against the unshared one-batch reference.
"""

import gc
import json
import os
import random
import resource
import shutil
import sys
import tempfile
from time import perf_counter

_PROCESS_START = perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

from repro import obs  # noqa: E402
from repro.core.optimizer import (  # noqa: E402
    OptimizerConfig,
    optimize_ishare,
    reference_absolute_constraints,
)
from repro.cost.cache import CalibrationCache, set_default_cache  # noqa: E402
from repro.engine.calibrate import (  # noqa: E402
    calibrate_plan,
    calibration_execution_count,
)
from repro.engine.compare import results_close  # noqa: E402
from repro.engine.executor import PlanExecutor  # noqa: E402
from repro.engine.stream import StreamConfig  # noqa: E402
from repro.logical.ops import Query  # noqa: E402
from repro.mqo.merge import MQOOptimizer, build_unshared_plan  # noqa: E402
from repro.physical.hotpath import engine_mode_label  # noqa: E402
from repro.service.core import QueryService  # noqa: E402
from repro.sqlparser import parse_query  # noqa: E402
from repro.workloads import CONSTRAINT_LEVELS, random_constraints  # noqa: E402
from repro.workloads.tpch import (  # noqa: E402
    ALL_QUERY_NAMES,
    add_lineitem_updates,
    build_query,
    build_workload,
    generate_catalog,
)
from repro.workloads.tpch.schema import date_of  # noqa: E402

import timing  # noqa: E402
import tracing  # noqa: E402

_IMPORT_SECONDS = perf_counter() - _PROCESS_START

OUT_DIR = os.path.join(HERE, "out")

#: ``--seed`` is folded into this many input families.  Sizing found one
#: (catalog seed, constraint seed) pair on which ``optimize_ishare``
#: returns paces that ``PlanExecutor`` rejects (see README, "Known
#: defect"); every family below is checked to plan, run and verify, so
#: no driver-chosen seed lands on an input where an operation fails.
SEED_FAMILIES = 64

#: which query gets which goal (``random_constraints``) and the service's
#: churn script are part of the workload, like the query set: ``--seed``
#: re-draws the *data* (catalog, updates, window ring) under them.  Drawing
#: them per seed moved planning time by 30% and service work by 18%
#: between seeds -- input differences far above the regression bounds.
SCHEDULE_SEED = 5

TENANTS = ("alpha", "beta", "gamma")

#: repetition floors and scales.  ``full`` is what BENCHMARK.json
#: measures; ``tiny`` is the --selftest / unit-test profile.
SIZES = {
    "full": {
        "setup_repeats": 5,
        "plan_scale": 0.5, "plan_max_pace": 12, "plan_reps": 9,
        "plan_windows": 15, "plan_queries": ALL_QUERY_NAMES,
        "exec_scales": {"exec_lazy_22q": 0.5, "exec_eager_22q": 0.25},
        "update_fraction": 0.25, "exec_windows": 25, "exec_plan_reps": 25,
        "service_scale": 0.125, "service_max_pace": 20,
        "service_windows": 120, "service_columnar_windows": 60,
        "service_ring": 8, "service_initial": 8,
        "service_low": 6, "service_high": 14,
        "traced_windows": 5,
        "traced_service_windows": 40,
    },
    "tiny": {
        "setup_repeats": 2,
        "plan_scale": 0.05, "plan_max_pace": 4, "plan_reps": 2,
        "plan_windows": 2,
        "plan_queries": ("Q1", "Q3", "Q4", "Q6", "Q12", "Q14"),
        "exec_scales": {"exec_lazy_22q": 0.05, "exec_eager_22q": 0.05},
        "update_fraction": 0.25, "exec_windows": 3, "exec_plan_reps": 3,
        "service_scale": 0.03, "service_max_pace": 6,
        "service_windows": 12, "service_columnar_windows": 6,
        "service_ring": 3, "service_initial": 4,
        "service_low": 3, "service_high": 6,
        "traced_windows": 2,
        "traced_service_windows": 8,
    },
}

EXEC_PACES = {"exec_lazy_22q": (1, 3), "exec_eager_22q": (16, 48)}

#: seconds between two kernel readings inside a planning repetition (see
#: ``timing.Clock``); not in a traced leg, whose spans would count them
PLAN_SAMPLE_EVERY = 0.05

SQL_TEXTS = (
    """SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
              SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
              AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order
       FROM lineitem WHERE l_shipdate <= %d
       GROUP BY l_returnflag, l_linestatus""" % date_of(1998, 9, 2),
    """SELECT o_orderpriority, COUNT(*) AS order_count
       FROM orders JOIN lineitem ON o_orderkey = l_orderkey
       WHERE o_orderdate >= %d AND o_orderdate < %d
         AND l_commitdate < l_receiptdate
       GROUP BY o_orderpriority""" % (date_of(1993, 7, 1), date_of(1993, 10, 1)),
    """SELECT SUM(l_extendedprice * l_discount) AS revenue
       FROM lineitem WHERE l_shipdate >= %d AND l_shipdate < %d
         AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"""
    % (date_of(1994, 1, 1), date_of(1995, 1, 1)),
)


class Leg:
    """Shared bookkeeping of one leg: samples, checks, per-layer numbers."""

    def __init__(self, spec):
        self.spec = spec
        self.workload = spec["workload"]
        self.columnar = spec["leg"] == "columnar"
        self.trace = bool(spec["trace"])
        self.size = SIZES[spec["size"]]
        self.seed = int(spec["seed"]) % SEED_FAMILIES
        #: measured-time budget of this leg's primary timed loop
        self.budget = float(spec["seconds"]) / 2.0
        self.clock = timing.Clock()
        self.recorder = tracing.NullRecorder()
        self.setup_samples = []
        self.plan_samples = []
        self.window_samples = []
        self.raw = {}
        self.layers = {}
        self.attempted = 0
        self.failures = []
        self.info = {"seed": self.seed, "size": spec["size"]}
        self.total_work = None
        self.work_by_window = []

    # -- checks --------------------------------------------------------------

    def check(self, ok, message):
        """Count one attempted operation; remember it when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def attempt(self, label, fn):
        """Run one operation; an exception is a failed operation."""
        try:
            result = fn()
        except Exception as error:  # the boundary that must keep reporting
            self.check(False, "%s raised %s: %s"
                       % (label, type(error).__name__, error))
            raise _LegAborted()
        self.check(True, label)
        return result

    def repeat(self, kind, fn, floor, budget, sample_every=0.0):
        """Closed loop of timed ``fn()`` operations: at least ``floor`` of
        them, and until ``budget`` seconds of wall time have passed."""
        samples = []
        started = perf_counter()
        while len(samples) < floor or perf_counter() - started < budget:
            samples.append(self.attempt(
                kind, lambda: self.traced_op(kind, fn, sample_every)))
        return samples

    def check_results(self, label, measured, plan_catalog, queries, config,
                      catalog=None):
        """Measured query results equal the unshared one-batch reference."""
        reference_plan = build_unshared_plan(plan_catalog, queries)
        reference = PlanExecutor(reference_plan, config, catalog=catalog).run(
            {subplan.sid: 1 for subplan in reference_plan.subplans}
        )
        for query in queries:
            qid = query.query_id
            self.check(
                results_close(measured.query_results[qid],
                              reference.query_results[qid]),
                "%s: results of query %d (%s) differ from the unshared "
                "batch reference" % (label, qid, query.name),
            )

    def same_work(self, label, runs):
        """``total_work`` identical across repetitions."""
        works = {run.total_work for run in runs}
        self.check(len(works) == 1,
                   "%s: total work differs across repetitions: %s"
                   % (label, sorted(works)))

    # -- set-up ---------------------------------------------------------------

    def setup(self, build):
        """Run ``build()`` ``setup_repeats`` times; keep the last product.

        ``build`` returns ``(product, {part: seconds})``.  A set-up
        sample is import time plus one build, normalised.
        """
        parts = {}
        product = None
        for _ in range(self.size["setup_repeats"]):
            product = None  # drop the previous copy before building again
            sample = self.clock.timed(build)
            product, part_seconds = sample.result
            self.setup_samples.append(
                (_IMPORT_SECONDS + sample.raw) * sample.scale
            )
            for name, seconds in part_seconds.items():
                parts.setdefault(name, []).append(seconds * sample.scale)
        self.layers["workloads.datagen_s"] = timing.median(
            parts.get("datagen", []))
        self.layers["workloads.updates_s"] = timing.median(
            parts.get("updates", []))
        self.raw["import_s"] = _IMPORT_SECONDS
        # the inputs live as long as the leg: keep them out of the
        # collection that precedes every timed repetition
        gc.collect()
        gc.freeze()
        return product

    # -- traced phases ------------------------------------------------------------

    def start_tracing(self):
        self.recorder = tracing.Recorder()
        self.recorder.install()

    def stop_tracing(self):
        recorder = self.recorder
        recorder.uninstall()
        metrics, calls, wall, accounted = recorder.summary()
        layers = self.layers
        for metric in tracing.SELF_TIME_METRICS.values():
            layers[metric] = metrics.get(metric, 0.0)
        for metric in ("engine.run_s", "engine.final_exec_s",
                       "engine.nonfinal_exec_s", "engine.result_view_s"):
            layers[metric] = metrics.get(metric, 0.0)
        layers["engine.other_share"] = (wall - accounted) / wall if wall else 0.0
        layers["trace.wall_s"] = wall
        layers["trace.spans"] = len(recorder.spans)
        for kind in ("source", "join", "aggregate"):
            layers["physical.%s_calls" % kind] = calls["physical." + kind]
        layers["engine.executions"] = calls["engine.execute"]
        layers["cost.evaluate_calls"] = calls["cost.evaluate"]
        for name in ("cost.simulations", "core.pace_search_iterations",
                     "core.subplans_reused", "core.subplans_recalibrated",
                     "physical.work_input_units", "physical.work_output_units",
                     "physical.work_state_units", "physical.work_rescan_units"):
            layers[name] = recorder.counts[name]
        layers["cost.simulations_per_evaluate"] = _ratio(
            recorder.counts["cost.simulations"], calls["cost.evaluate"])
        reused = recorder.counts["core.subplans_reused"]
        layers["core.reuse_ratio"] = _ratio(
            reused, reused + recorder.counts["core.subplans_recalibrated"])
        self.info["trace_missing_targets"] = list(recorder.missing)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, "trace-%s-%s.part.json" % (self.workload, self.spec["leg"])
        )
        tracing.write_chrome_trace(
            path, recorder.chrome_events(2 if self.columnar else 1))
        self.info["trace_part"] = path
        self.recorder = tracing.NullRecorder()

    def traced_op(self, kind, fn, sample_every=0.0):
        """One timed repetition under a root span (a no-op root untraced)."""
        def call():
            with self.recorder.root(kind):
                return fn()

        sample = self.clock.timed(call, sample_every)
        self.recorder.scale_last(sample.scale)
        return sample

    # -- probes shared by the traced runs ---------------------------------------------

    def probe_planning_layers(self, catalog, queries, config):
        """The front-end, MQO and calibration numbers no span gives."""
        self.probe_frontend(catalog)
        plan = MQOOptimizer(catalog).build_shared_plan(queries)
        self.probe_plan_shape(plan, catalog, queries)
        self.probe_calibration(plan, config)

    def probe_frontend(self, catalog):
        """``sqlparser``: parse + lower the three SQL texts the benchmark carries."""
        def parse_all():
            for qid, text in enumerate(SQL_TEXTS):
                parse_query(catalog, text, qid, "sql%d" % qid)
        samples = [self.clock.timed(parse_all).seconds for _ in range(5)]
        self.layers["sqlparser.parse_lower_s"] = timing.median(samples)

    def probe_calibration(self, plan, config):
        """``calibrate``: one cold batch run, then a temp-dir cache replay."""
        os.makedirs(OUT_DIR, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="calibration-", dir=OUT_DIR)
        try:
            cache = CalibrationCache(cache_dir)
            before = calibration_execution_count()
            cold = self.clock.timed(lambda: calibrate_plan(plan, config, cache=cache))
            warm = self.clock.timed(lambda: calibrate_plan(plan, config, cache=cache))
            self.layers["calibrate.cold_s"] = cold.seconds
            self.layers["calibrate.warm_s"] = warm.seconds
            self.layers["calibrate.executions"] = (
                calibration_execution_count() - before
            )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def probe_plan_shape(self, plan, catalog, queries):
        """``mqo``: subplans and operators kept versus the unshared plan."""
        unshared = build_unshared_plan(catalog, queries)
        self.layers["mqo.subplans"] = len(plan.subplans)
        self.layers["mqo.shared_operator_ratio"] = _ratio(
            sum(subplan.operator_count() for subplan in plan.subplans),
            sum(subplan.operator_count() for subplan in unshared.subplans),
        )

    def probe_executor(self, plan, config, paces, warm_median, catalog):
        """``engine.compile_s`` and the ``obs`` enabled-path overhead."""
        fresh = self.clock.timed(
            lambda: PlanExecutor(plan, config, catalog=catalog).run(
                paces, collect_results=False)
        )
        self.layers["engine.compile_s"] = max(0.0, fresh.seconds - warm_median)
        executor = PlanExecutor(plan, config, catalog=catalog)
        executor.run(paces, collect_results=False)
        obs.enable(process_name="pipeline-bench")
        try:
            enabled = [
                self.clock.timed(
                    lambda: executor.run(paces, collect_results=False)
                ).seconds
                for _ in range(5)
            ]
        finally:
            obs.disable()
        self.layers["obs.enabled_overhead_ratio"] = _ratio(
            timing.median(enabled), warm_median)

    # -- windows of a fixed plan (plan_22q and exec_*) -------------------------------------

    def run_windows(self, plan, config, paces, floor, budget, catalog=None):
        """Timed windows on one warm executor, then the traced phase.

        ``catalog`` is the data the windows read when it is not the
        catalog the plan was built on.
        """
        executor = PlanExecutor(plan, config, catalog=catalog)
        executor.run(paces, collect_results=False)  # compile and warm
        if self.trace:
            floor, budget = self.size["traced_windows"], 0.0
        samples = self.repeat(
            "window", lambda: executor.run(paces, collect_results=False),
            floor, budget)
        self.same_work("windows", [sample.result for sample in samples])
        self.work_by_window = [s.result.total_work for s in samples]
        self.window_samples = [sample.seconds for sample in samples]
        self.raw["window_s"] = timing.median([s.raw for s in samples])
        self.total_work = samples[-1].result.total_work
        self.record_arrangements(samples[-1].result)
        if self.trace:
            untraced = timing.median(self.window_samples)
            self.probe_executor(plan, config, paces, untraced, catalog)
            self.start_tracing()
            # compiled after the wrappers went in, so operators that bind
            # reader methods at construction pick up the wrapped ones
            executor = PlanExecutor(plan, config, catalog=catalog)
            executor.run(paces, collect_results=False)
            traced = [
                self.traced_op(
                    "window",
                    lambda: executor.run(paces, collect_results=False)
                ).seconds
                for _ in range(floor)
            ]
            self.traced_op(
                "window_results",
                lambda: executor.run(paces, collect_results=True))
            self.layers["trace.overhead_ratio"] = _ratio(
                timing.median(traced), untraced)
        return executor

    def record_arrangements(self, run):
        summary = run.metadata.get("arrangement_summary", {})
        self.layers["engine.arrangement_resident_entries"] = summary.get(
            "resident_entries", 0)
        self.layers["engine.arrangement_maintenance_ops"] = summary.get(
            "maintenance_ops", 0)

    def finish_windows(self, plan, catalog):
        """Input deltas of one window (every base table the plan reads)."""
        tables = set()
        for subplan in plan.subplans:
            tables.update(subplan.base_tables())
        deltas = sum(catalog.get(name).log_length() for name in tables)
        self.layers["workloads.input_deltas"] = deltas
        self.layers["physical.deltas_per_s"] = _ratio(
            deltas, timing.median(self.window_samples))

    # -- report -------------------------------------------------------------------

    def report(self):
        return {
            "workload": self.workload,
            "leg": self.spec["leg"],
            "engine_mode": engine_mode_label(),
            "setup_s": self.setup_samples,
            "plan_s": self.plan_samples,
            "window_s": self.window_samples,
            "total_work_units": self.total_work,
            "work_by_window": self.work_by_window,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "raw": self.raw,
            "layers": self.layers,
            "info": self.info,
        }


class _LegAborted(Exception):
    """An operation raised; the leg stops and reports what it counted."""


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# -- plan_22q -----------------------------------------------------------------------

def plan_leg(leg):
    size = leg.size
    config = OptimizerConfig(max_pace=size["plan_max_pace"])

    def build():
        start = perf_counter()
        # the recurring-query setting: the plan comes from the statistics
        # of a history window, the trigger windows read today's data.
        # Which splits the decomposition tries depends on those
        # statistics, and that alone moved a planning repetition between
        # 1.7 and 2.7 s across catalog seeds: the history window is part
        # of the workload, the seed draws today's data.
        basis = generate_catalog(scale=size["plan_scale"], seed=SCHEDULE_SEED)
        today = generate_catalog(scale=size["plan_scale"], seed=leg.seed)
        return (basis, today), {"datagen": perf_counter() - start}

    basis, today = leg.setup(build)
    outcome = {}

    def plan_once():
        with leg.recorder.span("logical.build"):
            queries = build_workload(basis, size["plan_queries"])
        relative = random_constraints(
            [query.query_id for query in queries], seed=SCHEDULE_SEED)
        absolute = reference_absolute_constraints(
            basis, queries, relative, config)
        result = optimize_ishare(
            basis, queries, relative, config, absolute_constraints=absolute)
        outcome.update(queries=queries, absolute=absolute, result=result)
        return result

    # the columnar leg needs the plan but adds no planning samples: the
    # optimizer does not depend on the execution backend
    if leg.columnar or leg.trace:
        samples = leg.repeat("plan", plan_once, 1, 0.0)
    else:
        samples = leg.repeat(
            "plan", plan_once, size["plan_reps"], leg.budget * 0.6,
            PLAN_SAMPLE_EVERY)
    fingerprints = {
        (tuple(sorted(s.result.pace_config.items())),
         s.result.evaluation.total_work)
        for s in samples
    }
    leg.check(len(fingerprints) == 1,
              "planning repetitions chose different plans")
    if not leg.columnar:
        leg.plan_samples = [sample.seconds for sample in samples]
        leg.raw["plan_s"] = timing.median([s.raw for s in samples])
    result = outcome["result"]
    queries = outcome["queries"]
    leg.layers["core.decompose_actions"] = len(result.diagnostics["actions"])
    leg.layers["core.max_pace_chosen"] = max(result.pace_config.values())

    executor = leg.run_windows(
        result.plan, config.stream_config, result.pace_config,
        size["plan_windows"], leg.budget * 0.2, catalog=today,
    )
    if leg.trace and not leg.columnar:
        leg.layers["trace.overhead_ratio"] = _ratio(
            leg.traced_op("plan", plan_once).seconds, leg.plan_samples[0])
    if leg.trace:
        leg.stop_tracing()
        if not leg.columnar:
            leg.probe_planning_layers(basis, queries, config.stream_config)
    leg.finish_windows(result.plan, today)

    measured = leg.attempt(
        "result run",
        lambda: executor.run(result.pace_config, collect_results=True))
    leg.check_results("plan_22q", measured, basis, queries,
                      config.stream_config, catalog=today)
    seconds = config.stream_config.seconds
    missed = sum(
        1 for query in queries
        if measured.query_latency_seconds(query.query_id)
        > seconds(outcome["absolute"][query.query_id])
    )
    leg.layers["slo_miss_frac"] = _ratio(missed, len(queries))
    leg.info.update(scale=size["plan_scale"], max_pace=size["plan_max_pace"],
                    queries=len(queries), planning_reps=len(samples),
                    windows=len(leg.window_samples),
                    subplans=len(result.plan.subplans))


# -- exec_lazy_22q / exec_eager_22q ----------------------------------------------------------

def exec_leg(leg):
    size = leg.size
    scale = size["exec_scales"][leg.workload]
    config = StreamConfig()

    def build():
        start = perf_counter()
        catalog = generate_catalog(scale=scale, seed=leg.seed)
        generated = perf_counter()
        add_lineitem_updates(
            catalog, fraction=size["update_fraction"], seed=leg.seed + 6)
        return catalog, {"datagen": generated - start,
                         "updates": perf_counter() - generated}

    catalog = leg.setup(build)
    outcome = {}

    def plan_once():
        with leg.recorder.span("logical.build"):
            queries = build_workload(catalog, ALL_QUERY_NAMES)
        plan = MQOOptimizer(catalog).build_shared_plan(queries)
        outcome.update(queries=queries, plan=plan)
        return plan

    if leg.columnar or leg.trace:
        samples = leg.repeat("plan", plan_once, 1, 0.0)
    else:
        samples = leg.repeat(
            "plan", plan_once, size["exec_plan_reps"], leg.budget * 0.1)
    if not leg.columnar:
        leg.plan_samples = [sample.seconds for sample in samples]
        leg.raw["plan_s"] = timing.median([s.raw for s in samples])
    plan, queries = outcome["plan"], outcome["queries"]
    parent_pace, leaf_pace = EXEC_PACES[leg.workload]
    paces = {
        subplan.sid: parent_pace if subplan.child_subplans() else leaf_pace
        for subplan in plan.subplans
    }

    executor = leg.run_windows(
        plan, config, paces, size["exec_windows"], leg.budget * 0.9)
    if leg.trace:
        if not leg.columnar:
            leg.traced_op("plan", plan_once)
        leg.stop_tracing()
        if not leg.columnar:
            leg.probe_planning_layers(catalog, queries, config)
    leg.finish_windows(plan, catalog)

    measured = leg.attempt(
        "result run", lambda: executor.run(paces, collect_results=True))
    leg.check_results(leg.workload, measured, catalog, queries, config)
    leg.info.update(scale=scale,
                    update_fraction=size["update_fraction"],
                    paces=[parent_pace, leaf_pace],
                    executions=len(measured.records),
                    subplans=len(plan.subplans),
                    planning_reps=len(samples),
                    windows=len(leg.window_samples))


# -- service_churn --------------------------------------------------------------------------

class ChurnSchedule:
    """The fixed churn script: who registers next, with which goal, who leaves."""

    def __init__(self):
        self.rng = random.Random(SCHEDULE_SEED)
        self.next_id = 0

    def next_registration(self):
        query_id = self.next_id
        self.next_id += 1
        return (query_id, self.rng.choice(ALL_QUERY_NAMES),
                TENANTS[query_id % len(TENANTS)],
                self.rng.choice(CONSTRAINT_LEVELS))

    def departure(self, live_ids):
        """A live id to deregister, or None (p = 0.5)."""
        if self.rng.random() < 0.5:
            return self.rng.choice(sorted(live_ids))
        return None


def _current_rss_mb():
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * resource.getpagesize() / (1024.0 * 1024.0)


def _drive_service(leg, ring, windows):
    """One service lifetime of ``windows`` trigger windows under churn."""
    size = leg.size
    config = OptimizerConfig(max_pace=size["service_max_pace"])
    service = QueryService(
        lambda window: ring[window % len(ring)], config, admission="reject")
    schedule = ChurnSchedule()
    stats = {"register": [], "register_raw": [], "deregister": [],
             "window": [], "window_raw": [], "reoptimized": [], "live": [],
             "statuses": [], "work": [], "missed": 0, "query_windows": 0,
             "rss": {}}

    def register():
        query_id, name, tenant, goal = schedule.next_registration()

        def call():
            with leg.recorder.span("logical.build"):
                query = build_query(service.basis_catalog, name, query_id)
            return service.register(query, tenant, goal)

        sample = leg.attempt(
            "register", lambda: leg.traced_op("register", call))
        stats["register"].append(sample.seconds)
        stats["register_raw"].append(sample.raw)
        stats["statuses"].append(sample.result.status)

    for _ in range(size["service_initial"]):
        register()
    for window in range(windows):
        if window and window % 3 == 0:
            if len(service.registrations) > size["service_low"]:
                leaving = schedule.departure(service.registrations)
                if leaving is not None:
                    sample = leg.attempt(
                        "deregister",
                        lambda: leg.traced_op(
                            "deregister",
                            lambda: service.deregister(leaving)))
                    stats["deregister"].append(sample.seconds)
            if len(service.registrations) < size["service_high"]:
                register()
        sample = leg.attempt(
            "window", lambda: leg.traced_op("window", service.run_window))
        outcome = sample.result
        leg.check(outcome.conserved,
                  "window %d: attribution did not conserve work" % window)
        stats["window"].append(sample.seconds)
        stats["window_raw"].append(sample.raw)
        stats["reoptimized"].append(outcome.reoptimized)
        stats["live"].append(len(outcome.queries))
        stats["work"].append(outcome.total_work)
        stats["query_windows"] += len(outcome.queries)
        stats["missed"] += sum(
            1 for entry in outcome.queries.values()
            if entry["missed_seconds"] > 0)
        if window in (20, windows - 1):
            stats["rss"][window] = _current_rss_mb()
    return service, config, stats


def service_leg(leg):
    size = leg.size

    def build():
        start = perf_counter()
        # window 0 is the service's calibration basis: admission compares
        # goals against statistics of *that* window, and a borderline
        # verdict that flips with the data changes the live set for the
        # rest of the run (work moved 23% between seeds).  The basis is
        # therefore part of the workload; --seed draws the other windows.
        ring = [generate_catalog(scale=size["service_scale"],
                                 seed=SCHEDULE_SEED)]
        ring.extend(
            generate_catalog(scale=size["service_scale"], seed=leg.seed + i)
            for i in range(1, size["service_ring"])
        )
        return ring, {"datagen": perf_counter() - start}

    ring = leg.setup(build)
    if leg.trace:
        windows = size["traced_service_windows"]
    elif leg.columnar:
        windows = max(size["service_columnar_windows"], int(leg.budget * 10))
    else:
        # a fixed schedule keeps the summed work and the SLO count
        # deterministic; --seconds only lengthens it past the floor
        windows = max(size["service_windows"], int(leg.budget * 20))
    service, config, stats = _drive_service(leg, ring, windows)
    if leg.trace:
        leg.start_tracing()
        service, config, traced = _drive_service(leg, ring, windows)
        leg.stop_tracing()
        leg.layers["trace.overhead_ratio"] = _ratio(
            timing.median(traced["window"]), timing.median(stats["window"]))
        leg.check(traced["work"] == stats["work"],
                  "traced and untraced service runs did different work")

    if not leg.columnar:
        leg.plan_samples = stats["register"]
        leg.raw["plan_s"] = timing.median(stats["register_raw"])
    leg.window_samples = stats["window"]
    leg.raw["window_s"] = timing.median(stats["window_raw"])
    leg.total_work = sum(stats["work"])
    leg.work_by_window = stats["work"]

    reopt = [s for s, r in zip(stats["window"], stats["reoptimized"]) if r]
    steady = [s for s, r in zip(stats["window"], stats["reoptimized"]) if not r]
    rss = stats["rss"]
    leg.layers.update({
        "service.register_p90_ms": 1e3 * timing.percentile(stats["register"], 0.9),
        "service.deregister_ms": 1e3 * timing.median(stats["deregister"]),
        "service.window_p90_s": timing.percentile(stats["window"], 0.9),
        "service.reopt_window_s": timing.median(reopt),
        "service.steady_window_s": timing.median(steady),
        "service.reoptimized_windows": len(reopt),
        "service.admitted": stats["statuses"].count("admitted"),
        "service.rejected": stats["statuses"].count("rejected"),
        "service.live_queries_mean": _ratio(sum(stats["live"]), len(stats["live"])),
        "service.rss_growth_mb": rss.get(windows - 1, 0.0) - rss.get(20, 0.0)
        if 20 in rss else 0.0,
        "slo_miss_frac": _ratio(stats["missed"], stats["query_windows"]),
    })

    # result check on one more window, outside the timed region
    window = service.window
    outcome = leg.attempt(
        "result window", lambda: service.run_window(collect_results=True))
    leg.check(outcome.conserved,
              "window %d: attribution did not conserve work" % window)
    queries = [
        Query(service.slots[qid], registration.name, registration.query.root)
        for qid, registration in service.registrations.items()
    ]
    today = ring[window % len(ring)]
    leg.record_arrangements(outcome.run)
    leg.check_results("service_churn", outcome.run, service.basis_catalog,
                      queries, config.stream_config, catalog=today)
    if leg.trace and not leg.columnar:
        leg.probe_planning_layers(
            service.basis_catalog, queries, config.stream_config)
    leg.finish_windows(service.plan, today)
    leg.info.update(scale=size["service_scale"],
                    max_pace=size["service_max_pace"], windows=windows,
                    registrations=len(stats["statuses"]),
                    deregistrations=len(stats["deregister"]),
                    ring=size["service_ring"])


LEGS = {
    "plan_22q": plan_leg,
    "exec_lazy_22q": exec_leg,
    "exec_eager_22q": exec_leg,
    "service_churn": service_leg,
}


def main(argv):
    spec = json.loads(argv[1])
    set_default_cache(None)
    leg = Leg(spec)
    try:
        LEGS[spec["workload"]](leg)
    except _LegAborted:
        pass
    print(json.dumps(leg.report()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
