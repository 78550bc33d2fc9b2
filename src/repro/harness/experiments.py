"""Drivers that regenerate every table and figure of the paper's section 5.

Each ``figN`` / ``tableN`` function builds the workload the paper used,
runs the approaches, and returns an experiment result whose ``text()``
prints the same rows/series the paper reports.  Benchmarks under
``benchmarks/`` call these one-to-one; ``scale`` and ``max_pace`` shrink
the micro-benchmark to laptop size without changing any comparison shape.
"""

import statistics
import time

from ..core.optimizer import OptimizerConfig
from ..core.split import LocalSplitOptimizer
from ..cost.memo import OptimizationTimeout, PlanCostModel
from ..engine.calibrate import calibrate_plan
from ..engine.executor import PlanExecutor
from ..engine.stream import StreamConfig
from ..mqo.merge import MQOOptimizer, build_unshared_plan
from ..physical.hotpath import engine_mode_label
from ..workloads.constraints import CONSTRAINT_LEVELS, random_constraints, uniform_constraints
from ..workloads.tpch import (
    ALL_QUERY_NAMES,
    SHARING_FRIENDLY,
    build_pair,
    build_query,
    build_variant_workload,
    build_workload,
    generate_catalog,
    mutate_query,
)
from .parallel import ExperimentCell, run_cells, timing_report
from .report import MISSED_HEADERS, format_table, missed_latency_row
from .runner import APPROACHES, ExperimentRunner


def default_config(max_pace=100, state_factor=0.3, time_budget=None):
    """The benchmark-default optimizer configuration."""
    stream = StreamConfig(state_factor=state_factor)
    return OptimizerConfig(
        max_pace=max_pace, stream_config=stream, time_budget=time_budget
    )


class ExperimentResult:
    """A named experiment with printable sections and structured data."""

    def __init__(self, name):
        self.name = name
        self.sections = []
        self.tables = []  # (headers, rows) for CSV export
        self.data = {}
        # backend attribution stamped into every report header so archived
        # results say which engine path produced them
        self.engine_mode = engine_mode_label()
        self.data["engine_mode"] = self.engine_mode

    def add_section(self, text):
        self.sections.append(text)

    def add_table(self, headers, rows, title=None):
        """Record and render a table (kept for :meth:`to_csv`)."""
        self.tables.append((tuple(headers), [list(r) for r in rows]))
        self.add_section(format_table(headers, rows, title))

    def text(self):
        header = "== %s ==" % self.name
        engine = "[engine: %s]" % self.engine_mode
        return ("\n\n").join([header, engine] + self.sections)

    def to_csv(self):
        """All recorded tables as one CSV string (blank line between)."""
        import csv
        import io

        out = io.StringIO()
        writer = csv.writer(out)
        for headers, rows in self.tables:
            writer.writerow(headers)
            for row in rows:
                writer.writerow(row)
            writer.writerow([])
        return out.getvalue()

    def __repr__(self):
        return "ExperimentResult(%r)" % self.name


def _total_seconds_table(result, title, rows_by_label):
    headers = ["Constraints"] + list(APPROACHES)
    rows = []
    for label, by_approach in rows_by_label:
        rows.append([label] + [by_approach[name].total_seconds for name in APPROACHES])
    result.add_table(headers, rows, title)


def _run_sweep(runner, cells, jobs):
    """Run a sweep's cells; returns ``(outcomes, by_key, wall_seconds)``."""
    started = time.monotonic()
    outcomes = run_cells(runner, cells, jobs=jobs)
    wall_seconds = time.monotonic() - started
    by_key = {outcome.key: outcome for outcome in outcomes}
    return outcomes, by_key, wall_seconds


def _accumulate_missed(missed_all, name, approach):
    """Fold one approach run's missed latencies into the sweep totals."""
    if missed_all[name] is None:
        missed_all[name] = approach.missed
    else:
        missed_all[name].absolute.extend(approach.missed.absolute)
        missed_all[name].relative.extend(approach.missed.relative)


def _finish_sweep(result, outcomes, jobs, wall_seconds):
    """Shared sweep epilogue: the timing block."""
    result.data["timings"] = timing_report(outcomes, jobs, wall_seconds)
    return result


# -- Figure 9: random relative constraints -------------------------------------

def fig9(scale=0.5, max_pace=100, seeds=(1, 2, 3), config=None, jobs=1,
         catalog_seed=5):
    """Mean/min/max total execution time over random constraint sets."""
    config = config or default_config(max_pace)
    catalog = generate_catalog(scale=scale, seed=catalog_seed)
    queries = build_workload(catalog)
    runner = ExperimentRunner(catalog, queries, config)
    result = ExperimentResult("Figure 9: tests of random relative constraints")
    result.data["catalog_seed"] = catalog_seed
    totals = {name: [] for name in APPROACHES}
    missed_all = {name: None for name in APPROACHES}
    per_seed = []
    cells = [
        ExperimentCell(
            name, random_constraints(range(len(queries)), seed=seed),
            key=(seed, name),
        )
        for seed in seeds
        for name in APPROACHES
    ]
    outcomes, by_key, wall_seconds = _run_sweep(runner, cells, jobs)
    for seed in seeds:
        approach_results = {}
        for name in APPROACHES:
            approach = by_key[(seed, name)].result
            approach_results[name] = approach
            totals[name].append(approach.total_seconds)
            _accumulate_missed(missed_all, name, approach)
        per_seed.append((seed, approach_results))
    rows = []
    for name in APPROACHES:
        values = totals[name]
        rows.append([name, statistics.mean(values), min(values), max(values)])
    result.add_table(
        ("Approach", "Mean s", "Min s", "Max s"),
        rows,
        "Total execution time, %d random constraint sets" % len(seeds),
    )
    result.data["totals"] = totals
    result.data["missed"] = missed_all
    result.data["per_seed"] = per_seed
    return _finish_sweep(result, outcomes, jobs, wall_seconds)


# -- Figure 10: batch execution of the shared plan -----------------------------

def fig10(scale=0.5, config=None, catalog_seed=5):
    """Shared-plan batch work relative to independent batch execution."""
    config = config or default_config()
    catalog = generate_catalog(scale=scale, seed=catalog_seed)
    queries = build_workload(catalog)
    unshared = build_unshared_plan(catalog, queries)
    unshared_run = PlanExecutor(unshared, config.stream_config).run(
        {s.sid: 1 for s in unshared.subplans}, collect_results=False
    )
    shared = MQOOptimizer(catalog).build_shared_plan(queries)
    shared_run = PlanExecutor(shared, config.stream_config).run(
        {s.sid: 1 for s in shared.subplans}, collect_results=False
    )
    ratio = shared_run.total_work / unshared_run.total_work
    result = ExperimentResult("Figure 10: batch execution (22 queries)")
    result.data["catalog_seed"] = catalog_seed
    result.add_table(
        ("Plan", "Total work", "Relative"),
        [
            ["Independent", unshared_run.total_work, 1.0],
            ["Shared (MQO)", shared_run.total_work, ratio],
        ],
        "One-batch execution",
    )
    result.data["ratio"] = ratio
    result.data["unshared"] = unshared_run.total_work
    result.data["shared"] = shared_run.total_work
    return result


# -- Figures 11/12: uniform relative constraints --------------------------------

def _uniform_sweep(names, title, scale, max_pace, levels, config, jobs=1,
                   catalog_seed=5):
    config = config or default_config(max_pace)
    catalog = generate_catalog(scale=scale, seed=catalog_seed)
    queries = build_workload(catalog, names)
    runner = ExperimentRunner(catalog, queries, config)
    result = ExperimentResult(title)
    result.data["catalog_seed"] = catalog_seed
    rows_by_label = []
    missed_all = {name: None for name in APPROACHES}
    cells = [
        ExperimentCell(
            name, uniform_constraints(range(len(queries)), level),
            key=(level, name),
        )
        for level in levels
        for name in APPROACHES
    ]
    outcomes, by_key, wall_seconds = _run_sweep(runner, cells, jobs)
    for level in levels:
        by_approach = {}
        for name in APPROACHES:
            approach = by_key[(level, name)].result
            by_approach[name] = approach
            _accumulate_missed(missed_all, name, approach)
        rows_by_label.append(("rel=%.1f" % level, by_approach))
    _total_seconds_table(result, "Total execution time (s)", rows_by_label)
    result.data["rows"] = rows_by_label
    result.data["missed"] = missed_all
    return _finish_sweep(result, outcomes, jobs, wall_seconds)


def fig11(scale=0.5, max_pace=100, levels=CONSTRAINT_LEVELS, config=None,
          jobs=1, catalog_seed=5):
    """Uniform relative constraints over all 22 queries."""
    return _uniform_sweep(
        ALL_QUERY_NAMES,
        "Figure 11: uniform relative constraints (22 queries)",
        scale, max_pace, levels, config, jobs=jobs, catalog_seed=catalog_seed,
    )


def fig12(scale=0.5, max_pace=100, levels=CONSTRAINT_LEVELS, config=None,
          jobs=1, catalog_seed=5):
    """Uniform relative constraints over the sharing-friendly 10 queries."""
    return _uniform_sweep(
        SHARING_FRIENDLY,
        "Figure 12: uniform relative constraints (10 queries)",
        scale, max_pace, levels, config, jobs=jobs, catalog_seed=catalog_seed,
    )


# -- Table 1: missed latencies ---------------------------------------------------

def table1(scale=0.5, max_pace=100, seeds=(1, 2, 3), config=None, jobs=1,
           catalog_seed=5):
    """Missed latencies of random and uniform relative constraints."""
    random_result = fig9(scale, max_pace, seeds, config, jobs=jobs,
                         catalog_seed=catalog_seed)
    uniform22 = fig11(scale, max_pace, config=config, jobs=jobs,
                      catalog_seed=catalog_seed)
    uniform10 = fig12(scale, max_pace, config=config, jobs=jobs,
                      catalog_seed=catalog_seed)
    result = ExperimentResult("Table 1: missed latencies (random and uniform)")
    result.data["catalog_seed"] = catalog_seed
    rows = [
        missed_latency_row(name, random_result.data["missed"][name])
        for name in APPROACHES
    ]
    result.add_section(format_table(MISSED_HEADERS, rows, "Random constraints"))
    uniform_missed = uniform22.data["missed"]
    for name in APPROACHES:
        uniform_missed[name].absolute.extend(uniform10.data["missed"][name].absolute)
        uniform_missed[name].relative.extend(uniform10.data["missed"][name].relative)
    rows = [missed_latency_row(name, uniform_missed[name]) for name in APPROACHES]
    result.add_section(format_table(MISSED_HEADERS, rows, "Uniform constraints"))
    result.data["random"] = random_result.data["missed"]
    result.data["uniform"] = uniform_missed
    return result


# -- Figure 13 / Table 2: manually tuned paces -----------------------------------

def fig13(scale=0.5, max_pace=100, level=0.1, config=None, tuning_rounds=4,
          catalog_seed=5):
    """Manually tuned pace configurations at relative constraint ``level``.

    NoShare-Uniform and Share-Uniform are tuned by searching paces
    directly against *measured* latencies; NoShare-Nonuniform and iShare
    are tuned by tightening the relative constraints of queries that miss
    (exactly the paper's tuning protocol, section 5.3).
    """
    config = config or default_config(max_pace)
    catalog = generate_catalog(scale=scale, seed=catalog_seed)
    queries = build_workload(catalog)
    runner = ExperimentRunner(catalog, queries, config)
    base = uniform_constraints(range(len(queries)), level)
    goals = runner.latency_goals(base)

    results = {}
    for name in ("NoShare-Uniform", "Share-Uniform"):
        results[name] = _tune_paces_measured(runner, name, base, goals, max_pace)
    for name in ("NoShare-Nonuniform", "iShare"):
        results[name] = _tune_constraints(runner, name, base, goals, tuning_rounds)

    result = ExperimentResult("Figure 13 / Table 2: manually tuned paces")
    result.data["catalog_seed"] = catalog_seed
    rows = [[name, results[name].total_seconds] for name in APPROACHES]
    result.add_section(format_table(("Approach", "Total s"), rows, "CPU seconds"))
    rows = [missed_latency_row(name, results[name].missed) for name in APPROACHES]
    result.add_section(format_table(MISSED_HEADERS, rows, "Missed latencies"))
    result.data["results"] = results
    return result


def _tune_paces_measured(runner, name, relative, goals, max_pace,
                         approach=None):
    """Raise group paces until measured latencies meet the goals."""
    if approach is None:
        approach = runner.run_approach(name, relative)
    plan = approach.optimization.plan
    pace_config = dict(approach.optimization.pace_config)
    pace_config = _nudge_paces(
        plan, pace_config, goals, max_pace, runner.config.stream_config
    )
    return runner.run_approach(name, relative, pace_override=pace_config)


def _nudge_paces(plan, pace_config, goals, max_pace, stream_config):
    """Measured-latency pace bumps for queries that still miss."""
    pace_config = dict(pace_config)
    executor = PlanExecutor(plan, stream_config)
    for _ in range(12):
        run = executor.run(pace_config, collect_results=False)
        missing = [
            qid for qid, goal in goals.items()
            if run.query_latency_seconds(qid) > goal
        ]
        if not missing:
            break
        changed = False
        for qid in missing:
            for subplan in plan.subplans_of_query(qid):
                new_pace = min(max_pace, int(pace_config[subplan.sid] * 1.5) + 1)
                if new_pace > pace_config[subplan.sid]:
                    pace_config[subplan.sid] = new_pace
                    changed = True
        _repair_pace_order(plan, pace_config)
        if not changed:
            break
    return pace_config


def _repair_pace_order(plan, pace_config):
    """Raise child paces so no parent is eagerer than its children."""
    for subplan in reversed(plan.topological_order()):
        for child in subplan.child_subplans():
            if pace_config[child.sid] < pace_config[subplan.sid]:
                pace_config[child.sid] = pace_config[subplan.sid]


def _tune_constraints(runner, name, relative, goals, rounds):
    """Tighten the relative constraints of queries that miss, re-optimize.

    If constraint tightening alone cannot close the gap (cost-model error
    on very small queries), finish with measured-latency pace bumps on the
    still-missing queries -- the per-query half of the paper's manual
    tuning protocol.
    """
    current = dict(relative)
    best = runner.run_approach(name, current)
    for _ in range(rounds):
        missing = [
            qid for qid, goal in goals.items()
            if best.run.query_latency_seconds(qid) > goal
        ]
        if not missing:
            return best
        for qid in missing:
            current[qid] = max(current[qid] * 0.6, 0.01)
        candidate = runner.run_approach(name, current)
        best = candidate
    paces = _nudge_paces(
        best.optimization.plan, best.optimization.pace_config, goals,
        runner.config.max_pace, runner.config.stream_config,
    )
    return runner.run_approach(name, current, pace_override=paces)


# -- Figure 14 / Table 3: decomposition ablation ----------------------------------

def fig14(scale=0.5, max_pace=100, levels=CONSTRAINT_LEVELS, config=None,
          seed=0, jobs=1, catalog_seed=5):
    """The section 5.4 decomposition experiment.

    Workload: the 10 sharing-friendly queries plus predicate-mutated
    variants (20 queries).  Compares the four approaches plus iShare
    without decomposition and iShare with the brute-force splitter.
    """
    config = config or default_config(max_pace)
    catalog = generate_catalog(scale=scale, seed=catalog_seed)
    queries = build_variant_workload(catalog, SHARING_FRIENDLY, build_query, seed)
    runner = ExperimentRunner(catalog, queries, config)
    names = list(APPROACHES) + ["iShare (w/o unshare)", "iShare (Brute-Force)"]
    result = ExperimentResult("Figure 14 / Table 3: decomposition ablation")
    result.data["catalog_seed"] = catalog_seed
    headers = ["Constraints"] + names
    rows = []
    missed_all = {name: None for name in names}
    cells = [
        ExperimentCell(
            name, uniform_constraints(range(len(queries)), level),
            key=(level, name),
        )
        for level in levels
        for name in names
    ]
    outcomes, by_key, wall_seconds = _run_sweep(runner, cells, jobs)
    for level in levels:
        row = ["rel=%.1f" % level]
        for name in names:
            approach = by_key[(level, name)].result
            row.append(approach.total_seconds)
            _accumulate_missed(missed_all, name, approach)
        rows.append(row)
    result.add_section(format_table(headers, rows, "Total execution time (s)"))
    rows = [missed_latency_row(name, missed_all[name]) for name in names]
    result.add_section(format_table(MISSED_HEADERS, rows, "Missed latencies (Table 3)"))
    result.data["missed"] = missed_all
    result.data["rows"] = rows
    return _finish_sweep(result, outcomes, jobs, wall_seconds)


# -- Figure 15: optimization overhead / memoization --------------------------------

def fig15(scale=0.35, max_paces=(10, 25, 50, 100), level=0.01, config=None,
          dnf_seconds=60.0, catalog_seed=5):
    """Optimization time vs max pace, with and without memoization.

    ``dnf_seconds`` scales the paper's 30-minute cutoff down to the micro
    benchmark; runs exceeding it are reported as DNF.
    """
    catalog = generate_catalog(scale=scale, seed=catalog_seed)
    queries = build_workload(catalog)
    result = ExperimentResult("Figure 15: optimization overhead (memoization)")
    result.data["catalog_seed"] = catalog_seed
    rows = []
    for max_pace in max_paces:
        row = ["max pace %d" % max_pace]
        for use_memo in (True, False):
            cfg = config or default_config(max_pace)
            cfg = OptimizerConfig(
                max_pace=max_pace,
                stream_config=cfg.stream_config,
                use_memo=use_memo,
                enable_unshare=False,  # isolate the pace search like [44]
                time_budget=dnf_seconds,
            )
            runner = ExperimentRunner(catalog, queries, cfg)
            relative = uniform_constraints(range(len(queries)), level)
            try:
                approach = runner.run_approach("iShare (w/o unshare)", relative)
                row.append(approach.optimization_seconds)
            except OptimizationTimeout:
                row.append("DNF(>%.0fs)" % dnf_seconds)
        rows.append(row)
    result.add_section(
        format_table(
            ("Setting", "iShare (w/ memo)", "iShare (w/o memo)"),
            rows,
            "Optimization time (s); DNF cutoff %.0fs" % dnf_seconds,
        )
    )
    result.data["rows"] = rows
    return result


# -- Figure 16: clustering vs brute-force splitting ---------------------------------

def fig16(scale=0.35, max_pace=100, query_counts=(2, 3, 4, 5, 6, 7),
          config=None, catalog_seed=5):
    """Split-search time: greedy clustering vs brute-force enumeration.

    Builds N predicate-variants of one sharing-friendly query so they all
    share one subplan, then times both splitters on that subplan's local
    optimization problem.
    """
    config = config or default_config(max_pace)
    catalog = generate_catalog(scale=scale, seed=catalog_seed)
    result = ExperimentResult("Figure 16: clustering vs brute-force split search")
    result.data["catalog_seed"] = catalog_seed
    rows = []
    for count in query_counts:
        base = build_query(catalog, "Q5", 0)
        queries = [base] + [
            mutate_query(base, qid, seed=qid) for qid in range(1, count)
        ]
        plan = MQOOptimizer(catalog).build_shared_plan(queries)
        calibrate_plan(plan, config.stream_config)
        model = PlanCostModel(plan, config.cost_config)
        relative = uniform_constraints(range(count), 0.1)
        absolute = model.absolute_constraints(relative)
        shared = max(
            plan.shared_subplans(), key=lambda s: len(s.query_ids()), default=None
        )
        if shared is None:
            continue
        evaluation = model.evaluate(
            {s.sid: 1 for s in plan.subplans}, collect_inputs=True
        )
        local = model.local_constraints(shared, absolute)
        timings = []
        for method in ("cluster", "brute_force"):
            splitter = LocalSplitOptimizer(
                shared, evaluation.subplan_inputs[shared.sid], local,
                max_pace, config.cost_config,
            )
            started = time.monotonic()
            getattr(splitter, method)()
            timings.append(time.monotonic() - started)
        rows.append(["%d queries" % count] + timings)
    result.add_section(
        format_table(("Setting", "Clustering s", "Brute-force s"), rows,
                     "Split-search time")
    )
    result.data["rows"] = rows
    return result


# -- Figure 17: incrementability micro-benchmarks ------------------------------------

PAIRS = {
    "PairA": ("Q5", "Q8"),
    "PairB": ("Q15", "Q7"),
    "PairC": ("QA", "QB"),
}


def fig17(scale=0.5, max_pace=100, levels=CONSTRAINT_LEVELS, config=None,
          jobs=1, catalog_seed=5):
    """Query pairs with varied incrementability (Figure 17 a/b/c).

    The first query of each pair keeps relative constraint 1.0 (Q5, Q15,
    QA per the paper); the second query's constraint sweeps the levels.
    """
    config = config or default_config(max_pace)
    catalog = generate_catalog(scale=scale, seed=catalog_seed)
    result = ExperimentResult("Figure 17: incrementability micro-benchmarks")
    result.data["catalog_seed"] = catalog_seed
    result.data["pairs"] = {}
    all_outcomes = []
    wall_seconds = 0.0
    for pair_name, (fixed_name, varied_name) in PAIRS.items():
        if pair_name == "PairC":
            queries = build_pair(catalog)  # QA id 0, QB id 1
        else:
            queries = [
                build_query(catalog, fixed_name, 0),
                build_query(catalog, varied_name, 1),
            ]
        runner = ExperimentRunner(catalog, queries, config)
        cells = [
            ExperimentCell(name, {0: 1.0, 1: level}, key=(level, name))
            for level in levels
            for name in APPROACHES
        ]
        outcomes, by_key, pair_wall = _run_sweep(runner, cells, jobs)
        wall_seconds += pair_wall
        all_outcomes.extend(outcomes)
        rows_by_label = [
            (
                "rel=%.1f" % level,
                {name: by_key[(level, name)].result for name in APPROACHES},
            )
            for level in levels
        ]
        headers = ["%s (vary %s)" % (pair_name, varied_name)] + list(APPROACHES)
        rows = [
            [label] + [by_approach[name].total_seconds for name in APPROACHES]
            for label, by_approach in rows_by_label
        ]
        result.add_section(format_table(headers, rows))
        result.data["pairs"][pair_name] = rows_by_label
    return _finish_sweep(result, all_outcomes, jobs, wall_seconds)


# -- the section 5.2 "simple approach" baseline -----------------------------------

def two_phase_baseline(scale=0.4, max_pace=100, level=0.1, config=None,
                       first_points=(0.25, 0.5, 0.75, 0.9), catalog_seed=5):
    """The paper's simple two-execution baseline vs iShare.

    Section 5.2 also compares "a simple approach that starts one execution
    before the trigger point and a final execution at the trigger point",
    tuned over the point of the first execution; the paper finds it misses
    latencies badly (up to 1046%) while iShare's misses are zero in the
    same test.
    """
    from fractions import Fraction

    config = config or default_config(max_pace)
    catalog = generate_catalog(scale=scale, seed=catalog_seed)
    queries = build_workload(catalog)
    runner = ExperimentRunner(catalog, queries, config)
    relative = uniform_constraints(range(len(queries)), level)
    goals = runner.latency_goals(relative)

    result = ExperimentResult(
        "Two-phase baseline (one pre-trigger execution) vs iShare"
    )
    result.data["catalog_seed"] = catalog_seed
    rows = []
    best = None
    unshared = build_unshared_plan(catalog, queries)
    executor = PlanExecutor(unshared, config.stream_config)
    for point in first_points:
        fraction = Fraction(point).limit_denominator(100)
        run = executor.run_schedule(
            {s.sid: [fraction, Fraction(1)] for s in unshared.subplans}
        )
        from ..engine.metrics import MissedLatencySummary

        missed = MissedLatencySummary()
        for qid, goal in goals.items():
            missed.add(run.stream_config.seconds(run.query_final_work[qid]), goal)
        rows.append([
            "first at %.0f%%" % (100 * point),
            run.total_seconds,
            missed.mean_percent,
            missed.max_percent,
        ])
        if best is None or missed.max_percent < best[0]:
            best = (missed.max_percent, run.total_seconds)

    ishare = runner.run_approach("iShare", relative)
    rows.append([
        "iShare", ishare.total_seconds,
        ishare.missed.mean_percent, ishare.missed.max_percent,
    ])
    result.add_section(format_table(
        ("Setting", "Total s", "Mean miss %", "Max miss %"), rows,
        "Two-phase baseline (tuned first point) vs iShare, rel=%.1f" % level,
    ))
    result.data["rows"] = rows
    result.data["best_two_phase_max_miss"] = best[0]
    result.data["ishare_max_miss"] = ishare.missed.max_percent
    return result
