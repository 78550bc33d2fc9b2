#!/usr/bin/env python3
"""Q-error of the cost model: estimated against measured work per subplan.

For each (subplan, pace) of a plan this script sets the cost model's
estimate (``PlanCostModel.evaluate``) beside the work one execution of
the plan measures (the ``RunResult`` of ``PlanExecutor.run``), for the
subplan's total work over the window and for its final work (its last
execution, the part of a query's latency it contributes).  The ratio is
measured / estimated; the Q-error is ``max(ratio, 1 / ratio)``.  Rows
are bucketed by the kind of the subplan's root operator::

    python3 benchmarks/qerror.py                    # plan_22q and churn
    python3 benchmarks/qerror.py --output qerror.json
    python3 benchmarks/qerror.py --size tiny        # seconds-long smoke run

Two plan sets:

* **plan_22q**: the plan ``optimize_ishare`` chooses for the 22 TPC-H
  queries on the pipeline benchmark's basis catalog (seed
  ``SCHEDULE_SEED``, its scale and ``P_max``), costed and run on that
  same catalog at uniform paces 1, 2, 4, 8, 12 and 20;
* **churn**: the live plan of every window of the pipeline benchmark's
  register/deregister schedule (``ChurnSchedule``), at the paces the
  service chose, measured on that window's catalog.  The estimate is the
  plan's model, calibrated on the basis catalog, so these rows include
  the drift between the basis catalog and the window's.

Printed: the plan_22q table row by row, per set the median and p90
Q-error by kind and pace band, and the reading of subplan 2 at pace 12.
Then, for every plan_22q row at pace >= 8 whose final-work Q-error
exceeds ``TAIL_QERROR`` (the p90 tail), a per-execution table: each
execution's simulated work (``simulate_subplan(...).works``) against its
measured ``ExecutionRecord.work``, its simulated source reads (the input
profiles' window) against what its source operators read, its simulated
output count (the output profile's execution) against the measured
``output_count``, and the measured tuple units split into input, output
and MIN/MAX rescan charges.  The header names the final execution's
latency work and the first execution from which the work and the output
ratio depart by more than ``TAIL_QERROR``.
``--output`` writes every row and summary as JSON.  The workload's
parameters come read-only from ``benchmarks/pipeline/legs.py``.  The
script measures; it does not gate.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "pipeline"))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from legs import SCHEDULE_SEED, SIZES, ChurnSchedule  # noqa: E402

from repro.core.optimizer import (  # noqa: E402
    OptimizerConfig,
    optimize_ishare,
    reference_absolute_constraints,
)
from repro.core.pace import uniform_configuration  # noqa: E402
from repro.cost.memo import PlanCostModel  # noqa: E402
from repro.cost.model import simulate_subplan  # noqa: E402
from repro.engine.executor import CompiledSubplan, PlanExecutor  # noqa: E402
from repro.service.core import QueryService  # noqa: E402
from repro.workloads import random_constraints  # noqa: E402
from repro.workloads.tpch import (  # noqa: E402
    build_query,
    build_workload,
    generate_catalog,
)

PACES = {"full": (1, 2, 4, 8, 12, 20), "tiny": (1, 4)}

#: the churn schedule's length at the benchmark's ``run_seconds`` of 20
CHURN_WINDOWS = {"full": 200, "tiny": 12}

#: paces from here on are the "high pace" band of the summaries
HIGH_PACE = 8

#: a high-pace row whose final-work Q-error exceeds this gets a
#: per-execution table; an execution ratio past it "departs"
TAIL_QERROR = 1.25


def rows_of(plan, paces, estimate, run, **extra):
    """One row per subplan: estimated and measured total and final work."""
    rows = []
    for subplan in plan.subplans:
        sid = subplan.sid
        rows.append(dict(
            extra, sid=sid, pace=paces[sid], kind=subplan.root.kind,
            queries=list(subplan.query_ids()),
            est_total=estimate.subplan_total[sid],
            meas_total=run.subplan_total_work.get(sid, 0.0),
            est_final=estimate.subplan_final[sid],
            meas_final=run.subplan_final_work.get(sid, 0.0),
        ))
    return rows


def ratio(measured, estimated):
    return measured / estimated if estimated > 0 and measured > 0 else None


def qerror(value):
    return None if value is None else max(value, 1.0 / value)


def percentile(values, fraction):
    """Nearest-rank percentile (``benchmarks/pipeline/timing.py``'s rule)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def summarize(rows):
    """Median and p90 Q-error of total and final work per (kind, band),
    with ``"all"`` rows over every kind; rows with zero work on either
    side are counted but have no Q-error."""
    groups = {}
    for row in rows:
        band = "pace>=%d" % HIGH_PACE if row["pace"] >= HIGH_PACE \
            else "pace<%d" % HIGH_PACE
        for kind in (row["kind"], "all"):
            groups.setdefault((kind, band), []).append(row)
    summary = {}
    for (kind, band), members in sorted(groups.items()):
        entry = {"rows": len(members)}
        for what in ("total", "final"):
            errors = [row["q_" + what] for row in members
                      if row["q_" + what] is not None]
            entry[what] = {
                "n": len(errors),
                "median": statistics.median(errors) if errors else None,
                "p90": percentile(errors, 0.9) if errors else None,
            }
        summary["%s %s" % (kind, band)] = entry
    return summary


def finish(rows):
    for row in rows:
        row["ratio_total"] = ratio(row["meas_total"], row["est_total"])
        row["ratio_final"] = ratio(row["meas_final"], row["est_final"])
        row["q_total"] = qerror(row["ratio_total"])
        row["q_final"] = qerror(row["ratio_final"])
    return rows


def metered_run(executor, paces):
    """``executor.run(paces)`` and, per subplan, each execution's measured
    tuple units split the way the WorkMeter charges them: ``{sid:
    [(input, output, rescan, source), ...]}``, ``source`` being what the
    subplan's source operators read from their buffers.  Only read,
    never changed."""
    split = {}
    original = CompiledSubplan.run_execution

    def units(meter):
        return (meter.input_units, meter.output_units, meter.rescan_units,
                sum(charged for name, charged in meter.per_operator.items()
                    if name.startswith("src:")))

    def run_execution(unit, *charges):
        before = units(unit.meter)
        done = original(unit, *charges)
        split.setdefault(unit.subplan.sid, []).append(tuple(
            a - b for a, b in zip(units(unit.meter), before)))
        return done

    CompiledSubplan.run_execution = run_execution
    try:
        return executor.run(paces), split
    finally:
        CompiledSubplan.run_execution = original


def executions_table(model, subplan, pace, evaluation, run, split):
    """Subplan ``subplan`` at ``pace``, execution by execution: simulated
    against measured work, source reads and output count, the measured
    work's input, output and rescan units, and the final execution's
    latency work.  ``evaluation`` is ``model.evaluate(...,
    collect_inputs=True)`` of the paces ``run`` executed, ``split`` its
    :func:`metered_run` units."""
    sid = subplan.sid
    inputs = evaluation.subplan_inputs[sid]
    sim = simulate_subplan(subplan, pace, inputs, model.config,
                           program=model.programs[sid])
    keys = model.programs[sid][1]
    records = run.executions_of(sid)
    assert len(records) == pace == len(sim.works), (sid, pace, len(records))
    executions = []
    for index, (record, est_work, units) in enumerate(
            zip(records, sim.works, split[sid]), 1):
        meas_work = record.work / run.quantum
        est_out = sim.out_profile.window(index, pace).total
        executions.append(dict(
            execution=index,
            est_work=est_work, meas_work=meas_work, meas_quanta=record.work,
            ratio_work=ratio(meas_work, est_work),
            est_source=sum(inputs[key].window(index, pace).total
                           for key in keys),
            meas_source=units[3],
            est_out=est_out, meas_out=record.output_count,
            ratio_out=ratio(record.output_count, est_out),
            meas_input_units=units[0], meas_output_units=units[1],
            meas_rescan_units=units[2],
        ))
    return dict(
        sid=sid, pace=pace, kind=subplan.root.kind,
        executions=executions,
        est_latency=sim.private_final,
        meas_latency=records[-1].latency_work / run.quantum,
        work_departs=departure(executions, "work"),
        out_departs=departure(executions, "out"),
    )


def departure(executions, what):
    """The first execution whose ``ratio_<what>`` is past ``TAIL_QERROR``
    either way, or None.  Where one side is zero the other must reach
    one whole tuple to count: an estimate of 0.4 outputs is no departure
    from none."""
    for execution in executions:
        value = execution["ratio_" + what]
        if value is None:
            if max(execution["est_" + what], execution["meas_" + what]) >= 1:
                return execution["execution"]
        elif qerror(value) > TAIL_QERROR:
            return execution["execution"]
    return None


def plan_22q(size, paces):
    """The chosen 22-query plan at uniform paces on its own catalog."""
    config = OptimizerConfig(max_pace=size["plan_max_pace"])
    basis = generate_catalog(scale=size["plan_scale"], seed=SCHEDULE_SEED)
    queries = build_workload(basis, size["plan_queries"])
    relative = random_constraints(
        [query.query_id for query in queries], seed=SCHEDULE_SEED)
    absolute = reference_absolute_constraints(basis, queries, relative, config)
    result = optimize_ishare(
        basis, queries, relative, config, absolute_constraints=absolute)
    plan = result.plan
    model = PlanCostModel(plan, config.cost_config)
    executor = PlanExecutor(plan, config.stream_config, catalog=basis)
    rows, tables = [], []
    for pace in paces:
        uniform = uniform_configuration(plan, pace)
        evaluation = model.evaluate(uniform, collect_inputs=True)
        run, split = metered_run(executor, uniform)
        measured = finish(rows_of(plan, uniform, evaluation, run))
        rows += measured
        tables += [
            dict(executions_table(model, plan.subplan_by_id(row["sid"]),
                                  pace, evaluation, run, split),
                 q_final=row["q_final"])
            for row in measured
            if pace >= HIGH_PACE and (row["q_final"] or 0) > TAIL_QERROR
        ]
    info = {"scale": size["plan_scale"], "max_pace": size["plan_max_pace"],
            "queries": len(queries), "subplans": len(plan.subplans)}
    return rows, tables, info


def churn(size, windows):
    """Every window's live plan under the benchmark's churn schedule."""
    ring = [generate_catalog(scale=size["service_scale"], seed=SCHEDULE_SEED)]
    ring += [
        generate_catalog(scale=size["service_scale"], seed=SCHEDULE_SEED + i)
        for i in range(1, size["service_ring"])
    ]
    config = OptimizerConfig(max_pace=size["service_max_pace"])
    service = QueryService(lambda window: ring[window % len(ring)], config)
    schedule = ChurnSchedule()

    def register():
        query_id, name, tenant, goal = schedule.next_registration()
        query = build_query(service.basis_catalog, name, query_id)
        service.register(query, tenant, goal)

    for _ in range(size["service_initial"]):
        register()
    models = {}  # plan -> its raw model, one per plan the service adopted
    rows = []
    for window in range(windows):
        if window and window % 3 == 0:
            if len(service.registrations) > size["service_low"]:
                leaving = schedule.departure(service.registrations)
                if leaving is not None:
                    service.deregister(leaving)
            if len(service.registrations) < size["service_high"]:
                register()
        plan = service.plan
        outcome = service.run_window()
        if outcome.run is None:
            continue
        model = models.get(plan)
        if model is None:
            models.clear()  # the service never returns to an older plan
            model = models[plan] = PlanCostModel(plan, config.cost_config)
        paces = outcome.run.pace_config
        rows += rows_of(plan, paces, model.evaluate(paces), outcome.run,
                        window=window)
    info = {"scale": size["service_scale"],
            "max_pace": size["service_max_pace"], "windows": windows}
    return finish(rows), info


def _fmt(value, pattern="%.2f"):
    return "-" if value is None else pattern % value


def render(name, rows, summary, info, table=False):
    lines = ["%s: %s" % (name, ", ".join(
        "%s %s" % item for item in sorted(info.items())))]
    if table:
        lines.append("%5s %4s %-9s %10s %10s %6s %10s %10s %6s" % (
            "pace", "sid", "kind", "est total", "meas total", "ratio",
            "est final", "meas final", "ratio"))
        for row in rows:
            lines.append("%5d %4d %-9s %10.1f %10.1f %6s %10.1f %10.1f %6s" % (
                row["pace"], row["sid"], row["kind"],
                row["est_total"], row["meas_total"], _fmt(row["ratio_total"]),
                row["est_final"], row["meas_final"], _fmt(row["ratio_final"])))
    lines.append("%-20s %5s %14s %14s" % (
        "Q-error", "rows", "total med/p90", "final med/p90"))
    for group, entry in summary.items():
        lines.append("%-20s %5d %14s %14s" % (
            group, entry["rows"],
            "%s/%s" % (_fmt(entry["total"]["median"]),
                       _fmt(entry["total"]["p90"])),
            "%s/%s" % (_fmt(entry["final"]["median"]),
                       _fmt(entry["final"]["p90"]))))
    return "\n".join(lines)


def render_executions(table):
    """One tail row's per-execution table."""
    lines = [
        "subplan %d at pace %d (%s, final Q-error %.2f): final latency "
        "work %.1f estimated, %.1f measured; work departs at %s, output "
        "at %s" % (
            table["sid"], table["pace"], table["kind"], table["q_final"],
            table["est_latency"], table["meas_latency"],
            _fmt(table["work_departs"], "%d"),
            _fmt(table["out_departs"], "%d")),
        "%5s %9s %9s %8s %6s %8s %8s %8s %8s %6s %6s %6s %6s" % (
            "exec", "est work", "meas work", "quanta", "ratio",
            "est src", "meas src", "est out", "meas out", "ratio",
            "in", "out", "rescan"),
    ]
    for execution in table["executions"]:
        lines.append(
            "%5d %9.1f %9.1f %8d %6s %8.1f %8d %8.1f %8d %6s %6d %6d %6d" % (
                execution["execution"], execution["est_work"],
                execution["meas_work"], execution["meas_quanta"],
                _fmt(execution["ratio_work"]), execution["est_source"],
                execution["meas_source"], execution["est_out"],
                execution["meas_out"], _fmt(execution["ratio_out"]),
                execution["meas_input_units"],
                execution["meas_output_units"],
                execution["meas_rescan_units"]))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--output", help="also write rows and summaries as JSON")
    args = parser.parse_args(argv)
    size = SIZES[args.size]

    report = {"size": args.size}
    rows, tables, info = plan_22q(size, PACES[args.size])
    summary = summarize(rows)
    report["plan_22q"] = {"info": info, "summary": summary, "rows": rows,
                          "executions": tables}
    print(render("plan_22q", rows, summary, info, table=True))
    reading = [row for row in rows if row["sid"] == 2 and row["pace"] == 12]
    if reading:
        row = reading[0]
        report["plan_22q"]["subplan_2_pace_12"] = row
        print("subplan 2 at pace 12: total %.1f estimated, %.1f measured "
              "(%sx); final %.1f estimated, %.1f measured (%sx)" % (
                  row["est_total"], row["meas_total"],
                  _fmt(row["ratio_total"]), row["est_final"],
                  row["meas_final"], _fmt(row["ratio_final"])))
    print("plan_22q rows at pace >= %d with final Q-error above %.2f: %d"
          % (HIGH_PACE, TAIL_QERROR, len(tables)))
    for table in tables:
        print(render_executions(table))

    rows, info = churn(size, CHURN_WINDOWS[args.size])
    summary = summarize(rows)
    report["churn"] = {"info": info, "summary": summary, "rows": rows}
    print(render("churn", rows, summary, info))

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
