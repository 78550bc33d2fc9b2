"""The Q-error tool (``benchmarks/qerror.py``) on a toy shared plan: one row
per (subplan, pace), ratios of measured to estimated work, and summaries
by root-operator kind and pace band."""

import importlib.util
import os

import pytest

from repro.core.pace import uniform_configuration
from repro.cost.memo import PlanCostModel
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig

from .util import (
    calibrated_shared_plan,
    make_toy_catalog,
    toy_query_max,
    toy_query_region,
    toy_query_total,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "qerror", os.path.join(ROOT, "benchmarks", "qerror.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rows_and_summaries_on_a_toy_plan():
    qerror = load_tool()
    catalog = make_toy_catalog()
    queries = [toy_query_total(catalog, 0), toy_query_region(catalog, 1),
               toy_query_max(catalog, 2)]
    stream_config = StreamConfig()
    plan = calibrated_shared_plan(catalog, queries, stream_config)
    model = PlanCostModel(plan)
    executor = PlanExecutor(plan, stream_config)
    rows = []
    for pace in (1, 3, 10):
        paces = uniform_configuration(plan, pace)
        rows += qerror.rows_of(plan, paces, model.evaluate(paces),
                               executor.run(paces), window=pace)
    rows = qerror.finish(rows)

    assert len(rows) == 3 * len(plan.subplans)
    kinds = {subplan.sid: subplan.root.kind for subplan in plan.subplans}
    for row in rows:
        assert row["kind"] == kinds[row["sid"]]
        assert row["pace"] == row["window"]
        for what in ("total", "final"):
            estimated, measured = row["est_" + what], row["meas_" + what]
            if estimated > 0 and measured > 0:
                assert row["ratio_" + what] == measured / estimated
                assert row["q_" + what] >= 1.0
                assert row["q_" + what] in (
                    row["ratio_" + what], 1.0 / row["ratio_" + what])
            else:
                assert row["q_" + what] is None

    summary = qerror.summarize(rows)
    assert summary["all pace<8"]["rows"] == 2 * len(plan.subplans)
    assert summary["all pace>=8"]["rows"] == len(plan.subplans)
    assert sum(entry["rows"] for group, entry in summary.items()
               if not group.startswith("all")) == len(rows)
    high = [row["q_final"] for row in rows
            if row["pace"] >= 8 and row["q_final"] is not None]
    entry = summary["all pace>=8"]["final"]
    assert entry["n"] == len(high)
    assert entry["median"] <= entry["p90"] == qerror.percentile(high, 0.9)


def test_execution_tables_add_up_to_their_row():
    qerror = load_tool()
    catalog = make_toy_catalog()
    queries = [toy_query_total(catalog, 0), toy_query_region(catalog, 1),
               toy_query_max(catalog, 2)]
    stream_config = StreamConfig()
    plan = calibrated_shared_plan(catalog, queries, stream_config)
    model = PlanCostModel(plan)
    pace = 10
    paces = uniform_configuration(plan, pace)
    evaluation = model.evaluate(paces, collect_inputs=True)
    run, split = qerror.metered_run(PlanExecutor(plan, stream_config), paces)
    assert run.total_quanta == PlanExecutor(plan, stream_config).run(
        paces).total_quanta
    quantum = run.quantum
    for subplan in plan.subplans:
        sid = subplan.sid
        table = qerror.executions_table(
            model, subplan, pace, evaluation, run, split)
        executions = table["executions"]
        assert [e["execution"] for e in executions] == list(range(1, 11))
        # the simulated executions are the estimate's, the measured the run's
        assert sum(e["est_work"] for e in executions) == pytest.approx(
            evaluation.subplan_total[sid])
        assert table["est_latency"] == evaluation.subplan_final[sid]
        assert sum(e["meas_quanta"] for e in executions) == \
            run.subplan_total_quanta[sid]
        assert table["meas_latency"] == run.subplan_final_work[sid]
        last = executions[-1]
        tuple_units = (last["meas_input_units"] + last["meas_output_units"]
                       + last["meas_rescan_units"])
        overhead = int(stream_config.execution_overhead * quantum)
        assert run.subplan_final_quanta[sid] == tuple_units * quantum + overhead
        assert 0 <= last["meas_source"] <= last["meas_input_units"]
        for field in ("work_departs", "out_departs"):
            assert table[field] is None or 1 <= table[field] <= pace
