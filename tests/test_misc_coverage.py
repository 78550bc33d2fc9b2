"""Coverage for smaller behaviours: CLI, reports, edge cases."""

import pytest

from repro.harness.__main__ import main as harness_main
from repro.mqo.merge import MQOOptimizer
from repro.sqlparser.lexer import tokenize

from .util import toy_query_region, toy_query_total


class TestHarnessCli:
    def test_fig10_runs_and_prints(self, capsys):
        exit_code = harness_main(["fig10", "--scale", "0.1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Figure 10" in captured.out
        assert "finished in" in captured.out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            harness_main(["fig99"])


class TestLexerEdgeCases:
    def test_number_then_qualified_column(self):
        tokens = tokenize("1.5 t.c 2")
        kinds = [t.kind for t in tokens[:-1]]
        assert kinds == ["number", "ident", "op", "ident", "number"]

    def test_empty_input_is_just_eof(self):
        tokens = tokenize("   \n  ")
        assert [t.kind for t in tokens] == ["eof"]

    def test_hash_allowed_inside_identifiers(self):
        tokens = tokenize("Brand#23")
        assert tokens[0].value == "Brand#23"


class TestPlanDiagnostics:
    def test_consumer_count_includes_query_outputs(self, toy_catalog):
        queries = [toy_query_total(toy_catalog, 0), toy_query_region(toy_catalog, 1)]
        plan = MQOOptimizer(toy_catalog).build_shared_plan(queries)
        for qid, root in plan.query_roots.items():
            assert plan.consumer_count(root) >= 1

    def test_base_tables_listed(self, toy_catalog):
        queries = [toy_query_total(toy_catalog, 0)]
        plan = MQOOptimizer(toy_catalog).build_shared_plan(queries)
        tables = set()
        for subplan in plan.subplans:
            tables.update(subplan.base_tables())
        assert tables == {"events", "items", "categories"}

    def test_connected_components_singletons_for_disjoint(self, toy_catalog):
        from .util import toy_query_max

        queries = [toy_query_total(toy_catalog, 0), toy_query_max(toy_catalog, 1)]
        plan = MQOOptimizer(toy_catalog).build_shared_plan(queries)
        assert sorted(map(tuple, plan.connected_components())) == [(0,), (1,)]


class TestExamplesImportable:
    @pytest.mark.parametrize("name", [
        "quickstart", "scheduled_dashboards", "sql_frontend", "pace_tradeoff",
    ])
    def test_example_module_compiles(self, name):
        import os
        import py_compile

        path = os.path.join(
            os.path.dirname(__file__), os.pardir, "examples", "%s.py" % name
        )
        py_compile.compile(path, doraise=True)
