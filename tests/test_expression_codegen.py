"""Generated expression code against the tree-walking spec.

``Expression.compile`` evals one flat generated ``lambda``; the closure
interpreter it replaced is gone, so ``tests/expression_spec.py`` is the
statement of what the generated code must compute.  A seeded property
test draws expression trees (every node type, plus the filters
``repro.fuzz.grammar`` generates) and rows over awkward values, and
demands the same value, the same result type and the same raised
exception; explicit cases pin short-circuiting, ``bool()`` coercion of
non-boolean connective operands and which constants are inlined.
"""

import math
import pathlib
from fractions import Fraction

import pytest

import repro.relational.expressions as expressions_module
from repro.fuzz import grammar
from repro.relational.codegen import Bindings, compile_source
from repro.relational.expressions import (
    And, BinaryOp, Comparison, Const, Contains, InList, Not, Or, StartsWith,
    col, lift, starts_with,
)
from repro.relational.schema import Schema

from .expression_spec import evaluate

SCHEMA = Schema.of("a", "b", "c", "s")
NAN = float("nan")

#: row values: None, bools, Fractions, inf/nan, huge ints, mixed
#: int/float and strings
VALUES = (
    None, True, False, 0, 1, -3, 7, 1 << 70, -(1 << 65), 0.0, -0.0, 2.5,
    -1e300, float("inf"), float("-inf"), NAN, Fraction(1, 3), "", "abc",
    "Brand#12",
)
#: constants add shapes ``repr`` cannot round-trip (bound, not inlined)
CONSTANTS = VALUES + ((1, 2), [1, 2], 10 ** 30)


def outcome(fn):
    """``("value", v, type)`` or ``("raises", exception type)``."""
    try:
        value = fn()
    except Exception as error:  # the property is *which* exception
        return ("raises", type(error))
    return ("value", value, type(value))


def same_outcome(left, right):
    if left[0] != right[0] or left[-1] is not right[-1]:
        return False
    if left[0] == "raises":
        return True
    a, b = left[1], right[1]
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    # -0.0 == 0.0: compare the sign too
    return a == b and (not isinstance(a, float)
                       or math.copysign(1, a) == math.copysign(1, b))


def random_expression(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return col(rng.choice(SCHEMA.names()))
        return Const(rng.choice(CONSTANTS))
    kind = rng.randrange(9)
    sub = lambda: random_expression(rng, depth - 1)  # noqa: E731
    if kind == 0:
        return BinaryOp(rng.choice(("+", "-", "*", "/", "//")), sub(), sub())
    if kind in (1, 2):
        return Comparison(
            rng.choice(("==", "!=", "<", "<=", ">", ">=")), sub(), sub())
    if kind == 3:
        return And(sub(), sub())
    if kind == 4:
        return Or(sub(), sub())
    if kind == 5:
        return Not(sub())
    if kind == 6:
        hashable = [v for v in CONSTANTS if not isinstance(v, list)]
        return InList(sub(), rng.sample(hashable, rng.randint(0, 4)))
    if kind == 7:
        return StartsWith(sub(), rng.choice(("", "a", "Brand")))
    return Contains(sub(), rng.choice(("", "b", "#1")))


def assert_matches_spec(expr, schema, rows):
    compiled = expr.compile(schema)
    for row in rows:
        got = outcome(lambda: compiled(row))
        want = outcome(lambda: evaluate(expr, row, schema))
        assert same_outcome(got, want), (expr, row, got, want)


def test_generated_code_matches_the_spec_on_random_trees():
    for index in range(400):
        rng = grammar.case_rng(17, index, "expression")
        expr = random_expression(rng, depth=4)
        rows = [
            tuple(rng.choice(VALUES) for _ in SCHEMA.names())
            for _ in range(12)
        ]
        assert_matches_spec(expr, SCHEMA, rows)


def test_generated_code_matches_the_spec_on_fuzz_grammar_filters():
    seen = 0
    for index in range(60):
        case = grammar.generate_case(17, index)
        for spec in case["queries"]:
            for name, op, value in spec["filters"]:
                schema = Schema.of(name)
                assert_matches_spec(
                    grammar._make_filter(name, op, value), schema,
                    [(value,) for value in VALUES],
                )
                seen += 1
    assert seen > 20


class TestShortCircuitAndCoercion:
    def test_and_guards_a_division(self):
        expr = (col("a") != 0) & (1 / col("a") > 2)
        assert expr.compile(SCHEMA)((0, 0, 0, "")) is False
        assert expr.compile(SCHEMA)((0.25, 0, 0, "")) is True

    def test_or_guards_a_division(self):
        expr = (col("a") == 0) | (1 / col("a") > 2)
        assert expr.compile(SCHEMA)((0, 0, 0, "")) is True

    def test_unguarded_division_raises_like_the_spec(self):
        expr = (1 / col("a") > 2) & (col("a") != 0)
        with pytest.raises(ZeroDivisionError):
            expr.compile(SCHEMA)((0, 0, 0, ""))
        with pytest.raises(ZeroDivisionError):
            evaluate(expr, (0, 0, 0, ""), SCHEMA)

    def test_non_boolean_operands_are_coerced(self):
        row = (5, "", None, "x")
        for expr, expected in (
            (col("a") & col("s"), True),
            (col("a") & col("b"), False),
            (col("b") | col("c"), False),
            (col("c") | col("a"), True),
            (lift(5) & col("c"), False),
        ):
            assert expr.compile(SCHEMA)(row) is expected
            assert evaluate(expr, row, SCHEMA) is expected
        source = (col("a") & (col("b") < 3)).row_source(SCHEMA, Bindings())
        assert source == "(bool(row[0]) and (row[1] < 3))"

    def test_comparisons_never_chain(self):
        # ``(a < b) < 5`` is a comparison of a bool, not ``a < b < 5``
        expr = (col("a") < col("b")) < 5
        row = (1, 10, None, "")
        assert expr.compile(SCHEMA)(row) is True
        assert evaluate(expr, row, SCHEMA) is True

    def test_constant_children_keep_their_syntax(self):
        # ``5.startswith`` would not even parse
        expr = starts_with(lift(-5), "a")
        with pytest.raises(AttributeError):
            expr.compile(SCHEMA)((0, 0, 0, ""))


class TestConstants:
    def fragment(self, value):
        bindings = Bindings()
        return lift(value).row_source(SCHEMA, bindings), bindings.names

    def test_literals_are_inlined_when_repr_round_trips(self):
        for value in (None, True, 7, -3, 2.5, -0.0, 1e300, "it's", ""):
            source, bound = self.fragment(value)
            assert source == repr(value) and not bound

    def test_everything_else_is_bound(self):
        for value in (NAN, float("inf"), [1, 2], (1, 2), Fraction(1, 3),
                      1 << 64, 10 ** 5000):
            source, bound = self.fragment(value)
            assert list(bound.values()) == [value] or value is NAN
            assert bound[source] is value

    def test_bound_constants_keep_identity(self):
        row = (NAN, 0, 0, "")
        assert lift(NAN).compile(SCHEMA)(row) is NAN
        assert col("a").isin([NAN]).compile(SCHEMA)(row) is True
        other = (float("nan"), 0, 0, "")
        assert col("a").isin([NAN]).compile(SCHEMA)(other) is False
        unhashable = col("a") == Const([1, 2])
        assert unhashable.compile(SCHEMA)(([1, 2], 0, 0, "")) is True

    def test_unhashable_in_list_fails_at_compile_time(self):
        with pytest.raises(TypeError):
            col("a").isin([[1, 2]]).compile(SCHEMA)


class TestCompilation:
    def test_one_code_object_per_source_text(self):
        first = (col("a") + 1 > col("b")).compile(SCHEMA)
        second = (col("a") + 1 > col("b")).compile(SCHEMA)
        assert first is not second
        assert first.__code__ is second.__code__
        assert first.__code__.co_filename.startswith("<fused:expr:")

    def test_same_text_different_bindings(self):
        first = col("s").isin(["x"]).compile(SCHEMA)
        second = col("s").isin(["y"]).compile(SCHEMA)
        assert first.__code__ is second.__code__
        assert first((0, 0, 0, "x")) and not second((0, 0, 0, "x"))

    def test_compile_source_registers_with_linecache(self):
        import linecache

        code = compile_source("expr", "lambda row: row[0] @ 1", "eval")
        assert linecache.getline(code.co_filename, 1) == (
            "lambda row: row[0] @ 1")
        linecache.checkcache()  # must not evict generated sources
        assert linecache.getline(code.co_filename, 1)

    def test_the_closure_interpreter_is_gone(self):
        text = pathlib.Path(expressions_module.__file__).read_text()
        assert "lambda row" not in text
