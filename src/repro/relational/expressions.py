"""Scalar expressions, predicates and aggregate specifications.

Expressions are small immutable trees (column references, constants,
arithmetic, comparisons, boolean connectives).  They support:

* **binding**: :meth:`Expression.compile` turns an expression into one
  generated Python function ``row -> value`` against a concrete
  :class:`~repro.relational.schema.Schema`: every node emits a source
  fragment (:meth:`Expression.row_source`), the fragments nest into a
  single flat expression (``(row[3] >= 8766) and (row[6] in _k0)``),
  and that text is compiled once -- per-tuple evaluation costs one call
  whatever the tree's depth.  :mod:`repro.physical.fused` inlines the
  same fragments into whole operator loops;
* **signatures**: :meth:`Expression.signature` produces the canonical
  string used by the MQO optimizer's sharability test (paper section 2.3);
* **introspection**: :meth:`Expression.columns` lists referenced columns.

A convenient builder DSL is provided through operator overloading::

    pred = (col("p_brand") == "Brand#23") & (col("p_size") < 15)
"""

from ..errors import ExpressionError
from .codegen import Bindings, const_fragment, row_function


class Expression:
    """Base class of all scalar expressions."""

    def columns(self):
        """The set of column names this expression references."""
        acc = set()
        self._collect_columns(acc)
        return acc

    def _collect_columns(self, acc):
        raise NotImplementedError

    #: whether evaluation always yields a ``bool`` (comparisons of the
    #: Python scalars rows carry do); ``And``/``Or`` wrap other operands
    #: in ``bool()``
    boolean = False

    def row_source(self, schema, bindings):
        """Source text evaluating this expression over a row.

        Column references spell what ``schema.column_source`` gives
        (``row[i]`` for a :class:`~repro.relational.schema.Schema`; a
        join kernel reads each column from the half that holds it).
        Evaluation order and short-circuiting are Python's own, left to
        right; objects the text cannot spell as literals are named in
        ``bindings`` (:class:`~repro.relational.codegen.Bindings`).
        """
        raise NotImplementedError

    def compile(self, schema):
        """Return a function ``row -> value`` bound to ``schema``."""
        bindings = Bindings()
        return row_function(self.row_source(schema, bindings), bindings)

    def signature(self):
        """A canonical string identifying this expression."""
        raise NotImplementedError

    # -- builder DSL -------------------------------------------------------

    def __add__(self, other):
        return BinaryOp("+", self, lift(other))

    def __radd__(self, other):
        return BinaryOp("+", lift(other), self)

    def __sub__(self, other):
        return BinaryOp("-", self, lift(other))

    def __rsub__(self, other):
        return BinaryOp("-", lift(other), self)

    def __mul__(self, other):
        return BinaryOp("*", self, lift(other))

    def __rmul__(self, other):
        return BinaryOp("*", lift(other), self)

    def __truediv__(self, other):
        return BinaryOp("/", self, lift(other))

    def __rtruediv__(self, other):
        return BinaryOp("/", lift(other), self)

    def __floordiv__(self, other):
        return BinaryOp("//", self, lift(other))

    def __rfloordiv__(self, other):
        return BinaryOp("//", lift(other), self)

    def __eq__(self, other):
        return Comparison("==", self, lift(other))

    def __ne__(self, other):
        return Comparison("!=", self, lift(other))

    def __lt__(self, other):
        return Comparison("<", self, lift(other))

    def __le__(self, other):
        return Comparison("<=", self, lift(other))

    def __gt__(self, other):
        return Comparison(">", self, lift(other))

    def __ge__(self, other):
        return Comparison(">=", self, lift(other))

    def __and__(self, other):
        return And(self, lift(other))

    def __or__(self, other):
        return Or(self, lift(other))

    def __invert__(self):
        return Not(self)

    def isin(self, values):
        """Membership predicate, ``expr IN (v1, v2, ...)``."""
        return InList(self, tuple(values))

    def between(self, low, high):
        """Inclusive range predicate, ``low <= expr <= high``."""
        return (self >= low) & (self <= high)

    # Expressions are used as dict keys inside plans; identity hashing keeps
    # that working even though __eq__ is overloaded to build comparisons.
    __hash__ = object.__hash__


def lift(value):
    """Wrap a plain Python value into a :class:`Const` if necessary."""
    if isinstance(value, Expression):
        return value
    return Const(value)


class Col(Expression):
    """A reference to a column by name."""

    __slots__ = ("name",)

    def __init__(self, name):
        if not isinstance(name, str) or not name:
            raise ExpressionError("column reference needs a non-empty name, got %r" % (name,))
        self.name = name

    def _collect_columns(self, acc):
        acc.add(self.name)

    def row_source(self, schema, bindings):
        return schema.column_source(self.name)

    def signature(self):
        return "col(%s)" % self.name

    def __repr__(self):
        return "col(%r)" % self.name


def col(name):
    """Builder shorthand for :class:`Col`."""
    return Col(name)


class Const(Expression):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def _collect_columns(self, acc):
        pass

    @property
    def boolean(self):
        return self.value is True or self.value is False

    def row_source(self, schema, bindings):
        return const_fragment(self.value, bindings)

    def signature(self):
        return "const(%r)" % (self.value,)

    def __repr__(self):
        return "const(%r)" % (self.value,)


_ARITH = ("+", "-", "*", "/", "//")

_COMPARE = ("==", "!=", "<", "<=", ">", ">=")


def _binary_source(expr, schema, bindings):
    """``(left op right)``: parenthesised, so comparisons never chain."""
    return "(%s %s %s)" % (
        expr.left.row_source(schema, bindings),
        expr.op,
        expr.right.row_source(schema, bindings),
    )


def _truth_source(expr, schema, bindings):
    source = expr.row_source(schema, bindings)
    return source if expr.boolean else "bool(%s)" % source


class BinaryOp(Expression):
    """Arithmetic on two sub-expressions."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in _ARITH:
            raise ExpressionError("unknown arithmetic operator %r" % op)
        self.op = op
        self.left = left
        self.right = right

    def _collect_columns(self, acc):
        self.left._collect_columns(acc)
        self.right._collect_columns(acc)

    row_source = _binary_source

    def signature(self):
        return "(%s %s %s)" % (self.left.signature(), self.op, self.right.signature())

    def __repr__(self):
        return "(%r %s %r)" % (self.left, self.op, self.right)


class Comparison(Expression):
    """A boolean comparison of two sub-expressions."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in _COMPARE:
            raise ExpressionError("unknown comparison operator %r" % op)
        self.op = op
        self.left = left
        self.right = right

    def _collect_columns(self, acc):
        self.left._collect_columns(acc)
        self.right._collect_columns(acc)

    boolean = True
    row_source = _binary_source

    def signature(self):
        return "(%s %s %s)" % (self.left.signature(), self.op, self.right.signature())

    def __repr__(self):
        return "(%r %s %r)" % (self.left, self.op, self.right)


class And(Expression):
    """Boolean conjunction."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def _collect_columns(self, acc):
        self.left._collect_columns(acc)
        self.right._collect_columns(acc)

    boolean = True

    def row_source(self, schema, bindings):
        return "(%s and %s)" % (
            _truth_source(self.left, schema, bindings),
            _truth_source(self.right, schema, bindings),
        )

    def signature(self):
        return "(%s and %s)" % (self.left.signature(), self.right.signature())

    def __repr__(self):
        return "(%r & %r)" % (self.left, self.right)


class Or(Expression):
    """Boolean disjunction."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def _collect_columns(self, acc):
        self.left._collect_columns(acc)
        self.right._collect_columns(acc)

    boolean = True

    def row_source(self, schema, bindings):
        return "(%s or %s)" % (
            _truth_source(self.left, schema, bindings),
            _truth_source(self.right, schema, bindings),
        )

    def signature(self):
        return "(%s or %s)" % (self.left.signature(), self.right.signature())

    def __repr__(self):
        return "(%r | %r)" % (self.left, self.right)


class Not(Expression):
    """Boolean negation."""

    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    def _collect_columns(self, acc):
        self.child._collect_columns(acc)

    boolean = True

    def row_source(self, schema, bindings):
        return "(not %s)" % self.child.row_source(schema, bindings)

    def signature(self):
        return "(not %s)" % self.child.signature()

    def __repr__(self):
        return "~%r" % (self.child,)


class InList(Expression):
    """Membership in a constant list."""

    __slots__ = ("child", "values")

    def __init__(self, child, values):
        self.child = child
        self.values = tuple(values)

    def _collect_columns(self, acc):
        self.child._collect_columns(acc)

    boolean = True

    def row_source(self, schema, bindings):
        # a frozenset, bound: hash-equality membership, and NaN members
        # keep matching by identity
        return "(%s in %s)" % (
            self.child.row_source(schema, bindings),
            bindings.bind("k", frozenset(self.values)),
        )

    def signature(self):
        return "(%s in %r)" % (self.child.signature(), tuple(sorted(map(repr, self.values))))

    def __repr__(self):
        return "%r.isin(%r)" % (self.child, self.values)


class StartsWith(Expression):
    """String prefix predicate (``col LIKE 'prefix%'``)."""

    __slots__ = ("child", "prefix")

    def __init__(self, child, prefix):
        self.child = lift(child)
        self.prefix = prefix

    def _collect_columns(self, acc):
        self.child._collect_columns(acc)

    boolean = True

    def row_source(self, schema, bindings):
        return "(%s).startswith(%s)" % (
            self.child.row_source(schema, bindings),
            const_fragment(self.prefix, bindings),
        )

    def signature(self):
        return "startswith(%s, %r)" % (self.child.signature(), self.prefix)

    def __repr__(self):
        return "StartsWith(%r, %r)" % (self.child, self.prefix)


class Contains(Expression):
    """Substring predicate (``col LIKE '%needle%'``)."""

    __slots__ = ("child", "needle")

    def __init__(self, child, needle):
        self.child = lift(child)
        self.needle = needle

    def _collect_columns(self, acc):
        self.child._collect_columns(acc)

    boolean = True

    def row_source(self, schema, bindings):
        return "(%s in %s)" % (
            const_fragment(self.needle, bindings),
            self.child.row_source(schema, bindings),
        )

    def signature(self):
        return "contains(%s, %r)" % (self.child.signature(), self.needle)

    def __repr__(self):
        return "Contains(%r, %r)" % (self.child, self.needle)


def starts_with(expr, prefix):
    """Builder shorthand for :class:`StartsWith`."""
    return StartsWith(expr, prefix)


def contains(expr, needle):
    """Builder shorthand for :class:`Contains`."""
    return Contains(expr, needle)


TRUE = Const(True)

#: Aggregate functions supported by the engine (paper section 2.3 supports
#: aggregate operators; MIN/MAX have the rescan-on-delete behaviour the
#: evaluation section exercises with Q15).
AGG_FUNCS = ("sum", "count", "avg", "min", "max")


class AggSpec:
    """One aggregate of a group-by: ``func(expr) AS alias``."""

    __slots__ = ("func", "expr", "alias")

    def __init__(self, func, expr, alias):
        if func not in AGG_FUNCS:
            raise ExpressionError(
                "unknown aggregate %r; supported: %s" % (func, ", ".join(AGG_FUNCS))
            )
        if func != "count" and expr is None:
            raise ExpressionError("aggregate %r needs an input expression" % func)
        self.func = func
        self.expr = expr if expr is not None else Const(1)
        self.alias = alias

    def signature(self):
        return "%s(%s)->%s" % (self.func, self.expr.signature(), self.alias)

    def __repr__(self):
        return "AggSpec(%r, %r, %r)" % (self.func, self.expr, self.alias)


def agg_sum(expr, alias):
    """``SUM(expr) AS alias``"""
    return AggSpec("sum", lift(expr), alias)


def agg_count(alias, expr=None):
    """``COUNT(*) AS alias`` (or ``COUNT(expr)``)."""
    return AggSpec("count", lift(expr) if expr is not None else None, alias)


def agg_avg(expr, alias):
    """``AVG(expr) AS alias``"""
    return AggSpec("avg", lift(expr), alias)


def agg_min(expr, alias):
    """``MIN(expr) AS alias``"""
    return AggSpec("min", lift(expr), alias)


def agg_max(expr, alias):
    """``MAX(expr) AS alias``"""
    return AggSpec("max", lift(expr), alias)
