"""Generated-source plumbing shared by expressions and fused kernels.

Per-row work runs as *generated Python source*, never as a tree of
closures: :meth:`Expression.compile <repro.relational.expressions
.Expression.compile>` flattens an expression tree into one ``lambda``
and :mod:`repro.physical.fused` inlines the same fragments into whole
operator loops.  This module is what the two share:

* :class:`Bindings` -- the objects a piece of source closes over
  (containment sets, constants whose ``repr`` does not round-trip),
  under stable generated names;
* :func:`const_fragment` -- the one rule for when a constant may appear
  as a literal;
* :func:`compile_source` -- text -> code object, compiled once per
  distinct text for the life of the process (re-registering a known
  query shape generates the same text and compiles nothing) and
  registered with :mod:`linecache`, so a traceback through generated
  code shows the generated line.
"""

import linecache
from itertools import count
from math import isfinite

_CODE = {}  # source text -> code object
_CODE_LIMIT = 4096
_SERIAL = count()  # filenames stay unique across wholesale clears


class Bindings:
    """Objects a generated source refers to by name."""

    def __init__(self):
        self.names = {}  # name -> python object closed over
        self._by_id = {}  # id(obj) -> name (objects are kept alive above)

    def bind(self, prefix, obj):
        """A stable name for ``obj`` in the generated code's namespace."""
        name = self._by_id.get(id(obj))
        if name is None:
            name = self._by_id[id(obj)] = "_%s%d" % (prefix, len(self.names))
            self.names[name] = obj
        return name


def const_fragment(value, bindings):
    """Inline literal when ``repr`` round-trips exactly; bind otherwise."""
    if value is None or value is True or value is False:
        return repr(value)
    kind = type(value)
    if kind is str:
        return repr(value)
    if kind is int and value.bit_length() < 64:
        return repr(value)
    if kind is float and isfinite(value):
        return repr(value)  # round-trips exactly in python 3
    return bindings.bind("k", value)


def compile_source(kind, source, mode="exec"):
    """The code object of ``source``, compiled once per distinct text."""
    code = _CODE.get(source)
    if code is None:
        if len(_CODE) >= _CODE_LIMIT:
            clear_code_cache()
        filename = "<fused:%s:%d>" % (kind, next(_SERIAL))
        code = _CODE[source] = compile(source, filename, mode)
        # mtime None marks the entry as not file-backed: checkcache()
        # leaves it alone and traceback finds the generated line
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename,
        )
    return code


def clear_code_cache():
    """Drop every compiled text and its :mod:`linecache` entry."""
    for code in _CODE.values():
        linecache.cache.pop(code.co_filename, None)
    _CODE.clear()


def row_function(fragment, bindings):
    """``row -> value`` for a source fragment over the name ``row``."""
    code = compile_source("expr", "lambda row: %s" % fragment, "eval")
    return eval(code, dict(bindings.names))
