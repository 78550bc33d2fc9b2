"""Schemas and column metadata.

A :class:`Schema` is an ordered, immutable list of :class:`Column` objects
with unique names.  Rows are plain Python tuples aligned positionally with
the schema; the schema provides O(1) name-to-index resolution, which the
expression compiler uses to turn column references into tuple indexing.
"""

from ..errors import SchemaError

#: The column types the engine understands.  Types are advisory -- the
#: engine is dynamically typed like SQLite -- but the TPC-H generator and
#: the SQL frontend use them for validation and for pretty-printing.
INT = "int"
FLOAT = "float"
STR = "str"
DATE = "date"

_VALID_TYPES = frozenset({INT, FLOAT, STR, DATE})


class Column:
    """A named, typed column.

    Parameters
    ----------
    name:
        Column name, unique within its schema.
    type_:
        One of :data:`INT`, :data:`FLOAT`, :data:`STR`, :data:`DATE`.
    """

    __slots__ = ("name", "type")

    def __init__(self, name, type_=FLOAT):
        if not name or not isinstance(name, str):
            raise SchemaError("column name must be a non-empty string, got %r" % (name,))
        if type_ not in _VALID_TYPES:
            raise SchemaError("unknown column type %r for column %r" % (type_, name))
        self.name = name
        self.type = type_

    def renamed(self, new_name):
        """Return a copy of this column under a different name."""
        return Column(new_name, self.type)

    def __eq__(self, other):
        return (
            isinstance(other, Column)
            and self.name == other.name
            and self.type == other.type
        )

    def __hash__(self):
        return hash((self.name, self.type))

    def __repr__(self):
        return "Column(%r, %r)" % (self.name, self.type)


class Schema:
    """An ordered collection of uniquely named columns.

    Schemas are immutable; combinators (:meth:`concat`, :meth:`project`,
    :meth:`prefixed`) return new schemas.
    """

    __slots__ = ("columns", "_index")

    def __init__(self, columns):
        columns = tuple(columns)
        index = {}
        for position, column in enumerate(columns):
            if not isinstance(column, Column):
                raise SchemaError("schema entries must be Column objects, got %r" % (column,))
            if column.name in index:
                raise SchemaError("duplicate column name %r in schema" % column.name)
            index[column.name] = position
        self.columns = columns
        self._index = index

    @classmethod
    def of(cls, *specs):
        """Build a schema from ``(name, type)`` pairs or bare names.

        Bare names default to :data:`FLOAT`.

        >>> Schema.of(("id", INT), "value").names()
        ('id', 'value')
        """
        columns = []
        for spec in specs:
            if isinstance(spec, Column):
                columns.append(spec)
            elif isinstance(spec, str):
                columns.append(Column(spec))
            else:
                name, type_ = spec
                columns.append(Column(name, type_))
        return cls(columns)

    def names(self):
        """The tuple of column names, in order."""
        return tuple(column.name for column in self.columns)

    def types(self):
        """The tuple of column types, in order."""
        return tuple(column.type for column in self.columns)

    def index_of(self, name):
        """Return the position of ``name``, raising :class:`SchemaError` if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                "no column %r in schema with columns %r" % (name, self.names())
            ) from None

    def column_source(self, name):
        """Source text reading column ``name`` of a row held as ``row``
        (what a column reference spells in generated code)."""
        return "row[%d]" % self.index_of(name)

    def has(self, name):
        """True if a column called ``name`` exists."""
        return name in self._index

    def column(self, name):
        """Return the :class:`Column` called ``name``."""
        return self.columns[self.index_of(name)]

    def concat(self, other):
        """Concatenate two schemas (for joins).  Names must stay unique."""
        return Schema(self.columns + other.columns)

    def project(self, names):
        """A schema containing only ``names``, in the order given."""
        return Schema(tuple(self.column(name) for name in names))

    def prefixed(self, prefix):
        """A schema with every column renamed to ``prefix + name``."""
        return Schema(tuple(c.renamed(prefix + c.name) for c in self.columns))

    def row_dict(self, row):
        """Zip a row tuple into a ``{name: value}`` dict (debugging aid)."""
        return dict(zip(self.names(), row))

    def __len__(self):
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __eq__(self, other):
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def __repr__(self):
        return "Schema(%s)" % ", ".join(
            "%s:%s" % (c.name, c.type) for c in self.columns
        )
