"""Base tables and the catalog.

A :class:`Table` is an in-memory, append-only list of rows under a schema
-- the "base relation" the stream source feeds from.  The :class:`Catalog`
maps table names to tables and is the single object the frontend, the
optimizer and the executor share to resolve scans.

A table may additionally carry an explicit *delta log* with deletions and
updates (an update is a delete plus an insert, paper section 2.3); the
stream source then replays that log instead of plain row insertions.
"""

from ..errors import SchemaError
from .schema import Schema
from .tuples import Delta, DELETE, INSERT


class Table:
    """An in-memory base relation (optionally with an update/delete log)."""

    __slots__ = ("name", "schema", "rows", "churn")

    def __init__(self, name, schema, rows=None):
        if not isinstance(schema, Schema):
            raise SchemaError("Table needs a Schema, got %r" % (schema,))
        self.name = name
        self.schema = schema
        self.rows = list(rows) if rows is not None else []
        #: optional explicit delta log: list of (row, sign); None means the
        #: stream is pure insertions of ``rows`` in order
        self.churn = None

    def append(self, row):
        """Append one row (a tuple aligned with the schema)."""
        if len(row) != len(self.schema):
            raise SchemaError(
                "row arity %d does not match schema arity %d for table %r"
                % (len(row), len(self.schema), self.name)
            )
        self.rows.append(tuple(row))

    def extend(self, rows):
        for row in rows:
            self.append(row)

    def delta_log(self):
        """The table's arrival log as ``(row, sign)`` pairs.

        Pure-insert tables synthesize it from ``rows``; tables with
        explicit churn replay their recorded log (updates appear as a
        deletion of the old row followed by an insertion of the new one).
        """
        if self.churn is not None:
            return self.churn
        return [(row, INSERT) for row in self.rows]

    def apply_updates(self, updates, rng=None):
        """Record update events: ``[(old_row, new_row), ...]``.

        Builds an explicit delta log: the original insertions in order,
        with each update's delete+insert pair spliced in at a position
        after the old row arrived -- after the first insertion of a row
        equal to ``old_row`` in the log so far (``rng`` randomizes
        positions; without it updates land at the end of the log).

        The log is held as the original rows with, before each and after
        the last, the *gap* of update records spliced in there (original
        rows never move relative to each other).  A Fenwick tree over the
        gaps' lengths turns a row's position into a log position and a
        log position into a gap in O(log n) each, so the log costs
        O(n log n) to build, plus a list insert into the gap a record
        lands in.
        """
        rows = self.rows
        gaps = [[] for _ in range(len(rows) + 1)]
        # one for each original row, gap j sits before row j
        sizes = _FenwickTree([1] * len(rows) + [0])
        first_row = {}
        for index, row in enumerate(rows):
            first_row.setdefault(row, index)
        inserted_in = {}  # row -> the gaps holding an inserted copy
        length = len(rows)
        for old_row, new_row in updates:
            arrival = None
            index = first_row.get(old_row)
            if index is not None:
                arrival = sizes.prefix(index + 1) - 1
            for gap in inserted_in.get(old_row, ()):
                position = sizes.prefix(gap) + gaps[gap].index((old_row, INSERT))
                if arrival is None or position < arrival:
                    arrival = position
            if arrival is None:
                raise SchemaError(
                    "update target %r not found in table %r" % (old_row, self.name)
                )
            if rng is not None:
                position = rng.randint(arrival + 1, length)
            else:
                position = length
            # the gap the records land in: the first whose end reaches
            # ``position`` (before the row it precedes), else the last
            gap = sizes.search(position + 1)
            offset = position - sizes.prefix(gap)
            new_row = tuple(new_row)
            gaps[gap][offset:offset] = [(old_row, DELETE), (new_row, INSERT)]
            sizes.add(gap, 2)
            inserted_in.setdefault(new_row, set()).add(gap)
            length += 2
        log = []
        for row, gap in zip(rows, gaps):
            log.extend(gap)
            log.append((row, INSERT))
        log.extend(gaps[-1])
        self.churn = log
        return self

    def log_length(self):
        """Number of delta records the stream will deliver."""
        return len(self.churn) if self.churn is not None else len(self.rows)

    def delete_count(self):
        """Deletions in the delta log (0 for pure-insert tables)."""
        if self.churn is None:
            return 0
        return sum(1 for _, sign in self.churn if sign == DELETE)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self):
        return "Table(%r, %d rows)" % (self.name, len(self.rows))


class _FenwickTree:
    """Prefix sums over a list of non-negative counts, updated in place."""

    __slots__ = ("_tree",)

    def __init__(self, counts):
        tree = [0] + list(counts)
        for index in range(1, len(tree)):
            parent = index + (index & -index)
            if parent < len(tree):
                tree[parent] += tree[index]
        self._tree = tree

    def add(self, index, delta):
        """Add ``delta`` to count ``index``."""
        tree = self._tree
        index += 1
        while index < len(tree):
            tree[index] += delta
            index += index & -index

    def prefix(self, end):
        """The sum of counts ``0 .. end - 1``."""
        tree = self._tree
        total = 0
        while end > 0:
            total += tree[end]
            end -= end & -end
        return total

    def search(self, target):
        """The smallest index whose prefix sum through it reaches
        ``target``, or the last index if none does."""
        tree = self._tree
        index = 0
        step = 1 << (len(tree) - 1).bit_length()
        while step:
            probe = index + step
            if probe < len(tree) and tree[probe] < target:
                index = probe
                target -= tree[probe]
            step >>= 1
        return min(index, len(tree) - 2)


class Catalog:
    """Name -> :class:`Table` mapping shared across the system."""

    def __init__(self, tables=None):
        self._tables = {}
        for table in tables or ():
            self.add(table)

    def add(self, table):
        if table.name in self._tables:
            raise SchemaError("table %r already registered" % table.name)
        self._tables[table.name] = table
        return table

    def create(self, name, schema, rows=None):
        """Create, register and return a new table."""
        return self.add(Table(name, schema, rows))

    def get(self, name):
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(
                "no table %r in catalog (have: %s)"
                % (name, ", ".join(sorted(self._tables)) or "<empty>")
            ) from None

    def has(self, name):
        return name in self._tables

    def names(self):
        return sorted(self._tables)

    def __contains__(self, name):
        return name in self._tables

    def __iter__(self):
        return iter(self._tables.values())

    def __len__(self):
        return len(self._tables)

    def __repr__(self):
        return "Catalog(%s)" % ", ".join(self.names())
