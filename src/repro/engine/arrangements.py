"""Shared arrangements: one join index per ``(table, key columns)``.

Every join operator used to maintain a *private* hash table over each of
its inputs, so N subplans probing the same base table paid N times the
resident state and N times the index-maintenance work.  Following the
shared-arrangements idea (McSherry et al., see PAPERS.md), this module
maintains a single multi-reader indexed delta store per ``(table, key
columns)`` pair: the index is advanced once, at the pace of the eagerest
reader, and every subplan probes it at its own horizon through the
existing logical-offset machinery of :mod:`repro.engine.buffers`.

Exactness contract
------------------
Arrangements are a *physical* optimization, selected by plan shape: the
executor hands a production join side a handle whenever
:func:`arrangeable_side` accepts it and a private table otherwise.  The
per-tuple reference (:class:`repro.fuzz.reference.ReferenceExecutor`)
keeps private tables on every side and is the oracle: query results, per-record
outputs and every WorkMeter charge of a run with arranged sides are
bit-identical to its run (``tests/test_join_emission_spec.py``, the fuzz
oracles ``shared-columnar-rows`` and ``service`` against their
``-unbatched`` legs).  That holds because base-table deltas always
carry the full bitvector (``Delta(row, sign, ~0)``), so an eligible join
side's private table stores every delta with bits equal to the subplan
mask — a bijection with the bits-free arrangement index.  Probe outputs
take their bits from the *probing* delta, exactly as the private probe
does.  What differs is resource occupancy: resident entries and
maintenance operations are paid once per arrangement instead of once per
reader, and the savings are reported through ``RunResult.metadata
["arrangement_summary"]`` and the ``engine.arrangement.*`` metrics.

Multiversioning
---------------
Readers at different paces need the index *as of* different offsets in
the table's delta log.  An :class:`Arrangement` therefore keeps a small
set of refcounted :class:`_Version` objects keyed by offset.  Advancing
a handle either (a) lands on an existing version and shares it, (b)
cannibalizes its old version in place when nobody else references it —
the common case once all readers run at one pace — or (c) clones
copy-on-write: the top-level dict is copied shallowly and per-key inner
dicts are cloned only when first written (the ``owned`` key set tracks
exclusive ownership on both sides of a clone).  Inner dicts map
``row -> net multiplicity``; entries retracting to zero are deleted
eagerly, so the index never holds dead keys.  The arrangement's
trailing :class:`~repro.engine.buffers.BufferReader` follows the oldest
live version, so the table log holds every segment a laggard handle has
yet to apply.
"""

from ..errors import ExecutionError
from ..mqo.nodes import TableRef

__all__ = [
    "Arrangement",
    "ArrangementHandle",
    "ArrangementStore",
    "arrangeable_side",
]


def arrangeable_side(node, side):
    """``(table name, key column indexes)`` if a join input can share.

    A join input is arrangement-eligible when it is a bare base-table
    scan: a ``source`` node over a :class:`TableRef` with no filters and
    no projections.  Decorated scans stay private — their stored rows
    (or the set of deltas reaching the index) differ per query, so no
    shared index can serve them exactly.  ``side`` is 0 for the left
    input, 1 for the right.
    """
    if node.kind != "join" or len(node.children) != 2:
        return None
    child = node.children[side]
    if child.kind != "source" or child.children:
        return None
    ref = child.ref
    if not isinstance(ref, TableRef):
        return None
    if child.filters or child.projections:
        return None
    keys = node.left_keys if side == 0 else node.right_keys
    schema = child.out_schema
    key_indexes = tuple(schema.index_of(name) for name in keys)
    return ref.name, key_indexes


class _Version:
    """One materialized state of the index, as of a log offset.

    ``table`` maps key value -> {row: net multiplicity}; ``owned`` is
    the set of keys whose inner dict no other version shares (safe to
    mutate in place).  ``refs`` counts the handles currently positioned
    at this version.
    """

    __slots__ = ("table", "owned", "entries", "offset", "refs")

    def __init__(self, table, owned, entries, offset, refs):
        self.table = table
        self.owned = owned
        self.entries = entries
        self.offset = offset
        self.refs = refs

    def __repr__(self):
        return "_Version(@%d, %d entries, %d refs)" % (
            self.offset, self.entries, self.refs,
        )


class _Cursor:
    """What an arrangement keeps of one reader: its version and its span."""

    __slots__ = ("version", "sid", "name", "advanced")

    def __init__(self, version, sid, name):
        self.version = version
        self.sid = sid
        self.name = name
        self.advanced = 0  # total log span this reader asked to cover


class ArrangementHandle:
    """One reader's cursor into a shared arrangement.

    The handle points at the arrangement, which holds only the handle's
    :class:`_Cursor`: nothing points back, so a dropped operator tree is
    freed by reference counting.
    """

    __slots__ = ("arrangement", "cursor")

    def __init__(self, arrangement, cursor):
        self.arrangement = arrangement
        self.cursor = cursor

    def advance_to(self, target):
        """Position this handle at the index state as of ``target``."""
        return self.arrangement.advance(self.cursor, target)

    @property
    def version(self):
        return self.cursor.version

    @property
    def table(self):
        return self.cursor.version.table

    @property
    def entries(self):
        return self.cursor.version.entries

    def __repr__(self):
        cursor = self.cursor
        return "ArrangementHandle(%s @ %d, sid=%d)" % (
            cursor.name, cursor.version.offset, cursor.sid,
        )


class Arrangement:
    """A multi-reader index over one table's delta log.

    ``maintenance_ops`` counts deltas actually applied to some version
    (including copy-on-write re-application for laggard readers);
    ``private_ops`` counts what per-reader private tables would have
    applied — the gap is the shared-maintenance saving.
    """

    def __init__(self, table_name, key_indexes, buffer):
        self.table_name = table_name
        self.key_indexes = tuple(key_indexes)
        self.key_index = (
            self.key_indexes[0] if len(self.key_indexes) == 1 else None
        )
        self.buffer = buffer
        # trails the oldest live version: what the table log holds for us
        self.reader = buffer.reader()
        self.versions = {0: _Version({}, set(), 0, 0, 0)}
        self.cursors = []  # one per reader, in acquisition order
        self.maintenance_ops = 0
        self.private_ops = 0

    def acquire(self, sid, name):
        """Register a new reader (compile time only, at offset 0)."""
        base = self.versions.get(0)
        if base is None or len(self.versions) != 1:
            raise ExecutionError(
                "arrangement %r acquired after advancing" % self.table_name
            )
        cursor = _Cursor(base, sid, name)
        base.refs += 1
        self.cursors.append(cursor)
        return ArrangementHandle(self, cursor)

    def advance(self, cursor, target):
        """Move a reader's ``cursor`` to the version at offset ``target``.

        Shares an existing version, cannibalizes the reader's own
        version in place when it holds the only reference, or clones
        copy-on-write otherwise.
        """
        source = cursor.version
        if target < source.offset:
            raise ExecutionError(
                "arrangement %r reader %s moving backwards (%d < %d)"
                % (self.table_name, cursor.name, target, source.offset)
            )
        if target == source.offset:
            return source
        span = target - source.offset
        cursor.advanced += span
        self.private_ops += span
        versions = self.versions
        source.refs -= 1
        existing = versions.get(target)
        if existing is not None:
            existing.refs += 1
            cursor.version = existing
            self._prune()
            return existing
        # nearest materialized version at or below the target; the
        # handle's own version qualifies, so this never comes up empty
        base = None
        for version in versions.values():
            if version.offset <= target and (
                base is None or version.offset > base.offset
            ):
                base = version
        if base.refs == 0:
            # only ``source`` can have dropped to zero refs here: every
            # other version kept its readers.  Roll it forward in place.
            del versions[base.offset]
            version = base
        else:
            version = _Version(dict(base.table), set(), base.entries,
                               base.offset, 0)
            # inner dicts are now shared both ways: neither side owns them
            base.owned.clear()
        self._apply(version, target)
        version.refs = version.refs + 1
        versions[target] = version
        cursor.version = version
        self._prune()
        return version

    def _apply(self, version, target):
        """Apply log deltas ``[version.offset, target)`` to ``version``.

        Reads through :meth:`~repro.engine.buffers.Buffer.span_entries`,
        which takes rows and signs straight off the table log's
        segments and fails if the span is no longer held.
        """
        entries_span = self.buffer.span_entries(version.offset, target)
        table = version.table
        owned = version.owned
        key_index = self.key_index
        key_indexes = self.key_indexes
        entries = version.entries
        for row, sign in entries_span:
            if key_index is not None:
                key = row[key_index]
            else:
                key = tuple(row[i] for i in key_indexes)
            inner = table.get(key)
            if inner is None:
                inner = table[key] = {}
                owned.add(key)
            elif key not in owned:
                inner = table[key] = dict(inner)  # clone-on-first-write
                owned.add(key)
            previous = inner.get(row, 0)
            net = previous + sign
            if net == 0:
                del inner[row]
                if not inner:
                    del table[key]
                    owned.discard(key)
                entries -= 1
            else:
                inner[row] = net
                if previous == 0:
                    entries += 1
        version.entries = entries
        version.offset = target
        self.maintenance_ops += len(entries_span)

    def _prune(self):
        versions = self.versions
        dead = [off for off, version in versions.items() if version.refs <= 0]
        for off in dead:
            del versions[off]
        # trail the oldest live version so compaction cannot outrun us
        self.reader.offset = min(versions)

    def reset(self):
        """Rewind to offset 0 with every reader reattached (tree reuse)."""
        base = _Version({}, set(), 0, 0, len(self.cursors))
        self.versions = {0: base}
        for cursor in self.cursors:
            cursor.version = base
            cursor.advanced = 0
        self.reader.offset = 0
        self.maintenance_ops = 0
        self.private_ops = 0

    def resident_entries(self):
        return sum(version.entries for version in self.versions.values())

    def private_entries(self):
        """What one private table per reader would hold right now."""
        return sum(cursor.version.entries for cursor in self.cursors)

    def reader_lag(self):
        """Offset gap between the eagerest and laggardest live version."""
        return max(self.versions) - min(self.versions)

    def attribution(self):
        """Exact maintenance-work shares per reading subplan.

        The attribution ledger's integer largest-remainder split
        (:func:`repro.obs.attribution.split_work`) with each subplan's
        total advanced span as its weight, so the integer shares sum
        exactly to ``maintenance_ops``.
        """
        from ..obs.attribution import split_work

        weights = {}
        for cursor in self.cursors:
            weights[cursor.sid] = weights.get(cursor.sid, 0) + cursor.advanced
        return split_work(self.maintenance_ops, sorted(weights.items()))

    def describe(self):
        return {
            "table": self.table_name,
            "key_columns": list(self.key_indexes),
            "readers": len(self.cursors),
            "versions": len(self.versions),
            "resident_entries": self.resident_entries(),
            "private_entries": self.private_entries(),
            "maintenance_ops": self.maintenance_ops,
            "private_ops": self.private_ops,
            "reader_lag": self.reader_lag(),
            "attribution": dict(sorted(self.attribution().items())),
        }

    def __repr__(self):
        return "Arrangement(%r, keys=%r, %d readers, %d versions)" % (
            self.table_name, self.key_indexes, len(self.cursors),
            len(self.versions),
        )


class ArrangementStore:
    """All arrangements of one compiled plan, keyed ``(table, keys)``."""

    def __init__(self):
        self.arrangements = {}

    def handle(self, table_name, key_indexes, buffer, sid, name):
        """Get-or-create the arrangement and register a reader on it."""
        key = (table_name, tuple(key_indexes))
        arrangement = self.arrangements.get(key)
        if arrangement is None:
            arrangement = Arrangement(table_name, key_indexes, buffer)
            self.arrangements[key] = arrangement
        return arrangement.acquire(sid, name)

    def reset(self):
        for arrangement in self.arrangements.values():
            arrangement.reset()

    def resident_entries(self):
        return sum(
            arrangement.resident_entries()
            for arrangement in self.arrangements.values()
        )

    def summary(self):
        """JSON-safe totals plus one record per arrangement."""
        per_arrangement = []
        resident = private_entries = maintenance = private = 0
        for key in sorted(self.arrangements):
            info = self.arrangements[key].describe()
            per_arrangement.append(info)
            resident += info["resident_entries"]
            private_entries += info["private_entries"]
            maintenance += info["maintenance_ops"]
            private += info["private_ops"]
        return {
            "arrangements": per_arrangement,
            "resident_entries": resident,
            "private_entries": private_entries,
            "maintenance_ops": maintenance,
            "private_ops": private,
            "shared_ops_saved": private - maintenance,
        }

    def __len__(self):
        return len(self.arrangements)

    def __repr__(self):
        return "ArrangementStore(%d arrangements)" % len(self.arrangements)
