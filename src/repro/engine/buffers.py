"""Materialization buffers with per-consumer offsets and compaction.

Every subplan whose output is consumed by other subplans materializes its
deltas into a :class:`Buffer` (the paper uses Kafka topics for this);
base-relation delta logs are buffers too.  Each consumer holds a
:class:`BufferReader` that tracks the offset of the deltas it has already
processed, so parents with different paces independently drain the same
buffer (paper section 2.2).

Offsets are *logical* and monotone: they count every delta ever appended.
:meth:`Buffer.compact` drops the already-consumed prefix of the backing
list (recording the drop in ``base``) so long-running schedules do not
hold every historical delta live; readers keep working unchanged because
they index relative to ``base``.  Buffers that must stay fully replayable
(query-root buffers, which ``query_result_view`` re-reads from offset 0)
are ``pinned`` and never compacted.
"""

from ..errors import ExecutionError
from ..obs import OBS


class Buffer:
    """An append-only delta log with optional prefix compaction.

    Columnar producers may append :class:`~repro.engine.columns
    .ColumnBatch` segments instead of delta lists (:meth:`append_segment`).
    Segments stay columnar in a pending tail as long as every consumer is
    batch-aware; the first consumer that needs plain deltas (a reference
    operator's reader, ``query_result_view``) forces :meth:`materialize`, which
    converts the pending tail in order.  Logical offsets, ``len()`` and
    compaction semantics are identical either way, so producers and
    consumers may mix freely.
    """

    __slots__ = ("name", "deltas", "base", "pinned", "_readers",
                 "_pending", "_pending_len", "view_cache")

    _VIEW_CACHE_LIMIT = 8

    def __init__(self, name):
        self.name = name
        self.deltas = []
        self.base = 0
        self.pinned = False
        self._readers = []
        self._pending = []  # [(start offset, ColumnBatch)], tail order
        self._pending_len = 0
        #: per-span memo for derived read views, keyed ``(start, end,
        #: tag)``.  Consumers at the same offset reading the same span
        #: (pace-aligned parents of one child, the many scans of one base
        #: table) share one consolidated/concatenated batch instead of
        #: each rebuilding it.  Logical content of a span never changes
        #: after append, so entries stay valid across ``compact()`` and
        #: ``materialize()``; the dict is bounded and cleared wholesale.
        self.view_cache = {}

    def cache_view(self, key, builder):
        """Get-or-build a derived view of one logical span (see above)."""
        cache = self.view_cache
        view = cache.get(key)
        if view is None:
            if len(cache) >= self._VIEW_CACHE_LIMIT:
                cache.clear()
            view = cache[key] = builder()
        return view

    def append(self, deltas):
        if self._pending:
            self.materialize()
        self.deltas.extend(deltas)
        if OBS.enabled:
            OBS.metrics.gauge(
                "engine.buffer.occupancy", buffer=self.name
            ).set(len(self.deltas) + self._pending_len)

    def append_segment(self, batch):
        """Append a columnar segment without converting it to deltas."""
        self._pending.append((self.end(), batch))
        self._pending_len += len(batch)
        if OBS.enabled:
            OBS.metrics.gauge(
                "engine.buffer.occupancy", buffer=self.name
            ).set(len(self.deltas) + self._pending_len)

    def materialize(self):
        """Convert pending columnar segments to deltas, preserving order."""
        if self._pending:
            for _, batch in self._pending:
                self.deltas.extend(batch.to_deltas())
            self._pending = []
            self._pending_len = 0
        return self.deltas

    def end(self):
        """The logical offset one past the last appended delta."""
        return self.base + len(self.deltas) + self._pending_len

    def __len__(self):
        """Total deltas ever appended (compaction does not shrink this)."""
        return self.base + len(self.deltas) + self._pending_len

    def reader(self):
        reader = BufferReader(self)
        self._readers.append(reader)
        return reader

    def compact(self):
        """Drop the prefix every registered reader has consumed.

        Memory-only: logical offsets, ``len()`` and work accounting are
        unaffected.  Pinned buffers and buffers nobody reads are left
        intact (an unread buffer may still gain a late reader, and a
        pinned one must stay replayable from offset 0).  Returns the
        number of deltas dropped.
        """
        if self.pinned or not self._readers:
            return 0
        if not self.deltas and not self._pending:
            return 0
        horizon = min(reader.offset for reader in self._readers)
        drop = horizon - self.base
        if drop <= 0:
            return 0
        materialized_len = len(self.deltas)
        if drop > materialized_len:
            # the horizon reaches into the columnar tail: drop fully
            # consumed segments without ever materializing them
            kept = []
            for start, batch in self._pending:
                seg_end = start + len(batch)
                if seg_end <= horizon:
                    self._pending_len -= len(batch)
                elif start >= horizon:
                    kept.append((start, batch))
                else:  # partially consumed segment: keep it whole
                    kept.append((start, batch))
                    horizon = start
            self._pending = kept
            drop = horizon - self.base
            if drop <= 0:
                return 0
        del self.deltas[:drop]
        self.base = horizon
        if OBS.enabled:
            OBS.metrics.counter(
                "engine.buffer.compacted_deltas", buffer=self.name
            ).inc(drop)
            # occupancy shrank: refresh the gauge (it is otherwise only
            # set on append, which left dashboards reading stale values)
            OBS.metrics.gauge(
                "engine.buffer.occupancy", buffer=self.name
            ).set(len(self.deltas) + self._pending_len)
        return drop

    def span_entries(self, start, stop):
        """``(row, sign)`` pairs for logical offsets ``[start, stop)``.

        Serves maintenance consumers (shared arrangements) that need raw
        rows but not bitvectors, without forcing pending columnar
        segments through the Delta round-trip: the materialized prefix
        is sliced, segment overlaps are read straight off the batches.
        """
        if stop <= start:
            return []
        rel_start = start - self.base
        if rel_start < 0:
            raise ExecutionError(
                "span [%d, %d) of %r is behind the compaction horizon "
                "(base %d)" % (start, stop, self.name, self.base)
            )
        out = []
        deltas = self.deltas
        materialized_end = self.base + len(deltas)
        if rel_start < len(deltas):
            for delta in deltas[rel_start:stop - self.base]:
                out.append((delta.row, delta.sign))
        for seg_start, batch in self._pending:
            seg_end = seg_start + len(batch)
            if seg_end <= start or seg_start >= stop:
                continue
            lo = max(start, seg_start) - seg_start
            hi = min(stop, seg_end) - seg_start
            rows = batch.rows()
            out.extend(zip(rows[lo:hi], batch.sign_list()[lo:hi]))
        expected = stop - max(start, self.base)
        if len(out) != expected:
            raise ExecutionError(
                "span [%d, %d) of %r is not contiguous (%d of %d entries; "
                "materialized through %d)"
                % (start, stop, self.name, len(out), expected,
                   materialized_end)
            )
        return out

    def reset(self):
        """Empty the log and rewind every registered reader (tree reuse)."""
        self.deltas.clear()
        self.base = 0
        self._pending = []
        self._pending_len = 0
        self.view_cache.clear()
        for reader in self._readers:
            reader.offset = 0

    def __repr__(self):
        return "Buffer(%r, %d deltas)" % (self.name, len(self))


class BufferReader:
    """A consumer cursor over a :class:`Buffer` (logical offsets)."""

    __slots__ = ("buffer", "offset")

    def __init__(self, buffer):
        self.buffer = buffer
        self.offset = 0

    def read_new(self):
        """All deltas appended since the previous call."""
        buffer = self.buffer
        if buffer._pending:
            buffer.materialize()
        start = self.offset - buffer.base
        if start < 0:
            raise ExecutionError(
                "reader of %r is behind the compaction horizon "
                "(offset %d < base %d)" % (buffer.name, self.offset, buffer.base)
            )
        deltas = buffer.deltas
        if start >= len(deltas):
            return []
        new = deltas[start:]
        self.offset = buffer.base + len(deltas)
        return new

    def read_new_segments(self):
        """Everything appended since the previous call, columnar-aware.

        Returns ``(deltas, batches)``: a plain delta list for the
        materialized span plus the pending columnar segments, in order.
        Batch-aware consumers (the columnar source) use this to skip the
        deltas round-trip entirely when the producer was columnar; plain
        producers just yield ``(deltas, [])``.
        """
        buffer = self.buffer
        start = self.offset - buffer.base
        if start < 0:
            raise ExecutionError(
                "reader of %r is behind the compaction horizon "
                "(offset %d < base %d)" % (buffer.name, self.offset, buffer.base)
            )
        deltas = buffer.deltas
        prefix = deltas[start:] if start < len(deltas) else []
        batches = []
        if buffer._pending:
            materialized_end = buffer.base + len(deltas)
            cursor = max(self.offset, materialized_end)
            for seg_start, batch in buffer._pending:
                seg_end = seg_start + len(batch)
                if seg_end <= cursor:
                    continue
                if seg_start < cursor:
                    # mid-segment cursor (cannot happen with aligned
                    # executions; defensive): force the plain path
                    buffer.materialize()
                    return self.read_new(), []
                batches.append(batch)
        self.offset = buffer.end()
        return prefix, batches

    def remaining(self):
        return self.buffer.end() - self.offset

    def __repr__(self):
        return "BufferReader(%r @ %d/%d)" % (
            self.buffer.name,
            self.offset,
            self.buffer.end(),
        )
