"""Materialization buffers: one segment log per subplan, held for its readers.

Every subplan materializes its output into a :class:`Buffer` (the paper
uses Kafka topics for this); base-relation delta logs are buffers too.
Each consumer holds a :class:`BufferReader` that tracks the offset it
has processed, so parents with different paces independently drain the
same buffer (paper section 2.2).

A buffer is a log of opaque *segments* -- whatever one execution of its
producer returned: ``ColumnBatch`` es in a production tree, ``list[Delta]``
in the per-tuple oracle's (:mod:`repro.fuzz.reference`) -- and asks a
segment only for its ``len()``.  Offsets are *logical* and monotone: they count every entry
ever appended.  What the log holds is decided by its readers alone:
:meth:`Buffer.compact` drops the segments every registered reader has
consumed, and a buffer nobody reads holds nothing.  So a consumer
registers before the run's first append (the executor's result readers,
an arrangement's trailing reader); one that arrives after entries were
discarded fails on its first read instead of skipping them.

A reader points at its buffer; the buffer holds only each reader's
offset *cell*, never the reader, so nothing points back and a dropped
operator tree is freed by reference counting.
"""

from ..errors import ExecutionError


class Buffer:
    """An append-only log of segments, trimmed behind its slowest reader."""

    __slots__ = ("name", "base", "held", "_segments", "_cells",
                 "view_cache")

    _VIEW_CACHE_LIMIT = 8

    def __init__(self, name):
        self.name = name
        self.base = 0
        #: entries currently held, ``end() - base``
        self.held = 0
        self._segments = []  # the non-empty segments held, in append order
        #: one ``[offset]`` cell per registered reader
        self._cells = []
        #: per-span memo for derived read views, keyed ``(start, end,
        #: tag)``.  Consumers at the same offset reading the same span
        #: (pace-aligned parents of one child, the many scans of one base
        #: table) share one consolidated/concatenated batch instead of
        #: each rebuilding it.  Logical content of a span never changes
        #: after append, so an entry stays valid until every reader has
        #: passed its span (``compact()`` then drops it); the dict is
        #: bounded and cleared wholesale.
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

    def append(self, segment):
        """Log one producer execution's output (kept only for a reader)."""
        count = len(segment)
        if count and self._cells:
            self._segments.append(segment)
            self.held += count
        else:
            self.base += count

    def end(self):
        """The logical offset one past the last appended entry."""
        return self.base + self.held

    def reader(self):
        """Register a consumer at offset 0 (before the run's first append)."""
        return BufferReader(self)

    def detach(self, reader):
        """Unregister ``reader``; what only it was holding back goes."""
        cells = self._cells
        for index, cell in enumerate(cells):
            # by identity: two readers at one offset have equal cells
            if cell is reader.cell:
                del cells[index]
                break
        self.compact()

    def compact(self):
        """Drop the segments, and the cached views of spans, every
        registered reader has consumed.

        Memory-only: logical offsets and work accounting are unaffected.
        A segment some reader is still inside of stays whole; with no
        reader left everything goes.  Returns the entries dropped.
        """
        segments = self._segments
        cache = self.view_cache
        if not segments and not cache:
            return 0
        horizon = min((cell[0] for cell in self._cells), default=self.end())
        if cache:
            # a view is keyed ``(start, end, tag)``: no reader reads a
            # span that ends at or behind every reader again
            for key in [key for key in cache if key[1] <= horizon]:
                del cache[key]
        consumed = horizon - self.base
        gone = drop = 0
        for segment in segments:
            if drop + len(segment) > consumed:
                break
            gone += 1
            drop += len(segment)
        if not gone:
            return 0
        del segments[:gone]
        self.base += drop
        self.held -= drop
        return drop

    def span_entries(self, start, stop):
        """``(row, sign)`` pairs for logical offsets ``[start, stop)``.

        Serves the maintenance consumer of a table log (a shared
        arrangement), which needs raw rows but not bitvectors: segment
        overlaps are read straight off the batches.
        """
        if start < self.base or stop > self.end():
            raise ExecutionError(
                "span [%d, %d) of %r is not held: behind the compaction "
                "horizon or past the end of the log [%d, %d)"
                % (start, stop, self.name, self.base, self.end())
            )
        out = []
        at = self.base  # logical offset of the segment's first entry
        for batch in self._segments:
            lo, hi = max(start - at, 0), min(stop - at, len(batch))
            if lo < hi:
                out.extend(zip(batch.rows()[lo:hi], batch.sign_list()[lo:hi]))
            at += len(batch)
        return out

    def reset(self):
        """Empty the log and rewind every registered reader (tree reuse)."""
        self.base = 0
        self.held = 0
        self._segments = []
        self.view_cache.clear()
        for cell in self._cells:
            cell[0] = 0

    def __repr__(self):
        return "Buffer(%r, %d of %d entries held)" % (
            self.name, self.held, self.end(),
        )


class BufferReader:
    """A consumer cursor over a :class:`Buffer` (logical offsets).

    Its offset lives in a one-element list the buffer holds (``cell``).
    """

    __slots__ = ("buffer", "cell")

    def __init__(self, buffer):
        self.buffer = buffer
        self.cell = [0]
        buffer._cells.append(self.cell)  # no reader the log does not hold for

    @property
    def offset(self):
        return self.cell[0]

    @offset.setter
    def offset(self, value):
        self.cell[0] = value

    def read_new(self):
        """The segments appended since the previous call, in order."""
        buffer = self.buffer
        cell = self.cell
        offset = cell[0]
        if offset < buffer.base:
            raise ExecutionError(
                "reader of %r is behind the compaction horizon "
                "(offset %d < base %d)" % (buffer.name, offset, buffer.base)
            )
        # walk back from the end to this reader's segment boundary
        segments = buffer._segments
        first = len(segments)
        start = cell[0] = buffer.end()
        while start > offset:
            first -= 1
            start -= len(segments[first])
        return segments[first:]

    def __repr__(self):
        return "BufferReader(%r @ %d/%d)" % (
            self.buffer.name,
            self.offset,
            self.buffer.end(),
        )
