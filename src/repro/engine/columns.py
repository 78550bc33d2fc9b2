"""Delta batches for the production operators.

A :class:`ColumnBatch` is the production twin of a ``list[Delta]``:
three parallel Python lists -- the row tuples, the delta signs (signed
multiplicities) and the SharedDB query bitvectors.  There is no
conversion between the two: a production tree carries batches from the
table feed to the result view, the per-tuple reference tree carries
:class:`~repro.relational.tuples.Delta` lists, and a tree is one or the
other.

Every operator runs one generated row kernel per batch
(:mod:`repro.physical.fused`), which reads the three lists and emits
three new ones, so a batch is only ever built from lists and read as
lists.  Its rows ARE the original tuples (a table feed's, or the ones a
kernel built): values keep their Python types end to end, and a query id
of any size fits a bitvector, which is a plain int.
"""


class ColumnBatch:
    """One delta batch: parallel lists of rows, signs and bitvectors.

    ``width`` is the row arity, kept so an empty batch still says its
    shape.  A batch is never mutated once built: buffers hand the same
    object to every reader.
    """

    __slots__ = ("_rows", "_signs", "_bits", "width")

    def __init__(self, rows, signs, bits, width):
        self._rows = rows
        self._signs = signs
        self._bits = bits
        self.width = width

    def __len__(self):
        return len(self._signs)

    @classmethod
    def empty(cls, width):
        """The shared, immutable empty batch of ``width`` columns.

        Eager schedules produce empty inputs and outputs by the hundred
        per window, so "nothing" is one object per width rather than an
        allocation per call; its lists are tuples.
        """
        batch = _EMPTY.get(width)
        if batch is None:
            batch = _EMPTY[width] = cls((), (), (), width)
        return batch

    def rows(self):
        """The row tuples."""
        return self._rows

    def sign_list(self):
        """The signs, as Python ints."""
        return self._signs

    def bit_list(self):
        """The query bitvectors, as Python ints."""
        return self._bits


_EMPTY = {}  # width -> the shared empty batch (ColumnBatch.empty)


def concat_batches(batches, width):
    """The batches stacked in order: one list merge per field."""
    if not batches:
        return ColumnBatch.empty(width)
    if len(batches) == 1:
        return batches[0]
    rows, signs, bits = [], [], []
    for batch in batches:
        rows += batch._rows
        signs += batch._signs
        bits += batch._bits
    return ColumnBatch(rows, signs, bits, width)
