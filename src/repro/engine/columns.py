"""Struct-of-arrays delta batches for the production operators.

A :class:`ColumnBatch` is the columnar twin of a ``list[Delta]``: one
NumPy array per row column plus parallel int64 arrays for the delta sign
(signed multiplicity) and the SharedDB query bitvector.  There is no
conversion between the two: a production tree carries batches from the
table feed to the result view, the per-tuple reference tree carries
:class:`~repro.relational.tuples.Delta` lists, and a tree is one or the
other.  NumPy is optional and loaded lazily: ``np`` is bound at import
but NumPy's own code runs only on its first attribute access -- the
first batch above ``ROW_LANE_MAX`` that takes a vector kernel, or the
first read of ``signs`` / ``bits`` / ``columns``.  A chain of row-lane
kernels carries rows, signs and bits as Python lists and never builds an
array, so a process whose batches all take the row lane never imports
NumPy at all.  At the default threshold that is every pipeline
benchmark workload: the largest batch any of them builds is a 4500-row
lineitem read.

Columns are **late-materialized**: a batch built from table rows (or by a
scalar join probe) carries the original Python row tuples and builds a
column array only when an operator actually reads that column.  At
fig11-sized batches most columns are never read -- a source feeds a join
that touches one key column, an aggregate touches a group column and a
value column -- so eager per-column conversion was pure overhead.  The
vectorized kernels that need the full struct-of-arrays view (the large-
batch join probe) ask for ``batch.columns`` and pay materialization once,
amortized over the batch.

Type fidelity is the load-bearing invariant: values that cross back into
tuple-land must be *Python* scalars (``np.int64`` is not a Python
``int``, so it would fail the exact-int comparison in
:func:`repro.engine.compare.values_close`).  Columns are therefore built
with strict single-type detection -- ``int``/``float``/``bool`` columns
get native dtypes, everything else (strings, mixed types, out-of-range
ints) falls back to ``object`` dtype, whose ``tolist`` round-trips the
original objects untouched.  Row-backed batches are even stronger: their
``rows()`` ARE the original tuples, no round-trip at all.
"""

import importlib.util
import sys


def _lazy_numpy():
    """NumPy as a module that executes on first attribute access.

    An already-imported NumPy is reused, and ``sys.modules["numpy"] =
    None`` (or no NumPy installed) gives None: the row lane alone then
    serves every batch size.
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        return None
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

_INT_KIND = frozenset((int,))
_FLOAT_KIND = frozenset((float,))
_BOOL_KIND = frozenset((bool,))


def available():
    """Whether NumPy is installed (the vector lane needs it); asking does
    not load it."""
    return np is not None


def column_array(values):
    """A NumPy column for a sequence of Python values, type-faithfully.

    Uniform ``bool``/``int``/``float`` sequences get native dtypes (the
    vectorizable fast path); anything else -- strings, ``None``, mixed
    types, ints outside int64 -- becomes an ``object`` array so that
    ``tolist`` returns the original objects bit-for-bit.
    """
    values = list(values)
    if values:
        # set(map(type, ...)) runs at C speed; ``type`` is exact, so a
        # bool mixed into an int column still falls through to object
        kinds = set(map(type, values))
        if kinds == _INT_KIND:
            try:
                return np.array(values, dtype=np.int64)
            except OverflowError:  # out-of-int64 values stay objects
                pass
        elif kinds == _FLOAT_KIND:
            return np.array(values, dtype=np.float64)
        elif kinds == _BOOL_KIND:
            return np.array(values, dtype=np.bool_)
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def concat_columns(arrays):
    """Concatenate one logical column's chunks without dtype corruption.

    ``np.concatenate`` silently promotes ``int64 + float64`` to
    ``float64`` (turning ``5`` into ``5.0`` on the way back to
    tuple-land), so mismatched chunk dtypes are rebuilt through
    :func:`column_array` instead.
    """
    if len(arrays) == 1:
        return arrays[0]
    dtype = arrays[0].dtype
    for arr in arrays[1:]:
        if arr.dtype != dtype:
            merged = []
            for chunk in arrays:
                merged.extend(chunk.tolist())
            return column_array(merged)
    return np.concatenate(arrays)


class ColumnBatch:
    """One delta batch as (lazy) struct-of-arrays.

    ``signs`` and ``bits`` are parallel int64 arrays to a vector kernel
    and parallel Python lists (:meth:`sign_list`, :meth:`bit_list`) to a
    row kernel.  A batch built by the row lane carries the lists its
    kernel produced and builds (and caches) an array only when ``signs``
    / ``bits`` is actually read, so a chain of row kernels never touches
    NumPy; a batch built from arrays lists them on demand.  The row
    columns live in one of four states:

    * **column-backed** -- ``_columns`` is a tuple of per-column arrays
      (the output of a vectorized kernel);
    * **row-backed** -- ``_columns`` is None and ``_rows`` holds the
      Python row tuples; individual columns materialize on first access
      via :meth:`column` and are cached;
    * **gather-backed** -- ``_gather`` holds ``(source, rows, indices)``
      parts side by side (the vectorized join emits its output as index
      views over the probe batch and the state arrays); a column
      materializes as ``source column fancy-indexed by the part's
      indices``, exactly the arrays the eager gather produced, but only
      for columns a consumer actually reads;
    * **chunk-backed** -- ``_chunks`` holds consumed batches stacked
      vertically (:func:`concat_batches` over lazy inputs); a column
      materializes as the dtype-safe concat of the chunks' columns.

    The lazy states compose (a gather part may itself be lazy, chunks
    may hold gathers), so a join-over-join pipeline materializes nothing
    until a sink, an aggregate input read, or a state install asks for
    rows -- the top-level ``signs``/``bits`` are authoritative (backing
    chunks' own are never consulted).

    The ``bits`` array is only ever built when every query id is below
    62, so bitvectors fit int64 (``~0`` table bitvectors are ``-1``,
    which ANDs correctly in two's complement): the executor keeps a plan
    with a larger id on the row lane, whose bit lists hold plain ints.
    """

    __slots__ = ("_columns", "_signs", "_bits", "_sign_list", "_bit_list",
                 "_rows", "width", "_col_cache", "_gather", "_chunks")

    def __init__(self, columns, signs, bits):
        self._columns = columns
        self._signs = signs
        self._bits = bits
        self._sign_list = None
        self._bit_list = None
        self._rows = None
        self.width = len(columns)
        self._col_cache = None
        self._gather = None
        self._chunks = None

    def __len__(self):
        signs = self._sign_list
        return len(self._signs) if signs is None else len(signs)

    @property
    def signs(self):
        """The int64 sign array (built once from a list-backed batch)."""
        signs = self._signs
        if signs is None:
            signs = self._signs = _int64_array(self._sign_list)
        return signs

    @property
    def bits(self):
        """The int64 query-bitvector array (built once, like ``signs``)."""
        bits = self._bits
        if bits is None:
            bits = self._bits = _int64_array(self._bit_list)
        return bits

    def sign_list(self):
        """The signs as Python ints (the list a row kernel produced, or
        the array listed)."""
        signs = self._sign_list
        return self._signs.tolist() if signs is None else signs

    def bit_list(self):
        """The query bitvectors as Python ints, like :meth:`sign_list`."""
        bits = self._bit_list
        return self._bits.tolist() if bits is None else bits

    @classmethod
    def empty(cls, width):
        """The shared, immutable empty batch of ``width`` columns.

        Eager schedules produce empty inputs and outputs by the hundred
        per window, so "nothing" is one object per width rather than an
        allocation per call.  It is list-backed like every row-lane
        batch: its row store and sign/bit lists are tuples, and its
        signs/bits arrays are built only when read, read-only.
        """
        batch = _EMPTY.get(width)
        if batch is None:
            batch = _EMPTY[width] = cls.from_rows((), [], [], width)
            batch._sign_list = batch._bit_list = ()
        return batch

    @classmethod
    def from_rows(cls, rows, signs, bits, width):
        """A row-backed batch; columns materialize lazily on access.

        ``signs`` and ``bits`` are each a list of Python ints (the row
        lane) or an int64 array.
        """
        batch = cls.__new__(cls)
        batch._columns = None
        batch._rows = rows
        batch.width = width
        batch._col_cache = None
        batch._gather = None
        batch._chunks = None
        batch._set_signs_bits(signs, bits)
        return batch

    def _set_signs_bits(self, signs, bits):
        if type(signs) is list:
            self._signs, self._sign_list = None, signs
        else:
            self._signs, self._sign_list = signs, None
        if type(bits) is list:
            self._bits, self._bit_list = None, bits
        else:
            self._bits, self._bit_list = bits, None

    @classmethod
    def from_gather(cls, parts, signs, bits, width):
        """A gather-backed batch: an index view over one or more sources.

        Each part is ``(source, rows, indices)`` -- ``source`` is a
        :class:`ColumnBatch` or a plain tuple of column arrays,
        ``rows`` an optional parallel list of Python row tuples for the
        tuple-of-arrays case, and ``indices`` an int64 array into the
        source.  Parts contribute their columns side by side in order.
        Sources must be snapshots (append-only or reassigned-on-change,
        never mutated in place) so the view stays valid after emission.
        """
        batch = cls.from_rows(None, signs, bits, width)
        batch._gather = parts
        return batch

    @classmethod
    def from_chunks(cls, chunks, signs, bits, width):
        """A chunk-backed batch: ``chunks`` stacked vertically, lazily.

        ``signs``/``bits`` are the authoritative top-level arrays (the
        chunks' own may be stale after ``with_bits``); chunks are only
        consulted for row/column content.
        """
        batch = cls.from_rows(None, signs, bits, width)
        batch._chunks = chunks
        return batch

    @property
    def columns(self):
        """The full struct-of-arrays view (materializes a row-backed
        batch; vectorized kernels that gather every column pay this once
        per batch)."""
        columns = self._columns
        if columns is None:
            rows = self._rows
            if not self.width:
                columns = ()
            elif rows is not None and not rows:
                columns = tuple(
                    np.empty(0, dtype=object) for _ in range(self.width)
                )
            elif rows is not None:
                cache = self._col_cache or {}
                cols = zip(*rows)
                columns = tuple(
                    cache[i] if i in cache else column_array(col)
                    for i, col in enumerate(cols)
                )
            else:
                columns = tuple(
                    self.column(i) for i in range(self.width)
                )
            self._columns = columns
            self._col_cache = None
        return columns

    def column(self, i):
        """One column's array, materialized (and cached) on demand."""
        columns = self._columns
        if columns is not None:
            return columns[i]
        cache = self._col_cache
        if cache is None:
            cache = self._col_cache = {}
        arr = cache.get(i)
        if arr is None:
            arr = cache[i] = self._build_column(i)
        return arr

    def _build_column(self, i):
        gather = self._gather
        if gather is not None:
            offset = 0
            for source, _rows, indices in gather:
                part_width = (
                    source.width if type(source) is ColumnBatch
                    else len(source)
                )
                if i < offset + part_width:
                    local = i - offset
                    base = (
                        source.column(local)
                        if type(source) is ColumnBatch else source[local]
                    )
                    return base[indices]
                offset += part_width
            raise IndexError(i)
        chunks = self._chunks
        if chunks is not None:
            return concat_columns([chunk.column(i) for chunk in chunks])
        return column_array([row[i] for row in self._rows])

    def column_values(self, i):
        """One column as a Python-typed list (no array detour when the
        batch is row-backed)."""
        rows = self._rows
        if rows is not None:
            return [row[i] for row in rows]
        return self.column(i).tolist()

    def rows(self):
        """Python-typed row tuples (cached per batch)."""
        rows = self._rows
        if rows is None:
            gather = self._gather
            chunks = self._chunks
            if gather is not None:
                parts = []
                for source, src_rows, indices in gather:
                    idx = indices.tolist()
                    if type(source) is ColumnBatch:
                        src = source.rows()
                        parts.append([src[k] for k in idx])
                    elif src_rows is not None:
                        parts.append([src_rows[k] for k in idx])
                    elif not len(source):
                        parts.append([()] * len(idx))
                    else:
                        zipped = list(
                            zip(*(c.tolist() for c in source))
                        )
                        parts.append([zipped[k] for k in idx])
                if len(parts) == 1:
                    rows = parts[0]
                elif len(parts) == 2:
                    rows = [a + b for a, b in zip(parts[0], parts[1])]
                else:
                    rows = [
                        tuple(v for part in row_parts for v in part)
                        for row_parts in zip(*parts)
                    ]
            elif chunks is not None:
                rows = []
                for chunk in chunks:
                    rows.extend(chunk.rows())
            elif self._columns:
                rows = list(zip(*(c.tolist() for c in self._columns)))
            else:
                rows = [()] * len(self.signs)
            self._rows = rows
        return rows

    def take(self, indices):
        """Row subset by index array (columns, signs and bits together).

        Row-backed batches gather rows and stay row-backed; gather views
        compose indices; chunk stacks split at chunk boundaries (take
        callers pass ascending index arrays -- ``np.flatnonzero``
        masks); column-backed batches gather arrays.
        """
        if self._columns is None:
            rows = self._rows
            if rows is not None:
                return ColumnBatch.from_rows(
                    [rows[i] for i in indices.tolist()],
                    self.signs[indices],
                    self.bits[indices],
                    self.width,
                )
            gather = self._gather
            if gather is not None:
                batch = ColumnBatch.from_gather(
                    tuple(
                        (source, src_rows, part_idx[indices])
                        for source, src_rows, part_idx in gather
                    ),
                    self.signs[indices],
                    self.bits[indices],
                    self.width,
                )
                cache = self._col_cache
                if cache:
                    batch._col_cache = {
                        i: arr[indices] for i, arr in cache.items()
                    }
                return batch
            chunks = self._chunks
            n = len(indices)
            ascending = (
                n < 2 or bool((indices[1:] >= indices[:-1]).all())
            )
            if ascending:
                kept = []
                offset = 0
                pos = 0
                for chunk in chunks:
                    end = offset + len(chunk)
                    cut = int(np.searchsorted(indices, end, side="left"))
                    if cut > pos:
                        kept.append(chunk.take(indices[pos:cut] - offset))
                    pos = cut
                    offset = end
                signs = self.signs[indices]
                bits = self.bits[indices]
                if not kept:
                    return ColumnBatch.from_rows([], signs, bits, self.width)
                if len(kept) == 1:
                    only = kept[0]
                    only._set_signs_bits(signs, bits)
                    return only
                return ColumnBatch.from_chunks(
                    tuple(kept), signs, bits, self.width
                )
            # unordered indices: fall through to the array gather
        return ColumnBatch(
            tuple(c[indices] for c in self.columns),
            self.signs[indices],
            self.bits[indices],
        )

    def with_bits(self, bits):
        """Same rows/columns, new bits (shares backing storage)."""
        batch = ColumnBatch.__new__(ColumnBatch)
        batch._columns = self._columns
        batch._signs = self._signs
        batch._sign_list = self._sign_list
        batch._bits = bits
        batch._bit_list = None
        batch._rows = self._rows
        batch.width = self.width
        batch._col_cache = self._col_cache
        batch._gather = self._gather
        batch._chunks = self._chunks
        return batch


_EMPTY = {}  # width -> the shared empty batch (ColumnBatch.empty)


def _int64_array(values):
    """An int64 array of a sign or bit list; read-only when the list is a
    tuple (the shared empty batch's)."""
    array = np.array(values, dtype=np.int64)
    if type(values) is tuple:
        array.flags.writeable = False
    return array


def concat_batches(batches, width):
    """Concatenate output batches in order (used by the columnar join).

    If every chunk is row-backed the concatenation is a list merge and
    the result stays row-backed (lazy; signs and bits stay lists when
    every chunk carries lists); if any chunk is a lazy view
    (gather- or chunk-backed) the result is a chunk-backed stack that
    defers per-column concatenation until the column is read; only
    all-column-backed inputs concatenate eagerly.
    """
    if not batches:
        return ColumnBatch.empty(width)
    if len(batches) == 1:
        return batches[0]
    row_backed = all(
        b._rows is not None and b._columns is None for b in batches
    )
    if row_backed and all(
        b._sign_list is not None and b._bit_list is not None for b in batches
    ):
        signs, bits = [], []
        for b in batches:
            signs.extend(b._sign_list)
            bits.extend(b._bit_list)
    else:
        signs = np.concatenate([b.signs for b in batches])
        bits = np.concatenate([b.bits for b in batches])
    if row_backed:
        rows = []
        for b in batches:
            rows.extend(b._rows)
        return ColumnBatch.from_rows(rows, signs, bits, width)
    if any(b._columns is None for b in batches):
        return ColumnBatch.from_chunks(tuple(batches), signs, bits, width)
    columns = tuple(
        concat_columns([b.columns[i] for b in batches]) for i in range(width)
    )
    return ColumnBatch(columns, signs, bits)
