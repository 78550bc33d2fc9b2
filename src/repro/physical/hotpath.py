"""Shared compile-time caches and the pieces both operator families use.

The incremental engine has one production backend: the
**size-dispatched operators** (:mod:`repro.physical.columnar`; reports
and ``RunResult.metadata`` label it ``"columnar"``) pass
struct-of-arrays delta batches between operators and run every filter
-> project -> aggregate-input chain as a generated kernel
(:mod:`repro.physical.fused`): one scalar row loop for a batch of at
most ``columnar.ROW_LANE_MAX`` rows (the *row lane*), NumPy kernels
above it (the *vector lane*).  Nothing switches it off at runtime.  The
per-tuple operators of :mod:`repro.physical.operators` are the work
oracle: only :class:`repro.fuzz.reference.ReferenceExecutor` compiles
them, for tests, the fuzzer and the micro benchmark.  The row lane is
bit-identical to them -- results, WorkMeter charges, every execution
record.  The vector lane charges exactly the same work; its float
segment sums may associate differently, so its results are
tolerance-equivalent (docs/PERFORMANCE.md).

Whether the vector lane may fire is not a setting: the executor works
it out per plan from what it can observe -- NumPy importable and every
query id below 62, so bitvectors fit an int64 array -- and binds it into
each operator.  Where it may not, every batch takes the row lane --
calibration's too: a stats run is the production tree plus tallies of
the batches between its operators.  Nor is which join sides read a
shared arrangement (:mod:`repro.engine.arrangements`): a production join
side over a bare base-table scan always does.

Not settings either: compiled per-node artifacts (key getters, aggregate
input functions, fused kernels) are always memoized process-wide by
:func:`cached_artifacts` -- and the generated source under them once per
distinct text (:func:`repro.relational.codegen.compile_source`) -- and a
:class:`~repro.engine.executor.PlanExecutor` always reuses its compiled
operator tree across ``run()`` calls (state is deterministically reset
instead of rebuilt).
"""

from ..errors import ExecutionError
from ..relational.codegen import clear_code_cache
from ..relational.tuples import INSERT


def engine_mode_label():
    """The backend name reports stamp: always ``"columnar"``."""
    return "columnar"


# -- bits -> query-id decoding cache ----------------------------------------
#
# Delta bitvectors repeat heavily (most tuples of a batch carry the same
# query set), so decoding a mask to its query ids through the iter_bits
# generator per record is the single hottest per-tuple cost in shared
# aggregates.  Decodings are memoized per distinct (non-negative) mask.

_QIDS_CACHE = {0: ()}
_QIDS_LIMIT = 1 << 16


def qids_of(bits):
    """The tuple of query ids set in ``bits`` (must be non-negative).

    Callers mask deltas against a subplan/filter mask first; raw ``~0``
    bitvectors would not terminate.
    """
    cached = _QIDS_CACHE.get(bits)
    if cached is None:
        if len(_QIDS_CACHE) >= _QIDS_LIMIT:
            _QIDS_CACHE.clear()
            _QIDS_CACHE[0] = ()
        qids = []
        mask = bits
        qid = 0
        while mask:
            if mask & 1:
                qids.append(qid)
            mask >>= 1
            qid += 1
        cached = _QIDS_CACHE[bits] = tuple(qids)
    return cached


# -- compiled per-node artifact cache ---------------------------------------
#
# OpNode uids are unique for the lifetime of the process and a node's
# decorations/keys/schemas are immutable after plan construction, so the
# compiled closures can be shared by every operator instantiation of the
# node -- across PlanExecutor builds, across run() calls and across
# processes' repeated sweep cells.  The cache is bounded: when it fills,
# it is cleared wholesale (recompilation is cheap relative to a leak).

_ARTIFACTS = {}
_ARTIFACTS_LIMIT = 4096

#: (hits, misses) counters; surfaced through repro.obs when enabled
compile_cache_stats = {"hits": 0, "misses": 0}


def cached_artifacts(key, builder):
    """Fetch (or build and memoize) the compiled artifacts of one node.

    ``key`` is a hashable cache key, conventionally ``(kind, node.uid)``
    so different artifact families of the same node do not collide.
    ``builder`` is a zero-argument callable producing the artifact object;
    it runs exactly once per key while the cache holds the entry.
    """
    artifacts = _ARTIFACTS.get(key)
    if artifacts is None:
        if len(_ARTIFACTS) >= _ARTIFACTS_LIMIT:
            _ARTIFACTS.clear()
        artifacts = _ARTIFACTS[key] = builder()
        compile_cache_stats["misses"] += 1
    else:
        compile_cache_stats["hits"] += 1
    return artifacts


def clear_compiled_caches():
    """Drop every memoized artifact, compiled source text and bits
    decoding (tests, cold-compile measurements)."""
    _ARTIFACTS.clear()
    clear_code_cache()
    _QIDS_CACHE.clear()
    _QIDS_CACHE[0] = ()
    compile_cache_stats["hits"] = 0
    compile_cache_stats["misses"] = 0


# -- aggregate pieces both operator families use ------------------------------
#
# The per-tuple reference (:mod:`repro.physical.operators`) and the
# generated group-record kernels (:mod:`repro.physical.fused`) keep
# MIN/MAX values in the same state object and order emissions by the
# same key, so neither imports the other.


class _MinMaxState:
    """MIN/MAX with rescan-on-delete.

    Values are kept in a multiset; when a deletion removes the current
    extremum the state rescans all stored values to find the new one,
    charging one rescan work unit per value scanned (paper section 5.3:
    "the max operator needs to rescan all arrived values to find the new
    max one").
    """

    __slots__ = ("is_max", "values", "extremum")

    def __init__(self, is_max):
        self.is_max = is_max
        self.values = {}
        self.extremum = None

    def update(self, value, sign, meter, name):
        if sign == INSERT:
            self.values[value] = self.values.get(value, 0) + 1
            if self.extremum is None:
                self.extremum = value
            elif self.is_max and value > self.extremum:
                self.extremum = value
            elif not self.is_max and value < self.extremum:
                self.extremum = value
            return
        count = self.values.get(value, 0)
        if count <= 0:
            # Deleting a value that never arrived would silently drive the
            # multiset count negative and corrupt every later rescan.
            raise ExecutionError(
                "%s: MIN/MAX delete of value %r not present in the multiset"
                % (name, value)
            )
        if count == 1:
            del self.values[value]
        else:
            self.values[value] = count - 1
        if value == self.extremum and value not in self.values:
            meter.charge_rescan(name, len(self.values))
            if self.values:
                self.extremum = max(self.values) if self.is_max else min(self.values)
            else:
                self.extremum = None

    def current(self):
        return self.extremum


_TYPE_NAMES = {}


def _sort_key(row):
    # str(type(v)) is memoized per type; the rendered value is not (rows
    # rarely repeat within one emission sort).
    names = _TYPE_NAMES
    key = []
    for value in row:
        value_type = type(value)
        name = names.get(value_type)
        if name is None:
            name = names[value_type] = str(value_type)
        key.append((name, str(value)))
    return tuple(key)
