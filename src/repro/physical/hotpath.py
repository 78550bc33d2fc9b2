"""Hot-path engine configuration and shared compile-time caches.

The incremental engine has two interchangeable execution paths:

* the **batched** path (default) processes whole delta lists per operator
  with hoisted attribute lookups, pre-bound closures, cached bits->query
  decodings and multiplicity-shared delta expansion;
* the **reference** path applies every delta through the original
  per-tuple calls.

Both paths produce bit-identical :class:`~repro.engine.metrics.RunResult`
work/latency numbers and identical output delta streams -- the reference
path exists as the correctness oracle (``tests/test_hotpath_equivalence``)
and as the baseline of ``benchmarks/bench_engine_hotpath.py``.

Three independent toggles (``batched`` and ``arrangements`` default on,
``columnar`` defaults off):

``batched``
    batched delta application in the physical operators.
``columnar``
    struct-of-arrays delta batches with NumPy-vectorized operator
    kernels (:mod:`repro.physical.columnar`); results are
    tolerance-equivalent to the batched path and WorkMeter charges are
    exactly identical (docs/PERFORMANCE.md).  The request is honoured
    only when :func:`columnar_available` says so (NumPy importable, kill
    switch not set) and the plan's query ids fit an int64 bitvector.
    Outside ``stats_mode`` its filter -> project -> aggregate-input
    chains run as generated fused kernels (:mod:`repro.physical.fused`):
    NumPy kernels on batches above ``columnar.ROW_LANE_MAX`` rows, one
    generated scalar row loop at or below it.
``arrangements``
    shared join arrangements (:mod:`repro.engine.arrangements`): one
    multi-reader index per ``(table, key columns)`` replaces the
    eligible joins' private hash tables.  Results and WorkMeter charges
    stay bit-identical to the private path (the fuzz oracle
    ``shared-arranged`` enforces it); resident state and maintenance
    work drop (docs/ARRANGEMENTS.md).

Not toggles: compiled per-node artifacts (predicate and projection
functions, join key getters, aggregate input functions, fused kernels)
are always memoized process-wide by :func:`cached_artifacts` -- and the
generated source under them once per distinct text
(:func:`repro.relational.codegen.compile_source`) -- and a
:class:`~repro.engine.executor.PlanExecutor` always reuses its compiled
operator tree across ``run()`` calls (state is deterministically reset
instead of rebuilt).

Environment overrides (read once at import): ``REPRO_ENGINE_UNBATCHED``,
``REPRO_ENGINE_NO_ARRANGEMENTS`` (kill switch restoring per-join
private state), and ``REPRO_ENGINE_COLUMNAR`` (``1`` turns the columnar
backend on by default, ``0`` is a kill switch that pins it off even
when ``engine_mode(columnar=True)`` asks for it).  Worker processes do
not rely on them: :mod:`repro.workers` ships the driver's mode.
"""

import os
from contextlib import contextmanager

from ..relational.codegen import clear_code_cache

_COLUMNAR_ENV = os.environ.get("REPRO_ENGINE_COLUMNAR", "").strip().lower()

#: kill switch: ``REPRO_ENGINE_COLUMNAR=0`` (or ``off``) disables the
#: columnar backend regardless of :data:`HOTPATH`; tests monkeypatch it
COLUMNAR_KILLED = _COLUMNAR_ENV in ("0", "off", "no", "false")

_NUMPY_OK = None


def columnar_available():
    """Whether the columnar backend can run at all in this process."""
    global _NUMPY_OK
    if _NUMPY_OK is None:
        try:
            import numpy  # noqa: F401
        except ImportError:
            _NUMPY_OK = False
        else:
            _NUMPY_OK = True
    return _NUMPY_OK and not COLUMNAR_KILLED


class EngineMode:
    """Mutable toggles for the engine's hot-path optimisations."""

    __slots__ = ("batched", "columnar", "arrangements")

    def __init__(self, batched=True, columnar=False, arrangements=True):
        self.batched = bool(batched)
        self.columnar = bool(columnar)
        self.arrangements = bool(arrangements)

    def values(self):
        """The toggles as a tuple in ``__slots__`` order (picklable)."""
        return (self.batched, self.columnar, self.arrangements)

    def restore(self, values):
        """Set every toggle from a :meth:`values` tuple."""
        self.batched, self.columnar, self.arrangements = values

    def __repr__(self):
        return "EngineMode(batched=%s, columnar=%s, arrangements=%s)" % (
            self.values()
        )


#: process-wide engine mode; mutate via :func:`engine_mode` in tests
HOTPATH = EngineMode(
    batched=not os.environ.get("REPRO_ENGINE_UNBATCHED"),
    columnar=_COLUMNAR_ENV in ("1", "on", "yes", "true"),
    arrangements=not os.environ.get("REPRO_ENGINE_NO_ARRANGEMENTS"),
)


def engine_mode_label():
    """Short backend name for reports/metadata: which path would run."""
    if HOTPATH.columnar and columnar_available():
        return "columnar"
    return "batched" if HOTPATH.batched else "reference"


@contextmanager
def engine_mode(batched=None, columnar=None, arrangements=None):
    """Temporarily override :data:`HOTPATH` toggles (tests, benchmarks)."""
    saved = HOTPATH.values()
    if batched is not None:
        HOTPATH.batched = bool(batched)
    if columnar is not None:
        HOTPATH.columnar = bool(columnar)
    if arrangements is not None:
        HOTPATH.arrangements = bool(arrangements)
    try:
        yield HOTPATH
    finally:
        HOTPATH.restore(saved)


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
