"""On-disk, content-keyed cache for calibration results.

Calibration (one instrumented batch run per plan shape,
:func:`repro.engine.calibrate.calibrate_plan`) is the dominant fixed cost
of every benchmark invocation: each approach calibrates its own plan and
the reference (unshared) plan is calibrated again for the latency goals
and absolute constraints.  The measured statistics are a pure function of

* the plan's *structure* (operators, decorations, subplan DAG),
* the *content* of the base tables the plan reads, and
* the :class:`~repro.engine.stream.StreamConfig` timing parameters,

so a repeat run over unchanged inputs can skip the batch execution
entirely.  This module provides the stable signature of those three
inputs, the serialization of calibrated :class:`~repro.cost.stats
.NodeStats` (nodes are keyed by their deterministic traversal position,
so the same structural signature guarantees the same node order), and a
small JSON-file-per-key store with atomic writes so concurrent worker
processes (see :mod:`repro.workers`) can share one cache
directory safely.

The cache is opt-in: nothing is read or written unless a cache is passed
to ``calibrate_plan`` or installed process-wide with
:func:`set_default_cache` (the harness CLI and the benchmarks do the
latter; ``--no-cache`` turns it off).  So is OpenSSL: ``hashlib`` is
imported by the two functions that digest, and a process that never
keys a calibration never maps it (about 3.6 MB of RSS).
"""

import json
import os
import tempfile

from ..mqo.nodes import SubplanRef, TableRef
from .stats import NodeStats

#: bump when the stored payload shape or the signature scheme changes;
#: mismatched entries are treated as misses, never as errors
CACHE_FORMAT_VERSION = 2

#: environment override for the default cache directory
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_STAT_SCALARS = (
    "scanned_total", "kept_total", "in_left", "in_right", "join_out",
    "agg_in", "groups_union", "agg_out",
)
_STAT_MAPS = (
    "kept_per_q", "filter_sel_per_q", "in_left_per_q", "in_right_per_q",
    "join_out_per_q", "agg_in_per_q", "groups_per_q",
)


def default_cache_dir():
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-calibration``."""
    return os.environ.get(CACHE_DIR_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-calibration"
    )


# -- signatures ----------------------------------------------------------------

def stream_signature(stream_config):
    """Stable tuple of every timing parameter that affects measurements.

    The charges are the config's exact rationals, so ``0.3`` and
    ``"3/10"`` key one entry.
    """
    return (
        "stream",
        stream_config.load_seconds,
        stream_config.work_rate,
        stream_config.execution_overhead,
        stream_config.state_factor,
        stream_config.compact_buffers,
    )


def catalog_signature(catalog, table_names):
    """Content digest of the named tables (schema + full delta log)."""
    import hashlib

    digest = hashlib.sha256()
    for name in sorted(table_names):
        table = catalog.get(name)
        digest.update(repr((name, tuple(table.schema.names()))).encode())
        for row, sign in table.delta_log():
            digest.update(repr((row, sign)).encode())
    return digest.hexdigest()


def _walk_preorder(node):
    yield node
    for child in node.children:
        for descendant in _walk_preorder(child):
            yield descendant


def node_signature(node, sid_position):
    """Structural signature of one shared-plan node.

    ``sid_position`` names the child subplans a source leaf reads --
    topological positions for :func:`plan_signature`, matched sids for
    the incremental re-merge (:mod:`repro.core.incremental`).
    """
    if node.kind == "source":
        ref = node.ref
        if isinstance(ref, TableRef):
            source = ("table", ref.name)
        elif isinstance(ref, SubplanRef):
            source = ("subplan", sid_position[ref.subplan.sid])
        else:  # pragma: no cover - rejected at plan build time
            source = ("unknown", repr(ref))
    else:
        source = None
    filters = tuple(
        (qid, expr.signature()) for qid, expr in sorted(node.filters.items())
    )
    projections = tuple(
        (qid, tuple((alias, expr.signature()) for alias, expr in proj))
        for qid, proj in sorted(node.projections.items())
    )
    return (
        node.kind,
        source,
        node.left_keys,
        node.right_keys,
        node.group_by,
        tuple(spec.signature() for spec in node.aggs) if node.aggs else None,
        filters,
        projections,
        node.query_mask,
        tuple(node_signature(child, sid_position) for child in node.children),
    )


def plan_signature(plan):
    """Structural signature of a shared plan (no data, no statistics).

    Subplans are identified by topological position rather than raw sid
    so structurally identical plans built in different sessions match.
    """
    order = plan.topological_order()
    sid_position = {subplan.sid: index for index, subplan in enumerate(order)}
    subplans = tuple(
        (
            sid_position[subplan.sid],
            tuple(subplan.query_ids()),
            node_signature(subplan.root, sid_position),
        )
        for subplan in order
    )
    roots = tuple(sorted(
        (qid, sid_position[root.sid]) for qid, root in plan.query_roots.items()
    ))
    return ("plan", subplans, roots)


def calibration_key(plan, stream_config):
    """Hex digest keying one calibration: plan + table content + stream."""
    import hashlib

    tables = set()
    for subplan in plan.subplans:
        tables.update(subplan.base_tables())
    payload = repr((
        CACHE_FORMAT_VERSION,
        plan_signature(plan),
        stream_signature(stream_config),
        catalog_signature(plan.catalog, tables),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


# -- stats serialization --------------------------------------------------------

def _plan_nodes(plan):
    """Every node of the plan in the deterministic traversal order."""
    return [
        node
        for subplan in plan.topological_order()
        for node in _walk_preorder(subplan.root)
    ]


def serialize_stats(plan):
    """Calibrated per-node statistics as JSON-safe dicts, traversal order."""
    entries = []
    for node in _plan_nodes(plan):
        stats = node.stats
        entry = {"kind": stats.kind, "has_minmax": stats.has_minmax}
        for field in _STAT_SCALARS:
            entry[field] = getattr(stats, field)
        for field in _STAT_MAPS:
            entry[field] = {
                str(qid): value for qid, value in getattr(stats, field).items()
            }
        entries.append(entry)
    return entries


def apply_stats(plan, entries):
    """Attach serialized statistics back onto ``plan``'s nodes.

    Raises :class:`ValueError` when the entry list does not match the
    plan's node count -- callers treat that as a cache miss.
    """
    nodes = _plan_nodes(plan)
    if len(nodes) != len(entries):
        raise ValueError(
            "cached stats cover %d nodes, plan has %d" % (len(entries), len(nodes))
        )
    for node, entry in zip(nodes, entries):
        stats = NodeStats(entry["kind"])
        stats.has_minmax = bool(entry.get("has_minmax", False))
        for field in _STAT_SCALARS:
            setattr(stats, field, float(entry.get(field, 0.0)))
        for field in _STAT_MAPS:
            setattr(stats, field, {
                int(qid): value
                for qid, value in entry.get(field, {}).items()
            })
        node.stats = stats


# -- the store -------------------------------------------------------------------

class CalibrationCache:
    """A directory of JSON payloads, one file per content key.

    Writes go through a temporary file plus :func:`os.replace`, so
    concurrent writers (parallel harness workers) at worst redundantly
    store identical payloads; readers never observe partial files.
    ``hits`` / ``misses`` / ``stores`` count this instance's traffic.
    """

    def __init__(self, cache_dir=None):
        self.cache_dir = cache_dir or default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key_for(self, plan, stream_config):
        return calibration_key(plan, stream_config)

    def _path(self, key):
        return os.path.join(self.cache_dir, key + ".json")

    def get(self, key):
        """The stored payload dict, or None (counting a hit or a miss)."""
        try:
            with open(self._path(key)) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if payload.get("version") != CACHE_FORMAT_VERSION:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key, payload):
        payload = dict(payload, version=CACHE_FORMAT_VERSION)
        os.makedirs(self.cache_dir, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                # dumps, not dump: the same text from the C encoder,
                # where dump's pure-Python one leaves its self-recursive
                # closures in reference cycles
                handle.write(json.dumps(payload))
            os.replace(tmp_path, self._path(key))
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return
        self.stores += 1

    def clear(self):
        """Remove every stored entry (not the directory itself)."""
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return
        for name in names:
            if name.endswith(".json"):
                try:
                    os.unlink(os.path.join(self.cache_dir, name))
                except OSError:
                    pass

    def __repr__(self):
        return "CalibrationCache(%r, hits=%d, misses=%d)" % (
            self.cache_dir, self.hits, self.misses
        )


#: process-wide default used by ``calibrate_plan`` when no explicit cache
#: is passed; None (the initial state) disables caching entirely
_default_cache = None


def set_default_cache(cache):
    """Install (or with None, remove) the process-wide calibration cache."""
    global _default_cache
    _default_cache = cache
    return cache


def get_default_cache():
    return _default_cache
