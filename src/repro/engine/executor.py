"""The pace-driven incremental executor.

Given a :class:`~repro.mqo.nodes.SharedQueryPlan` and a pace
configuration, the executor simulates the loading window: at every system
progress fraction where some subplan is due, newly arrived base-table
deltas are appended to the table logs and the due subplans run one
incremental execution each, children before parents (paper section 5.1).
Each execution's output is appended, as one segment, to the subplan's
buffer, which parents drain at their own offsets.  A compiled tree is
built from the one operator family the executor class names
(:attr:`PlanExecutor.family`, :class:`ColumnarFamily`) and speaks one
delta form end to end, table feeds, buffers and sources included.
Nothing switches the family at runtime; the per-tuple oracle is a
subclass that names its own (:mod:`repro.fuzz.reference`).

All state (hash tables, aggregate groups, buffer offsets) persists across
the incremental executions of one run; a new :meth:`PlanExecutor.run`
starts from scratch.  "From scratch" reuses the compiled operator tree
-- state is deterministically reset instead of rebuilt, so repeated runs
of one executor (pace search nudging, two-phase baselines, calibration)
stop re-paying compilation.  The schedule is compiled too: one
:class:`WindowProgram` per pace configuration of a compiled tree, a flat
list of trigger-point steps that every run of that configuration replays
with integer arithmetic only.  Between trigger points the executor also
compacts the buffers a due subplan read.  Results are one more reader:
a run that collects them registers a reader on every query-root buffer
before the first trigger point and folds what it reads into each
query's net result (:func:`query_result_view`) right after each
execution of the root, so a root buffer is compacted like any other; a
run that does not leaves the roots without a reader, and a buffer nobody
reads holds nothing.

A subplan's operator state lives until its final execution.  Every
subplan executes at the trigger point and never again in the window, so
right after that execution it *retires*: its private join sides and
aggregate group records are released, and each buffer whose last due
reader it is gets compacted.  Its output buffer, meters and stats
counters stay for its readers -- a stats run reads its statistics off a
retiring subplan (the ``on_retire`` callback) before the release.  A
window's peak therefore follows the subplans still running, not the
whole plan.  Shared arrangements serve several subplans and live until
the window ends.

A run holds CPython's cyclic collector off (:func:`collector_paused`):
what the window builds is live until it retires, so a collector pass
inside the window could only traverse it.  Before the collector resumes,
a production run releases the rest -- arrangement versions and buffered
segments (a stats run keeps those for inspection) -- and reference
counting frees it without a traversal.  Nothing in the tree points back
at its owner, so a dropped executor is freed the same way.
"""

import gc
from contextlib import contextmanager
from fractions import Fraction
from operator import attrgetter
from time import perf_counter

from ..errors import ExecutionError
from ..mqo.nodes import SubplanRef, TableRef
from ..obs import OBS
from ..physical.columnar import (
    ColumnarAggregateExec,
    ColumnarJoinExec,
    ColumnarSourceExec,
)
from ..physical.hotpath import compile_cache_stats
from ..physical.work import WorkMeter
from . import columns
from .arrangements import ArrangementStore, arrangeable_side
from .buffers import Buffer
from .metrics import ExecutionRecord, RunResult
from .stream import StreamConfig, TableStream, execution_fractions


@contextmanager
def collector_paused():
    """Hold the cyclic collector off for the body; nesting-safe.

    A collector that was already off stays off; one that was on is back
    on at every exit, a raise included.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class CompiledSubplan:
    """A subplan's physical operator tree plus its work meter and buffer."""

    __slots__ = ("subplan", "meter", "root_exec", "buffer", "executions",
                 "reads")

    def __init__(self, subplan, meter, root_exec, buffer, reads):
        self.subplan = subplan
        self.meter = meter
        self.root_exec = root_exec
        self.buffer = buffer
        self.executions = 0
        #: the buffers an execution advances a reader of (source readers
        #: and arrangement cursors) -- what it can make compactable
        self.reads = reads

    def run_execution(self, quantum, overhead, state):
        """One incremental execution.

        Returns ``(work, latency_work, output_deltas)``, both works as
        integer counts of ``1/quantum`` work units: ``quantum`` per tuple
        unit, ``overhead`` per execution and ``state`` per live state
        entry.  ``latency_work`` excludes the post-emission state-store
        maintenance charge.
        """
        meter = self.meter
        tuples = meter.tuple_units
        entries = meter.state_entries
        out = self.root_exec.advance()
        self.buffer.append(out)
        self.executions += 1
        latency_work = (meter.tuple_units - tuples) * quantum + overhead
        work = latency_work + (meter.state_entries - entries) * state
        return work, latency_work, out


class TriggerPoint:
    """One step of a :class:`WindowProgram`: a progress point and what is due.

    ``numerator`` / ``denominator`` are the point's integers in lowest
    terms -- all :meth:`TableStream.batch_until` needs to place its row
    target -- and ``fraction`` is the same value as the
    :class:`~fractions.Fraction` the execution records carry.
    """

    __slots__ = ("fraction", "numerator", "denominator", "final", "units",
                 "retires", "drains")

    def __init__(self, fraction, units):
        self.fraction = fraction
        self.numerator = fraction.numerator
        self.denominator = fraction.denominator
        self.final = fraction == 1
        #: the :class:`CompiledSubplan` s due here, children first
        self.units = units
        # the buffers this step can drain: those a due subplan reads (a
        # buffer no reader moved on has nothing new to drop), each
        # mapped to the last due unit that reads it
        last = {}
        for index, unit in enumerate(units):
            for buffer in unit.reads:
                last[buffer] = index
        if self.final:
            #: per unit, ``None`` before the trigger point; at it, the
            #: buffers the unit drains as it retires (it is their last
            #: due reader)
            self.retires = [[] for _ in units]
            for buffer, index in last.items():
                self.retires[index].append(buffer)
            #: the buffers drained once the step's units all ran
            self.drains = []
        else:
            self.retires = [None] * len(units)
            self.drains = list(last)


class WindowProgram:
    """A trigger window's schedule, compiled against one operator tree.

    ``feeds`` are the ``(TableStream, Buffer)`` pairs every step ingests
    and ``steps`` the :class:`TriggerPoint` s in ascending order.  All
    validation happened when it was built; replaying it does integer
    arithmetic only.
    """

    __slots__ = ("feeds", "steps")

    def __init__(self, feeds, steps):
        self.feeds = feeds
        self.steps = steps


class ColumnarFamily:
    """The operator family every production tree is compiled from.

    The size-dispatched operators of :mod:`repro.physical.columnar`, the
    lane keyword arguments they are built with, whether a join side over
    a bare base-table scan reads the shared arrangement of its ``(table,
    key columns)`` (:mod:`repro.engine.arrangements`), how a table stream
    feeds its buffer, and the ``RunResult.metadata["engine_mode"]``
    label.
    """

    label = "columnar"
    source = ColumnarSourceExec
    join = ColumnarJoinExec
    aggregate = ColumnarAggregateExec
    arranges = True

    @staticmethod
    def lanes(plan):
        # The vector lane needs NumPy and every query id below 62, so
        # bitvectors fit the int64 ``bits`` array (``~0`` table
        # bitvectors are ``-1``, which ANDs correctly in two's
        # complement); without it the row lane serves every batch size.
        # A stats run compiles the same tree: calibration's counters are
        # tallies of the batches between operators, which need neither.
        return {
            "vector": columns.available()
            and max(plan.query_roots, default=0) < 62
        }

    @staticmethod
    def feed(stream, point):
        # one shared columnar segment per (table, fraction): all readers
        # of the buffer see the same batch object and share its lazy
        # column materialization
        return stream.batch_until(point)


class PlanExecutor:
    """Executes a shared plan under pace configurations."""

    #: the operator family every tree of this class is compiled from
    family = ColumnarFamily

    def __init__(self, plan, stream_config=None, stats_mode=False, catalog=None):
        self.plan = plan
        self.stream_config = stream_config or StreamConfig()
        self.stats_mode = stats_mode
        #: optional catalog override: execute the same plan against a
        #: different day's data (recurring queries re-run over each new
        #: trigger window while the plan/statistics come from history)
        self.catalog = catalog or plan.catalog
        self.compiled = None  # filled per run
        self._runtime = None  # compiled tree, reused across run() calls
        #: ``(pace tuple, WindowProgram)`` of the last pace configuration
        #: run on the tree; dropped whenever the tree is
        self._program = None
        self._query_sids = None  # qid -> its subplan ids, set by _compile
        self._lanes = None  # the family's lane kwargs for the plan

    def rebind(self, plan=None, catalog=None):
        """Swap the plan and/or catalog this executor runs.

        Long-running services re-optimize on churn and advance the data
        window between trigger firings; rebinding keeps one executor
        alive across both.  A new catalog is a data-only change: the
        live tree's table streams are re-pointed at its tables, and the
        operators, buffers, readers, arrangements and window program
        stay.  The tree is dropped only when the plan changed or a
        table's schema differs from the one its stream was built over
        (the next run then compiles exactly what a fresh executor
        would).  Returns whether a recompile was scheduled.
        """
        recompile = plan is not None and plan is not self.plan
        if recompile:
            self.plan = plan
        if catalog is not None and catalog is not self.catalog:
            self.catalog = catalog
            if not recompile and self._runtime is not None:
                recompile = not self._repoint_streams()
        if recompile:
            self._runtime = None
            self._program = None
            self.compiled = None
        return recompile

    def _repoint_streams(self):
        """Point the live tree's streams at ``self.catalog``; False if it cannot."""
        catalog = self.catalog
        streams = self._runtime[0]
        tables = [
            catalog.get(name) if catalog.has(name) else None
            for name in streams
        ]
        for stream, table in zip(streams.values(), tables):
            if table is None or table.schema != stream.table.schema:
                return False
        for stream, table in zip(streams.values(), tables):
            stream.rebind(table)
        return True

    # -- compilation ---------------------------------------------------------

    def _compile(self):
        self._lanes = self.family.lanes(self.plan)
        order = self.plan.topological_order()
        table_streams = {}
        table_buffers = {}
        for subplan in order:
            for name in subplan.base_tables():
                if name not in table_buffers:
                    table = self.catalog.get(name)
                    table_streams[name] = TableStream(table)
                    table_buffers[name] = Buffer("table:%s" % name)
        compiled = {}
        store = ArrangementStore()
        for subplan in order:
            meter = WorkMeter(self.stream_config.state_factor)
            reads = []
            root_exec = self._compile_node(
                subplan.root, subplan, meter, table_buffers, compiled, store,
                reads
            )
            buffer = Buffer("subplan:%d" % subplan.sid)
            compiled[subplan.sid] = CompiledSubplan(
                subplan, meter, root_exec, buffer, reads
            )
        # per-query subplan ids, child-first (``plan.subplans_of_query``
        # without its topological sort per query per run)
        self._query_sids = {
            qid: [s.sid for s in order if s.query_mask & (1 << qid)]
            for qid in self.plan.query_roots
        }
        return table_streams, table_buffers, compiled, order, store

    def _ensure_compiled(self):
        """The runtime tuple, reusing the previous run's tree.

        Reuse resets all mutable state (streams, buffers, reader offsets,
        meters, hash tables, aggregate groups, stats counters) so a reused
        tree is indistinguishable from a freshly compiled one: the
        window-end :meth:`_release` plus each operator tree's ``rewind``.
        :meth:`rebind` drops the tree when the plan changed.
        """
        if self._runtime is not None:
            for stream in self._runtime[0].values():
                stream.reset()
            self._release()
            for unit in self._runtime[2].values():
                unit.root_exec.rewind()
                unit.meter.reset()
                unit.executions = 0
            if OBS.enabled:
                OBS.metrics.counter("engine.tree_reuse").inc()
            return self._runtime
        self._runtime = self._compile()
        self._program = None
        return self._runtime

    def _release(self):
        """Drop the window's bulk state: buffered segments and view
        caches, arrangement versions, and what a subplan that did not
        retire (a failed window) still holds.

        Buffer readers rewind to offset 0; meters, execution counts and
        stats counters stay for whoever reads them after the run.
        """
        _, table_buffers, compiled, _, store = self._runtime
        for buffer in table_buffers.values():
            buffer.reset()
        store.reset()
        for unit in compiled.values():
            unit.buffer.reset()
            unit.root_exec.release()

    def _compile_node(self, node, subplan, meter, table_buffers, compiled,
                      store, reads):
        mask = subplan.query_mask
        family = self.family
        lanes = self._lanes
        if node.kind == "source":
            ref = node.ref
            consolidate_reads = False
            if isinstance(ref, TableRef):
                buffer = table_buffers[ref.name]
            elif isinstance(ref, SubplanRef):
                child = compiled.get(ref.subplan.sid)
                if child is None:
                    raise ExecutionError(
                        "subplan %d compiled before its child %d"
                        % (subplan.sid, ref.subplan.sid)
                    )
                buffer = child.buffer
                # compacted inter-subplan buffers (ablation-toggleable)
                consolidate_reads = self.stream_config.compact_buffers
            else:
                raise ExecutionError("unknown source ref %r" % (ref,))
            reads.append(buffer)
            return family.source(
                node, buffer.reader(), mask, meter, self.stats_mode,
                consolidate_reads=consolidate_reads, **lanes
            )
        children = [
            self._compile_node(child, subplan, meter, table_buffers, compiled,
                               store, reads)
            for child in node.children
        ]
        if node.kind == "join":
            if family.arranges:
                # a bare base-table scan reads the one shared index of its
                # (table, key columns); any other input gets a private state
                arranged = [None, None]
                for side in (0, 1):
                    spec = arrangeable_side(node, side)
                    if spec is not None:
                        table_name, key_indexes = spec
                        arranged[side] = store.handle(
                            table_name, key_indexes,
                            table_buffers[table_name], subplan.sid,
                            "join:%d" % node.uid,
                        )
                        reads.append(table_buffers[table_name])
                lanes = dict(lanes, arranged=arranged)
            return family.join(
                node, children[0], children[1], meter, self.stats_mode,
                **lanes
            )
        return family.aggregate(
            node, children[0], mask, meter, self.stats_mode, **lanes
        )

    # -- execution -------------------------------------------------------------

    def run(self, pace_config, collect_results=True, on_retire=None):
        """Execute the plan under ``pace_config`` (``{sid: pace}``).

        Returns a :class:`~repro.engine.metrics.RunResult`.
        """
        return self.run_schedule(
            None, pace_config, collect_results, on_retire
        )

    def run_schedule(self, fractions, pace_config=None, collect_results=True,
                     on_retire=None):
        """Execute with explicit per-subplan execution fractions.

        ``fractions`` maps subplan id to an ascending list of progress
        fractions in ``(0, 1]``; every subplan must include an execution
        at 1 (the trigger point).  This generalizes pace-based runs --
        e.g. the paper's "simple approach" baseline executes once before
        the trigger and once at it.  ``None`` means the ``i / pace``
        points of ``pace_config``, whose program is kept for the next
        run of the same paces; explicit fractions compile theirs afresh.

        Each subplan retires right after its execution at the trigger
        point; ``on_retire(unit)``, when given, is handed the
        :class:`CompiledSubplan` first, with its state still whole.  The
        window runs with the cyclic collector paused, and a run that is
        not a stats run releases the rest of the tree's state before it
        resumes.
        """
        with collector_paused():
            compiled = self.compiled = self._ensure_compiled()[2]
            if fractions is None:
                program = self._pace_program(pace_config)
            else:
                program = self._compile_program(fractions)
                if pace_config is None:
                    pace_config = {
                        sid: len(points) for sid, points in fractions.items()
                    }
            # results are one more reader of each query-root buffer,
            # registered before the window's first append so the log
            # holds it for them
            sinks = {}
            if collect_results:
                for qid, root in self.plan.query_roots.items():
                    sinks[qid] = compiled[root.sid].buffer.reader()
            try:
                return self._replay(program, pace_config, sinks, on_retire)
            finally:
                for reader in sinks.values():
                    reader.buffer.detach(reader)
                if not self.stats_mode:
                    self._release()

    def _replay(self, program, pace_config, sinks, on_retire):
        """One window of ``program``, with the results of ``sinks``' queries."""
        compiled, order, store = self._runtime[2:]
        plan = self.plan
        # each root's readers, folded into their queries' net results
        # after every execution of the root
        results = {}
        folds = {}
        for qid, reader in sinks.items():
            net = results[qid] = {}
            root = compiled[plan.query_roots[qid].sid]
            folds.setdefault(root, []).append((qid, reader, net))
        result = RunResult(pace_config, self.stream_config)
        feed = self.family.feed
        result.metadata["engine_mode"] = self.family.label
        result.metadata["arrangements"] = bool(len(store))
        config = self.stream_config
        quantum = config.quantum
        charges = (quantum, int(config.execution_overhead * quantum),
                   int(config.state_factor * quantum))
        observed = OBS.enabled
        run_start_us = OBS.tracer.now_us() if observed else 0.0
        feeds = program.feeds
        for step in program.steps:
            for stream, buffer in feeds:
                segment = feed(stream, step)
                if segment:
                    buffer.append(segment)
            fraction = step.fraction
            final = step.final
            # child-first within one trigger point
            for unit, retire in zip(step.units, step.retires):
                if observed:
                    work, latency_work, out = _observed_execution(
                        unit, charges, fraction
                    )
                else:
                    work, latency_work, out = unit.run_execution(*charges)
                result.add_record(
                    ExecutionRecord(
                        unit.subplan.sid, fraction, work, len(out),
                        latency_work
                    ),
                    final,
                )
                readers = folds.get(unit)
                if readers is not None:
                    for qid, reader, net in readers:
                        segments = reader.read_new()
                        if segments:
                            query_result_view(plan, qid, segments, net)
                    unit.buffer.compact()
                if retire is not None:
                    if on_retire is not None:
                        on_retire(unit)
                    unit.root_exec.release()
                    for buffer in retire:
                        buffer.compact()
            # memory-only: drop drained prefixes; logical offsets and
            # work are unaffected
            for buffer in step.drains:
                buffer.compact()
        if observed:
            OBS.tracer.complete("engine.run", run_start_us, {
                "subplans": len(order),
                "executions": len(result.records),
                "total_work": round(result.total_work, 2),
            })
            OBS.metrics.histogram("engine.run.seconds").observe(
                (OBS.tracer.now_us() - run_start_us) / 1e6
            )
            OBS.metrics.gauge("engine.compile_cache.hits").set(
                compile_cache_stats["hits"]
            )
            OBS.metrics.gauge("engine.compile_cache.misses").set(
                compile_cache_stats["misses"]
            )
        if len(store):
            summary = store.summary()
            result.metadata["arrangement_summary"] = summary
            if observed:
                metrics = OBS.metrics
                metrics.gauge("engine.arrangement.resident_entries").set(
                    summary["resident_entries"]
                )
                metrics.counter("engine.arrangement.maintenance_ops").inc(
                    summary["maintenance_ops"]
                )
                # per-reader work a private table would have paid minus
                # what the shared index actually applied
                metrics.counter("engine.arrangement.reused_ops").inc(
                    summary["shared_ops_saved"]
                )
                for info in summary["arrangements"]:
                    metrics.gauge(
                        "engine.arrangement.reader_lag", table=info["table"]
                    ).set(info["reader_lag"])

        final_work = result.subplan_final_quanta
        for qid, sids in self._query_sids.items():
            result.query_final_quanta[qid] = sum(
                final_work.get(sid, 0) for sid in sids
            )
        result.query_results = results
        return result

    # -- the window program ------------------------------------------------

    def _pace_program(self, pace_config):
        """The program of ``pace_config`` on the current tree, last one kept."""
        compiled = self._runtime[2]  # keyed by sid, child-first
        key = tuple([pace_config.get(sid) for sid in compiled])
        memo = self._program
        if memo is not None and memo[0] == key:
            return memo[1]
        self._validate_paces(pace_config)
        program = self._compile_program({
            sid: execution_fractions(pace_config[sid]) for sid in compiled
        })
        self._program = (key, program)
        return program

    def _compile_program(self, fractions):
        """Validate a schedule and flatten it into a :class:`WindowProgram`."""
        table_streams, table_buffers, compiled, order, _ = self._runtime
        one = Fraction(1)
        schedule = {}
        for subplan in order:
            if subplan.sid not in fractions:
                raise ExecutionError(
                    "no execution fractions for subplan %d" % subplan.sid
                )
            points = [Fraction(f) for f in fractions[subplan.sid]]
            if not points or points[-1] != one:
                raise ExecutionError(
                    "subplan %d must execute at the trigger point" % subplan.sid
                )
            previous = None
            for fraction in points:
                if fraction <= 0 or fraction > one:
                    raise ExecutionError(
                        "subplan %d execution fraction %s outside (0, 1]"
                        % (subplan.sid, fraction)
                    )
                if previous is not None and fraction <= previous:
                    raise ExecutionError(
                        "subplan %d execution fractions must be strictly "
                        "ascending, got %s after %s"
                        % (subplan.sid, fraction, previous)
                    )
                previous = fraction
                # ``order`` is child-first, so each point's list is too
                schedule.setdefault(fraction, []).append(compiled[subplan.sid])
        feeds = [
            (stream, table_buffers[name])
            for name, stream in table_streams.items()
        ]
        steps = [
            TriggerPoint(fraction, schedule[fraction])
            for fraction in sorted(schedule)
        ]
        return WindowProgram(feeds, steps)

    def _validate_paces(self, pace_config):
        for subplan in self.plan.subplans:
            if subplan.sid not in pace_config:
                raise ExecutionError("no pace for subplan %d" % subplan.sid)
            pace = pace_config[subplan.sid]
            for child in subplan.child_subplans():
                if pace_config[child.sid] < pace:
                    raise ExecutionError(
                        "parent subplan %d pace %d exceeds child %d pace %d"
                        % (subplan.sid, pace, child.sid, pace_config[child.sid])
                    )


def _observed_execution(unit, charges, fraction):
    """One incremental execution under a span, with WorkMeter delta metrics.

    Only called when observability is enabled; the disabled hot path calls
    ``unit.run_execution`` directly behind a single guard check.  Spans and
    metrics report work units.
    """
    meter = unit.meter
    before_in = meter.input_units
    before_out = meter.output_units
    before_rescan = meter.rescan_units
    before_state = meter.state_units
    sid = unit.subplan.sid
    span = OBS.tracer.span("engine.execute", sid=sid, fraction=str(fraction))
    started = perf_counter()
    with span:
        work, latency_work, out = unit.run_execution(*charges)
        span.set(work=round(work / charges[0], 2), outputs=len(out))
    elapsed = perf_counter() - started
    metrics = OBS.metrics
    # wall seconds of one incremental execution: sub-millisecond at toy
    # scales, resolved by the registry's microsecond-deep buckets
    metrics.histogram("engine.execution.seconds").observe(elapsed)
    metrics.counter("engine.executions").inc()
    metrics.counter("engine.subplan.executions", sid=sid).inc()
    for kind, delta in (
        ("input", meter.input_units - before_in),
        ("output", meter.output_units - before_out),
        ("rescan", meter.rescan_units - before_rescan),
        ("state", meter.state_units - before_state),
    ):
        if delta:
            metrics.counter("engine.subplan.work_units", sid=sid, kind=kind).inc(delta)
    metrics.histogram("engine.execution.work").observe(work / charges[0])
    return work, latency_work, out


_TRIPLE = attrgetter("row", "sign", "bits")


def query_result_view(plan, query_id, segments, net=None):
    """Net result multiset ``{row: count}`` of one query from its root's log.

    Keeps the entries carrying the query's bit, projects the shared union
    schema down to the query's own output columns (the per-query
    projection recorded at the root node) and nets out retractions.  The
    one consumer that takes either delta form: a production root's
    ``ColumnBatch`` segments are read as their parallel lists (no
    ``Delta`` is built for them), a per-tuple root's as ``Delta`` s.
    ``segments`` fold into ``net`` (a fresh dict when None), which is
    returned: folding a log piece by piece, in order, leaves the dict --
    its order included -- exactly as one fold of the whole log would.
    """
    root_subplan = plan.query_roots[query_id]
    node = root_subplan.root
    out_schema = node.out_schema
    projection = node.projections.get(query_id)
    if projection is not None:
        names = [alias for alias, _ in projection]
    else:
        names = list(node.core_schema.names())
    indexes = [out_schema.index_of(name) for name in names]

    mask = 1 << query_id
    if net is None:
        net = {}
    for segment in segments:
        if type(segment) is list:
            triples = map(_TRIPLE, segment)
        else:
            triples = zip(
                segment.rows(), segment.sign_list(), segment.bit_list()
            )
        for row, sign, bits in triples:
            if bits & mask:
                projected = tuple(row[i] for i in indexes)
                count = net.get(projected, 0) + sign
                if count:
                    net[projected] = count
                else:
                    del net[projected]
    return net
