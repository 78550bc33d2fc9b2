"""The benchmark's own span recorder and layer-boundary wrappers.

Nothing here ships inside the program: the traced run patches the
*binding the caller uses* (``repro.core.optimizer.decompose_full_plan``,
``BufferReader.read_new``, operator ``advance`` methods, ...) with thin
timing wrappers, records spans in memory, and removes the patches when
the traced phase ends.  A span is ``[name, start, end, parent index,
trace id, arg]``; every repetition / window / registration is a *root*
span with its own trace id.  A layer's self time is its spans' duration
minus the part their direct children cover -- the benchmark is one
thread, so children never overlap and the self times of a root's tree
sum to the root's duration exactly.

A wrapped symbol that no longer exists is listed in
:attr:`Recorder.missing` and simply contributes no spans; end-to-end
metrics never touch this module.
"""

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, TRACE, ARG = range(6)

#: span name -> the per-layer metric its summed self time is reported as;
#: self time of any other span (roots, ``engine.execute`` bookkeeping) is
#: the uninstrumented remainder behind ``engine.other_share``
SELF_TIME_METRICS = {
    "logical.build": "logical.build_s",
    "mqo.merge": "mqo.merge_s",
    "calibrate.run": "calibrate.self_s",
    "cost.evaluate": "cost.evaluate_self_s",
    "cost.feedback": "cost.feedback_self_s",
    "core.pace_search": "core.pace_search_s",
    "core.decompose": "core.decompose_s",
    "core.merge_with_carry": "core.merge_with_carry_s",
    "core.incremental_search": "core.incremental_search_s",
    "engine.run": "engine.driver_self_s",
    "engine.stream_ingest": "engine.stream_ingest_s",
    "engine.buffer_read": "engine.buffer_read_s",
    "engine.buffer_compact": "engine.buffer_compact_s",
    "engine.arrangement_advance": "engine.arrangement_advance_s",
    "physical.source": "physical.source_self_s",
    "physical.join": "physical.join_self_s",
    "physical.aggregate": "physical.aggregate_self_s",
    "obs.slack_record": "obs.slack_record_s",
    "obs.attribution_record": "obs.attribution_record_s",
}

#: root kinds whose trees enter the per-layer accounting; the
#: ``collect_results=True`` root only feeds ``engine.result_view_s``
ACCOUNTED_ROOTS = ("plan", "window", "register", "deregister")


def _count_simulation(recorder, ctx, args, result):
    recorder.counts["cost.simulations"] += 1


def _search_iterations(recorder, ctx, args, result):
    recorder.counts["core.pace_search_iterations"] += result.iterations


def _merge_outcome(recorder, ctx, args, result):
    recorder.counts["core.subplans_reused"] += len(result.matched)
    recorder.counts["core.subplans_recalibrated"] += len(result.fresh_sids)


def _meter_before(args):
    meter = args[0].meter
    return (meter.input_units, meter.output_units, meter.state_units,
            meter.rescan_units)


def _meter_after(recorder, ctx, args, result):
    meter = args[0].meter
    counts = recorder.counts
    counts["physical.work_input_units"] += meter.input_units - ctx[0]
    counts["physical.work_output_units"] += meter.output_units - ctx[1]
    counts["physical.work_state_units"] += meter.state_units - ctx[2]
    counts["physical.work_rescan_units"] += meter.rescan_units - ctx[3]


def _subplan_sid(args):
    return args[0].subplan.sid


#: (module, dotted attribute, span name) -- the binding the caller uses.
#: A None span name wraps for the hook alone (a count, no span).
TARGETS = (
    ("repro.mqo.merge", "MQOOptimizer.build_shared_plan", "mqo.merge"),
    ("repro.core.optimizer", "calibrate_plan", "calibrate.run"),
    ("repro.core.incremental", "calibrate_plan", "calibrate.run"),
    ("repro.cost.memo", "PlanCostModel.evaluate", "cost.evaluate"),
    ("repro.cost.memo", "PlanCostModel.apply_feedback", "cost.feedback"),
    ("repro.cost.memo", "simulate_subplan", None),
    ("repro.core.greedy", "PaceSearch.find", "core.pace_search"),
    ("repro.core.decompose", "decrease_paces", "core.pace_search"),
    ("repro.core.incremental", "decrease_paces", "core.pace_search"),
    ("repro.core.optimizer", "decompose_full_plan", "core.decompose"),
    ("repro.service.core", "merge_with_carry", "core.merge_with_carry"),
    ("repro.service.core", "incremental_pace_search",
     "core.incremental_search"),
    ("repro.engine.executor", "PlanExecutor.run_schedule", "engine.run"),
    ("repro.engine.executor", "CompiledSubplan.run_execution",
     "engine.execute"),
    ("repro.engine.executor", "query_result_view", "engine.result_view"),
    ("repro.engine.stream", "TableStream.deltas_until", "engine.stream_ingest"),
    ("repro.engine.stream", "TableStream.batch_until", "engine.stream_ingest"),
    ("repro.engine.buffers", "BufferReader.read_new", "engine.buffer_read"),
    ("repro.engine.buffers", "BufferReader.read_new_segments",
     "engine.buffer_read"),
    ("repro.engine.buffers", "Buffer.compact", "engine.buffer_compact"),
    ("repro.engine.arrangements", "Arrangement.advance",
     "engine.arrangement_advance"),
    ("repro.physical.operators", "SourceExec.advance", "physical.source"),
    ("repro.physical.operators", "JoinExec.advance", "physical.join"),
    ("repro.physical.operators", "AggregateExec.advance", "physical.aggregate"),
    ("repro.physical.columnar", "ColumnarSourceExec.advance",
     "physical.source"),
    ("repro.physical.columnar", "ColumnarJoinExec.advance", "physical.join"),
    ("repro.physical.columnar", "ColumnarAggregateExec.advance",
     "physical.aggregate"),
    ("repro.obs.slack", "SlackLedger.record_window", "obs.slack_record"),
    ("repro.obs.attribution", "AttributionLedger.record_window",
     "obs.attribution_record"),
)

#: dotted attribute -> (before hook, after hook, span arg getter): the
#: counts taken at the same boundary as the span
HOOKS = {
    "simulate_subplan": (None, _count_simulation, None),
    "PaceSearch.find": (None, _search_iterations, None),
    "merge_with_carry": (None, _merge_outcome, None),
    "CompiledSubplan.run_execution": (_meter_before, _meter_after,
                                      _subplan_sid),
}


class Recorder:
    """In-memory spans plus the patches that produce them."""

    def __init__(self):
        self.spans = []
        self.roots = []  # (span index, kind, normalisation scale)
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._active = False
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, arg=None):
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, len(self.roots), arg]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span):
        span[END] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, before=None, after=None, arg_of=None):
        """``fn`` under a span called ``name`` (None: hooks only, no span)."""
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            ctx = before(args) if before is not None else None
            if name is None:
                result = fn(*args, **kwargs)
            else:
                span = self._open(name, arg_of(args) if arg_of else None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(span)
            if after is not None:
                after(self, ctx, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name):
        """A span around a call the benchmark makes itself, inside a root."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def root(self, kind):
        """One traced repetition; set its scale with :meth:`scale_last`."""
        self.roots.append([len(self.spans), kind, 1.0])
        self._active = True
        span = self._open("op." + kind)
        try:
            yield
        finally:
            self._close(span)
            self._active = False

    def scale_last(self, scale):
        self.roots[-1][2] = scale

    # -- patching ------------------------------------------------------------

    def install(self):
        for module_name, dotted, name in TARGETS:
            before, after, arg_of = HOOKS.get(dotted, (None, None, None))
            try:
                owner = importlib.import_module(module_name)
                *path, attribute = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attribute] if isinstance(
                    owner, type) else getattr(owner, attribute)
            except (ImportError, AttributeError, KeyError):
                self.missing.append("%s.%s" % (module_name, dotted))
                continue
            setattr(owner, attribute,
                    self.wrap(original, name, before, after, arg_of))
            self._patches.append((owner, attribute, original))

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- analysis ------------------------------------------------------------

    def summary(self):
        """Per-layer totals over the accounted roots, in normalised seconds.

        Returns ``(metrics, calls, wall, accounted)``: self time per
        metric name, span counts per span name, the accounted roots'
        total wall, and the part of it the metrics cover.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        kind_of = {i + 1: root[1] for i, root in enumerate(self.roots)}
        scale_of = {i + 1: root[2] for i, root in enumerate(self.roots)}
        metrics = Counter()
        calls = Counter()
        wall = accounted = 0.0
        for index, span in enumerate(spans):
            kind = kind_of.get(span[TRACE])
            scale = scale_of.get(span[TRACE], 1.0)
            duration = (span[END] - span[START]) * scale
            if kind == "window_results":
                if span[NAME] == "engine.result_view":
                    metrics["engine.result_view_s"] += duration
                continue
            if kind not in ACCOUNTED_ROOTS:
                continue
            own = duration - covered[index] * scale
            calls[span[NAME]] += 1
            if span[PARENT] < 0:
                wall += duration
            if span[NAME] == "engine.run":
                metrics["engine.run_s"] += duration
            metric = SELF_TIME_METRICS.get(span[NAME])
            if metric is not None:
                metrics[metric] += own
                accounted += own
        final, nonfinal = self._execution_split(scale_of)
        metrics["engine.final_exec_s"] = final
        metrics["engine.nonfinal_exec_s"] = nonfinal
        return metrics, calls, wall, accounted

    def _execution_split(self, scale_of):
        """Wall of each subplan's last execution per run vs the earlier ones."""
        last = {}  # (engine.run span index, sid) -> span index
        executions = []
        for index, span in enumerate(self.spans):
            if span[NAME] == "engine.execute":
                executions.append(index)
                last[(span[PARENT], span[ARG])] = index
        finals = set(last.values())
        final = nonfinal = 0.0
        for index in executions:
            span = self.spans[index]
            duration = (span[END] - span[START]) * scale_of.get(span[TRACE], 1.0)
            if index in finals:
                final += duration
            else:
                nonfinal += duration
        return final, nonfinal

    def chrome_events(self, pid):
        """Chrome ``trace_event`` complete events, one per span."""
        if not self.spans:
            return []
        origin = self.spans[0][START]
        events = []
        for index, span in enumerate(self.spans):
            args = {"trace": span[TRACE], "parent": span[PARENT], "id": index}
            if span[ARG] is not None:
                args["arg"] = span[ARG]
            events.append({
                "name": span[NAME], "ph": "X", "pid": pid, "tid": 1,
                "ts": round((span[START] - origin) * 1e6, 1),
                "dur": round((span[END] - span[START]) * 1e6, 1),
                "args": args,
            })
        return events


class NullRecorder:
    """The untraced stand-in: roots and spans cost one no-op each."""

    missing = ()

    @contextmanager
    def root(self, kind):
        yield

    @contextmanager
    def span(self, name):
        yield

    def scale_last(self, scale):
        pass


def write_chrome_trace(path, events):
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        handle.write("\n")
