"""Observability: span tracing and the optimizer decision log.

The optimizer pipeline (split -> greedy pace search -> decomposition ->
regenerate) and the incremental engine are instrumented with two
coordinated collectors:

* :mod:`repro.obs.trace` -- a span tracer whose export is Chrome
  trace-event JSON, so any run opens directly in Perfetto / chrome://tracing;
* :mod:`repro.obs.declog` -- a structured JSON-lines log of every
  optimizer decision (pace moves with incrementability scores, clustering
  merges with sharing benefits, decomposition adoptions, plan repairs),
  each record stamped with a stable ``run`` id so shard-merged logs sort
  deterministically by ``(run, seq)``.

Two further modules build on the collectors without joining the
session: :mod:`repro.obs.slack` (the per-query deadline-headroom
ledger) and :mod:`repro.obs.attribution` (exact shared-work attribution
with a rational-arithmetic conservation invariant).  The service
report carries the ledgers; the collectors export through the CLIs'
``--trace`` / ``--decision-log`` flags.  Counts need no collector of
their own: the engine's work is in ``RunResult``, the cost model's in
``PlanCostModel.evaluation_count`` / ``simulation_count`` and
``MemoPool.hits``.

Both hang off one process-wide :class:`ObservabilitySession`,
``OBS``.  Observability is **off by default**: every instrumented call
site is guarded by a single attribute check (``if OBS.enabled:``), so the
disabled path costs one dictionary-free boolean test and nothing is
allocated, formatted or recorded.  ``enable()`` switches the whole
session on; worker processes of the parallel harness ship their collected
events back to the driver, which merges them in deterministic submission
order (:func:`drain_worker_payload` / :func:`absorb_worker_payload`).

See ``docs/OBSERVABILITY.md`` for the span names and the decision-log
schema.
"""

import logging

from .declog import DecisionLog
from .trace import Tracer


class ObservabilitySession:
    """Process-wide holder of the tracer and the decision log.

    ``enabled`` is the single hot-path guard; when it is False both
    collectors are None and instrumented code must not touch them.
    """

    __slots__ = ("enabled", "tracer", "declog")

    def __init__(self):
        self.enabled = False
        self.tracer = None
        self.declog = None

    def __repr__(self):
        if not self.enabled:
            return "ObservabilitySession(disabled)"
        return "ObservabilitySession(%d events, %d decisions)" % (
            len(self.tracer.events),
            len(self.declog.records),
        )


#: the process-wide session; import this and guard with ``if OBS.enabled:``
OBS = ObservabilitySession()


def enable(process_name=None):
    """Switch observability on (idempotent); returns the session.

    Both collectors are created together -- the export flags decide what
    gets written out, not what gets recorded.
    """
    if not OBS.enabled:
        OBS.tracer = Tracer(process_name=process_name)
        # run ids are stamped by the harness per unit of work (set_run);
        # the default stays "main" everywhere -- a process-derived id
        # would leak worker pids into records and break bit-identity
        OBS.declog = DecisionLog()
        OBS.enabled = True
    return OBS


def disable():
    """Switch observability off and drop everything collected."""
    OBS.enabled = False
    OBS.tracer = None
    OBS.declog = None


def is_enabled():
    return OBS.enabled


def reset():
    """Clear collected data but keep the session enabled (per-benchmark scoping)."""
    if OBS.enabled:
        OBS.tracer.clear()
        OBS.declog.clear()


# -- worker <-> driver shipping (repro.workers) ----------------------------------

def drain_worker_payload():
    """Collected observability data as one JSON-safe dict, then cleared.

    Worker processes call this after each cell so the driver can merge
    per-cell payloads in submission order -- which keeps the merged event
    sequence deterministic even though cells finish in any order.
    Returns None when observability is disabled.
    """
    if not OBS.enabled:
        return None
    payload = {
        "events": OBS.tracer.drain_events(),
        "declog": OBS.declog.records[:],
    }
    OBS.declog.clear()
    return payload


def absorb_worker_payload(payload):
    """Merge one worker payload into the driver session (order-preserving)."""
    if payload is None or not OBS.enabled:
        return
    OBS.tracer.add_events(payload.get("events", ()))
    OBS.declog.extend(payload.get("declog", ()))


# -- logging ---------------------------------------------------------------------

def configure_logging(level="info", stream=None):
    """Configure the ``repro`` logger hierarchy (the CLI's ``--log-level``).

    Accepts a level name ("debug", "info", ...) or a numeric level.
    Installs a single stderr handler on the ``repro`` root logger; calling
    again replaces the level, not the handler.
    """
    logger = logging.getLogger("repro")
    if isinstance(level, str):
        level = getattr(logging, level.upper())
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler(stream)
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
        ))
        logger.addHandler(handler)
    return logger
