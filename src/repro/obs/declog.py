"""The optimizer decision log: structured JSON-lines records.

Every consequential choice the optimizer pipeline makes is recorded as
one dict with an ``event`` kind, a monotonically increasing ``seq``, a
stable ``run`` id, and event-specific fields:

* ``pace_move`` / ``pace_reject`` -- the greedy ascending search's
  accepted move (with its incrementability score and extra total work)
  and the evaluated-but-outscored or structurally filtered candidates;
* ``pace_search_done`` -- termination, with iteration count and whether
  the constraints were met;
* ``pace_decrease`` -- one step of the descending correction;
* ``cluster_merge`` -- one bottom-up clustering merge with its sharing
  benefit (Eq. 4) and the merged partition's selected pace;
* ``split_decision`` -- the final partitioning one
  :class:`~repro.core.split.LocalSplitOptimizer` chose;
* ``decompose_adopt`` / ``decompose_reject`` -- whether the full-plan
  walk adopted a candidate decomposition, with estimated work before and
  after;
* ``repair_split`` / ``repair_merge`` -- plan-regeneration surgery:
  parents split along partition boundaries and single-consumer chains
  merged back;
* ``service_admission`` / ``service_deregister`` -- the long-running
  service's registration churn: every admission decision (admitted /
  rejected, with its reason and, for a goal turned away as
  unsatisfiable, whether the query meets it alone) and every removal;
* ``service_plan_update`` -- one incremental re-merge, with the subplan
  count and the sids reused versus recalibrated;
* ``service_reoptimize`` -- one churn-triggered re-search, with its
  scope (``incremental`` vs ``full``), the subplans reused versus
  recalibrated, memo-pool hits and search iterations;
* ``service_trigger`` -- one trigger-window execution with its total
  work and live query count;
* ``service_slack`` -- one window's slack-ledger roll-up: minimum
  deadline headroom across live queries and how many missed.

Ordering across processes
-------------------------

``seq`` alone is only unique within one log instance.  Shard-merged
logs from ``--jobs N`` runs are re-sequenced in absorption order, which
the harness keeps identical to the serial replay -- but a *consumer*
joining logs from several exports still needs a global order.  For that
every record also carries a ``run`` id: the harness stamps the active
logical unit of work (``shard-0``, ``cell-3``, ...) via :meth:`set_run`
from the *same* code path in serial and parallel runs, so the composite
key ``(run, seq)`` sorts any merged log deterministically -- and
bit-identically at every job count.

The log is plain data: consumers filter ``records`` in memory or read
the exported ``.jsonl`` one object per line.
"""

import json

#: the run id of records logged outside any harness-stamped unit of work
DEFAULT_RUN = "main"


class DecisionLog:
    """An append-only list of decision records."""

    def __init__(self, run_id=None):
        self.records = []
        self._seq = 0
        self.run_id = run_id or DEFAULT_RUN

    def set_run(self, run_id):
        """Stamp subsequent records with ``run_id``; returns the previous id.

        The harness brackets each logical unit of work (a shard replay, an
        experiment cell) with ``previous = log.set_run(...)`` /
        ``log.set_run(previous)`` so records sort globally by
        ``(run, seq)`` regardless of which process produced them.
        """
        previous = self.run_id
        self.run_id = run_id or DEFAULT_RUN
        return previous

    def log(self, event, **fields):
        """Record one decision; returns the record dict."""
        self._seq += 1
        record = {"seq": self._seq, "run": self.run_id, "event": event}
        record.update(fields)
        self.records.append(record)
        return record

    def extend(self, records):
        """Append records from a worker process, re-sequencing them.

        The worker's ``run`` stamps are preserved verbatim -- they name
        the unit of work, not the process -- so the merged log carries
        the same ``(run, event, fields)`` stream as a serial run, with
        ``seq`` renumbered into this log's single monotonic sequence.
        """
        for record in records:
            self._seq += 1
            merged = dict(record, seq=self._seq)
            merged.setdefault("run", DEFAULT_RUN)
            self.records.append(merged)

    def of_event(self, event):
        """All records of one event kind."""
        return [r for r in self.records if r["event"] == event]

    def clear(self):
        self.records = []
        self._seq = 0

    def export(self, path):
        """Write the log as JSON lines (one record per line)."""
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record, default=_jsonify) + "\n")
        return path

    def __len__(self):
        return len(self.records)

    def __repr__(self):
        return "DecisionLog(%d records)" % len(self.records)


def _jsonify(value):
    """Fallback serializer: tuples-of-qids etc. degrade to strings."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return str(value)
