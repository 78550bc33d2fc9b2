"""The slack ledger: deadline headroom as a first-class measurement.

The paper's premise is that latency goals create *time slackness* the
executor can spend on work sharing -- yet SLO misses are usually the only
number reported, after the fact.  This ledger records, per trigger window
and per query, where the slack went:

``goal_work``
    the absolute final-work bound (relative goal x calibrated solo
    batch cost) the pace search promised to stay under;
``final_work``
    the measured final work (the paper's latency proxy) this window;
``headroom_work``
    ``goal_work - final_work``: positive means the deadline was met with
    room to spare, negative is an SLO miss by that much work;
``slack_available_work``
    ``goal_work - eager_final_work``: the slack the goal grants over the
    *eagerest* execution (estimated final work at uniform maximum pace).
    This is the budget the optimizer is allowed to spend on deferral;
``deferred_work``
    ``final_work - eager_final_work`` (clamped at zero): the
    pace-induced deferral actually incurred -- how much of the available
    slack the chosen (lazier) pace configuration consumed;
``slack_utilization``
    ``deferred_work / slack_available_work`` when slack is available:
    1.0 means the optimizer spent the whole budget.

Everything here is plain deterministic arithmetic on measured values --
the ledger adds no randomness and no wall-clock reads, so serial and
sharded service runs produce bit-identical slack reports.

Like the attribution ledger, it keeps the roll-ups of its newest
:data:`~repro.obs.attribution.LEDGER_RING` windows; ``len(ledger)``
counts every recorded window.
"""

from collections import deque

from .attribution import LEDGER_RING


class SlackLedger:
    """Per-window, per-query slack accounting."""

    def __init__(self):
        #: ``(window, summary_dict)`` of the newest windows, in record order
        self.windows = deque(maxlen=LEDGER_RING)
        self.recorded = 0

    def record_window(self, window, entries, seconds=None):
        """Record one trigger window; returns ``{qid: entry_dict}``.

        ``entries`` maps ``qid`` to a dict with ``goal_work``,
        ``final_work`` and optionally ``eager_final_work`` (the
        cost-model estimate of the query's final work at uniform maximum
        pace; omit when unknown).  ``seconds`` is an optional
        work->seconds converter (``StreamConfig.seconds``) used to also
        report headroom in time units.
        """
        recorded = {}
        for qid in sorted(entries):
            spec = entries[qid]
            goal = float(spec["goal_work"])
            final = float(spec["final_work"])
            eager = spec.get("eager_final_work")
            entry = {
                "goal_work": goal,
                "final_work": final,
                "headroom_work": goal - final,
                "missed": final > goal,
            }
            if eager is not None:
                eager = float(eager)
                available = goal - eager
                deferred = max(0.0, final - eager)
                entry["eager_final_work"] = eager
                entry["slack_available_work"] = available
                entry["deferred_work"] = deferred
                entry["slack_utilization"] = (
                    deferred / available if available > 0 else None
                )
            if seconds is not None:
                entry["goal_seconds"] = seconds(goal)
                entry["headroom_seconds"] = seconds(goal) - seconds(final)
            recorded[qid] = entry
        self.windows.append((window, self.summarize(recorded)))
        self.recorded += 1
        return recorded

    @staticmethod
    def summarize(recorded):
        """Window roll-up: worst headroom and misses."""
        if not recorded:
            return {"queries": 0, "min_headroom_work": None, "missed": 0}
        headrooms = [e["headroom_work"] for e in recorded.values()]
        return {
            "queries": len(recorded),
            "min_headroom_work": min(headrooms),
            "missed": sum(1 for e in recorded.values() if e["missed"]),
        }

    def __len__(self):
        return self.recorded

    def __repr__(self):
        return "SlackLedger(%d windows)" % self.recorded
