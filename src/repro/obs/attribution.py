"""Shared-work attribution: who pays for a shared subplan, exactly.

A shared subplan does its work once for all its beneficiary queries, so
per-tenant accounting has to *split* each subplan's measured WorkMeter
total across the queries it serves.  An even split ignores that a heavy
query shares an operator with a light one; this ledger splits
proportionally to each query's **calibrated solo cost** of that subplan
(:meth:`repro.cost.memo.PlanCostModel.solo_batch`'s per-subplan work) --
the same denominator the paper's relative constraints use -- so a bill
reflects what the query *would* have paid running alone.

Conservation is the invariant that makes bills trustworthy: the
attributed shares of one subplan must sum to exactly its measured work,
and the per-query totals of one window must sum to exactly the window's
measured total.  Measured work is an integer count of ``1/quantum`` work
units (:class:`~repro.engine.metrics.RunResult`'s ``*_quanta``), so the
split is an integer *largest-remainder* split: every beneficiary gets the
floor of its proportional share, and the quanta left over go one each to
the largest remainders, ties to the lower query id.  Shares, running
totals and the conservation check are plain integers -- equal or not, no
tolerance -- and are divided by the quantum only in the float views.

The ledger keeps its newest :data:`LEDGER_RING` windows, not its
history: a long-running service's bookkeeping plateaus.  The per-query
totals of the windows the ring has evicted are carried as an exact
prefix, so the full replay is the prefix plus the ring and still checks
every window ever recorded.
"""

from collections import deque
from math import lcm

#: windows a ledger keeps (:class:`AttributionLedger` and
#: :class:`~repro.obs.slack.SlackLedger`); older ones are folded into
#: running totals.  One: every reader reads the newest window only (the
#: service's ``service_slack`` log line, the fuzz service oracle,
#: :meth:`AttributionLedger.window_shares`), and the replay holds at
#: any depth
LEDGER_RING = 1


def split_work(work, weights):
    """Split an integer ``work`` over ``(qid, weight)`` pairs.

    Returns ``{qid: int}`` whose values sum to exactly ``work``: the
    largest-remainder split proportional to the weights, read exactly
    (``as_integer_ratio``).  Zero/negative total weight degrades to an
    even split (every beneficiary equally likely); an empty ``weights``
    list returns ``{}`` (nobody to bill -- the caller decides what that
    means).
    """
    weights = list(weights)
    if not weights:
        return {}
    ratios = [
        weight.as_integer_ratio() if weight > 0 else (0, 1)
        for _, weight in weights
    ]
    scale = lcm(*(denominator for _, denominator in ratios))
    exact = [numerator * (scale // denominator)
             for numerator, denominator in ratios]
    total = sum(exact)
    if not total:
        exact = [1] * len(exact)
        total = len(exact)
    shares = {}
    remainders = []
    for (qid, _), weight in zip(weights, exact):
        shares[qid], remainder = divmod(work * weight, total)
        remainders.append((-remainder, qid))
    remainders.sort()
    for _, qid in remainders[:work - sum(shares.values())]:
        shares[qid] += 1
    return shares


class ConservationError(AssertionError):
    """The attribution ledger leaked or double-counted work."""


class AttributionLedger:
    """Per-window ledger of exact shared-work attribution.

    One :meth:`record_window` call per trigger window; per-query and
    per-tenant running totals are integer quanta.  JSON-facing views
    (:meth:`window_shares`, :meth:`to_dict`) divide by ``quantum``.
    ``len(ledger)`` counts every recorded window; ``windows`` holds the
    last :data:`LEDGER_RING` of them.
    """

    def __init__(self, quantum=1):
        self.quantum = quantum
        #: ``(window, {qid: quanta})`` of the newest windows, in record order
        self.windows = deque(maxlen=LEDGER_RING)
        self.recorded = 0
        #: ``{qid: quanta}`` of the windows the ring has evicted
        self.evicted_totals = {}
        #: exact running totals
        self.query_totals = {}
        self.tenant_totals = {}
        #: the audit side of :meth:`check_running_totals`: every window's
        #: *measured* work, summed from the inputs rather than the shares
        self._measured_total = 0

    def record_window(self, window, subplan_work, beneficiaries, weight_of,
                      tenant_of=None):
        """Attribute one window's measured work; returns ``{qid: quanta}``.

        Parameters
        ----------
        subplan_work:
            ``{sid: measured quanta}`` (``RunResult.subplan_total_quanta``).
        beneficiaries:
            ``sid -> iterable of qids`` served by that subplan.
        weight_of:
            ``(sid, qid) -> solo-cost weight`` (calibrated per-subplan
            solo work; any non-positive weight counts as zero).
        tenant_of:
            optional ``qid -> tenant`` for per-tenant running totals.
        """
        query_shares = {}
        measured = 0
        for sid in sorted(subplan_work):
            work = subplan_work[sid]
            qids = sorted(beneficiaries(sid))
            if not qids:
                continue
            measured += work
            shares = split_work(work, [(qid, weight_of(sid, qid)) for qid in qids])
            for qid, share in shares.items():
                query_shares[qid] = query_shares.get(qid, 0) + share
        attributed = sum(query_shares.values())
        if attributed != measured:
            raise ConservationError(
                "window %s: attributed work %s != measured work %s"
                % (window, attributed, measured)
            )
        if len(self.windows) == self.windows.maxlen:
            for qid, share in self.windows[0][1].items():
                self.evicted_totals[qid] = (
                    self.evicted_totals.get(qid, 0) + share
                )
        self.windows.append((window, query_shares))
        self.recorded += 1
        self._measured_total += measured
        for qid, share in query_shares.items():
            self.query_totals[qid] = self.query_totals.get(qid, 0) + share
            if tenant_of is not None:
                tenant = tenant_of(qid)
                self.tenant_totals[tenant] = (
                    self.tenant_totals.get(tenant, 0) + share
                )
        return query_shares

    def check_conservation(self):
        """Re-verify every recorded window; returns failure strings.

        The running per-query totals must equal the evicted prefix plus
        the ring's per-window shares -- a mutated ledger cannot pass
        silently.
        """
        failures = []
        recomputed = dict(self.evicted_totals)
        for window, shares in self.windows:
            for qid, share in shares.items():
                recomputed[qid] = recomputed.get(qid, 0) + share
        for qid in set(recomputed) | set(self.query_totals):
            if recomputed.get(qid, 0) != self.query_totals.get(qid, 0):
                failures.append(
                    "query %s: running total %s != recomputed %s"
                    % (qid, self.query_totals.get(qid), recomputed.get(qid))
                )
        return failures

    def check_running_totals(self):
        """Conservation of the whole history at the cost of one window.

        :meth:`record_window` proved the newest window conserved and
        folded its measured work into the audit total; the running
        per-query totals must sum to exactly that, or something edited
        them since.  Unlike :meth:`check_conservation` this does not
        revisit earlier windows, so a long-running service can ask after
        every trigger.  Returns failure strings.
        """
        attributed = sum(self.query_totals.values())
        if attributed != self._measured_total:
            return [
                "running totals sum to %s, measured work to %s"
                % (attributed, self._measured_total)
            ]
        return []

    def window_shares(self, index=-1):
        """One window's shares in work units: ``(window, {qid: work})``."""
        window, shares = self.windows[index]
        return window, {qid: share / self.quantum for qid, share in shares.items()}

    def to_dict(self):
        """JSON view in work units; conservation re-checked exactly."""
        quantum = self.quantum
        return {
            "windows": self.recorded,
            "conserved": not self.check_conservation(),
            "query_totals": {
                str(qid): total / quantum
                for qid, total in sorted(self.query_totals.items())
            },
            "tenant_totals": {
                tenant: total / quantum
                for tenant, total in sorted(self.tenant_totals.items())
            },
        }

    def __len__(self):
        return self.recorded

    def __repr__(self):
        return "AttributionLedger(%d windows, %d queries)" % (
            self.recorded, len(self.query_totals)
        )
