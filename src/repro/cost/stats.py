"""Calibrated per-operator statistics.

The paper assumes knowledge of the data arrival rate and uses historical
statistics to estimate cost (section 2.1), calibrating cardinality
estimates from previous executions of the recurring queries (section
3.2).  We reproduce that with a *calibration run*: the plan is executed
once in batch mode (every pace 1) with statistics collection enabled, and
each operator's measured input/output cardinalities -- per query and for
the shared union -- are recorded into a :class:`NodeStats` attached to
the plan node.  Cloned/decomposed plan nodes share the same
:class:`NodeStats` by reference, so decomposition never needs
recalibration.
"""


class NodeStats:
    """Measured full-data statistics of one plan node.

    All cardinalities are measured over one complete batch execution of
    the trigger condition's data (no churn), so they characterize the
    *data*, not any particular pace.
    """

    __slots__ = (
        "kind",
        # source
        "scanned_total",
        "kept_total",
        "kept_per_q",
        # decorations (any node)
        "filter_sel_per_q",
        # join
        "in_left",
        "in_right",
        "in_left_per_q",
        "in_right_per_q",
        "join_out",
        "join_out_per_q",
        # aggregate
        "agg_in",
        "agg_in_per_q",
        "groups_union",
        "groups_per_q",
        "agg_out",
        "has_minmax",
    )

    def __init__(self, kind):
        self.kind = kind
        self.scanned_total = 0.0
        self.kept_total = 0.0
        self.kept_per_q = {}
        self.filter_sel_per_q = {}
        self.in_left = 0.0
        self.in_right = 0.0
        self.in_left_per_q = {}
        self.in_right_per_q = {}
        self.join_out = 0.0
        self.join_out_per_q = {}
        self.agg_in = 0.0
        self.agg_in_per_q = {}
        self.groups_union = 0.0
        self.groups_per_q = {}
        self.agg_out = 0.0
        self.has_minmax = False

    # -- derived quantities -------------------------------------------------

    def filter_selectivity(self, query_id):
        """Fraction of query ``query_id``'s tuples that survive the filter."""
        return self.filter_sel_per_q.get(query_id, 1.0)

    def join_selectivity(self, query_id=None):
        """Output / (|L| * |R|), per query or for the shared union."""
        if query_id is None:
            left, right, out = self.in_left, self.in_right, self.join_out
        else:
            left = self.in_left_per_q.get(query_id, 0.0)
            right = self.in_right_per_q.get(query_id, 0.0)
            out = self.join_out_per_q.get(query_id, 0.0)
        if left <= 0 or right <= 0:
            return 0.0
        return out / (left * right)

    def group_universe(self, query_ids=None):
        """Estimated distinct-group count for a query subset.

        ``None`` means the full shared union.  Subsets are estimated from
        per-query group counts with an independence union, capped by the
        measured union.
        """
        if query_ids is None:
            return max(self.groups_union, 1.0)
        universe = max(self.groups_union, 1.0)
        miss = 1.0
        for qid in query_ids:
            share = min(1.0, self.groups_per_q.get(qid, 0.0) / universe)
            miss *= 1.0 - share
        return max(1.0, universe * (1.0 - miss))

    def __repr__(self):
        return "NodeStats(%s)" % self.kind


class EdgeStat:
    """Estimated delta-record flow along one plan edge (or buffer).

    ``total`` counts all delta records (inserts plus deletes, since every
    record costs work downstream), ``deletes`` the deletions among them,
    and ``per_q`` the records valid for each query.  ``uniform`` marks
    base-table edges where every query sees every record.
    """

    __slots__ = ("total", "deletes", "per_q", "uniform")

    def __init__(self, total=0.0, deletes=0.0, per_q=None, uniform=False):
        self.total = float(total)
        self.deletes = float(deletes)
        self.per_q = dict(per_q) if per_q else {}
        self.uniform = uniform

    def query_card(self, query_id):
        if self.uniform:
            return self.total
        return self.per_q.get(query_id, 0.0)

    def scaled(self, factor, per=1):
        """``factor / per`` of this flow.  Each count is multiplied before
        it is divided, so whole counts stay whole:
        ``EdgeStat(n).scaled(k, n).total == k``."""
        return EdgeStat(
            self.total * factor / per,
            self.deletes * factor / per,
            {q: c * factor / per for q, c in self.per_q.items()},
            self.uniform,
        )

    def restricted(self, query_ids):
        """The flow of records valid for at least one query in the subset.

        Uses an independence union over per-query fractions of the total
        (exact for base tables and for disjoint/nested predicates it is a
        documented approximation; the paper tolerates inaccurate
        cardinality estimates, section 3.2).
        """
        query_ids = list(query_ids)
        if self.total <= 0 or not query_ids:
            return EdgeStat(0.0, 0.0, {})
        if self.uniform:
            return EdgeStat(
                self.total, self.deletes, {q: self.total for q in query_ids}
            )
        per_q = {q: min(self.query_card(q), self.total) for q in query_ids}
        union = union_estimate(self.total, per_q.values())
        delete_ratio = self.deletes / self.total
        return EdgeStat(union, union * delete_ratio, per_q)

    def add(self, other):
        """Accumulate another edge stat in place (summing flows)."""
        self.total += other.total
        self.deletes += other.deletes
        for q, c in other.per_q.items():
            self.per_q[q] = self.per_q.get(q, 0.0) + c
        return self

    def insert_count(self):
        return max(0.0, self.total - self.deletes)

    def net(self):
        """Net surviving records: inserts minus the deletions they cancel."""
        return max(0.0, self.total - 2.0 * self.deletes)

    def __repr__(self):
        return "EdgeStat(total=%.1f, deletes=%.1f, queries=%d)" % (
            self.total,
            self.deletes,
            len(self.per_q),
        )


def union_estimate(base_total, per_query_cards):
    """Independence-union of per-query subsets of a base population."""
    if base_total <= 0:
        return 0.0
    miss = 1.0
    best = 0.0
    total = 0.0
    for card in per_query_cards:
        card = min(max(card, 0.0), base_total)
        miss *= 1.0 - card / base_total
        best = max(best, card)
        total += card
    union = base_total * (1.0 - miss)
    return min(max(union, best), total if total > 0 else 0.0, base_total)


def perturb_stats(plan, seed=0, low=0.5, high=2.0):
    """Inject multiplicative noise into every node's calibrated statistics.

    Reproduces the paper's omitted inaccurate-cardinality-estimation test
    (section 3.2): each calibrated cardinality/selectivity is scaled by a
    random factor in ``[low, high]`` (selectivities clipped to [0, 1]).
    The optimizer then plans with wrong estimates while execution measures
    the truth.  Statistics objects are mutated in place; re-run
    calibration to restore accurate values.
    """
    import random

    rng = random.Random(seed)

    def factor():
        return rng.uniform(low, high)

    for subplan in plan.subplans:
        for node in subplan.root.walk():
            stats = node.stats
            if stats is None:
                continue
            stats.filter_sel_per_q = {
                qid: min(1.0, sel * factor())
                for qid, sel in stats.filter_sel_per_q.items()
            }
            stats.join_out *= factor()
            stats.join_out_per_q = {
                qid: card * factor() for qid, card in stats.join_out_per_q.items()
            }
            group_factor = factor()
            stats.groups_union = max(1.0, stats.groups_union * group_factor)
            stats.groups_per_q = {
                qid: min(max(1.0, groups * group_factor), stats.groups_union)
                for qid, groups in stats.groups_per_q.items()
            }
    return plan
