"""Analytic cost simulation of a subplan under a pace.

This implements the *simulated incremental executions* of the paper's
memoization algorithm (section 3.2): to estimate the cost of a subplan
with pace ``k``, take the estimated total input data of the subplan and
simulate ``k`` incremental executions, each processing ``1/k`` of that
input, updating intermediate-state statistics (hash-table sizes, groups
materialized so far) after every execution.  The simulation yields the
subplan's *private total work*, *private final work* (the cost of the
final execution) and an *emission profile* describing its output stream,
which becomes the input of its parent subplans.

Emission profiles and buffer compaction
---------------------------------------
Inter-subplan buffers are compacted: retract/insert churn that cancels
within a consumer's unread window is never processed by the consumer
(matching the physical engine's consolidating reads).  A subplan whose
churn comes from an aggregate therefore looks *cheaper* to a lazy parent
than to an eager one -- the mechanism behind delaying subplans (paper
Figure 3c).  :class:`CollapsingProfile` models this by re-deriving the
aggregate's emissions at the consumer's own window granularity;
:class:`UniformProfile` models churn-free streams (base tables, pure
scan/join pipelines).

Operator models
---------------
* **source**: scans every compacted buffer record in its window, applies
  calibrated per-query filter selectivities, unions survivors under
  independence.
* **join**: symmetric hash join delta model:
  ``out = sel * (dL * |R| + (|L| + dL) * dR)``, with calibrated per-query
  and union selectivities; deletions propagate proportionally.
* **aggregate**: balls-into-bins group-touch model.  With group universe
  ``G``, the expected distinct groups touched by ``n`` records is
  ``G * (1 - (1 - 1/G)^n)``; groups touched for the first time emit one
  insert, groups already emitted emit a retract + insert pair.  This is
  what makes eager execution expensive (paper Figure 1).
* **MIN/MAX rescan**: a deletion that removes the current extremum of its
  group forces a rescan of the group's stored values (section 5.3's Q15
  effect); expected cost is one rescan over the net stored values per
  group receiving deletions, weighted by ``minmax_rescan_factor``.
"""

import itertools
import math

from ..errors import CostModelError
from ..relational import bitvec
from .stats import EdgeStat, union_estimate


class CostConfig:
    """Tunable constants of the cost model.

    ``execution_overhead`` mirrors the engine's fixed per-execution charge;
    ``minmax_rescan_factor`` is the expected fraction of delete-touched
    groups whose extremum is displaced (monotonically growing aggregates
    displace it nearly every time, which is why Q15 is non-incrementable).

    ``state_factor`` bills join and aggregate state per reader, as the
    engine's WorkMeter does: shared arrangements reduce resident state
    and physical maintenance, not charged work.
    """

    __slots__ = ("execution_overhead", "minmax_rescan_factor", "state_factor")

    def __init__(self, execution_overhead=1.0, minmax_rescan_factor=0.5,
                 state_factor=0.3):
        self.execution_overhead = float(execution_overhead)
        self.minmax_rescan_factor = float(minmax_rescan_factor)
        self.state_factor = float(state_factor)


DEFAULT_COST_CONFIG = CostConfig()


def expected_touched(universe, n):
    """Expected distinct bins hit by ``n`` balls thrown into ``universe`` bins."""
    if universe <= 0 or n <= 0:
        return 0.0
    if universe <= 1:
        return min(1.0, n)
    # universe * (1 - (1 - 1/universe)^n), computed stably
    return -universe * math.expm1(n * math.log1p(-1.0 / universe))


def emissions(universe, seen, n):
    """Aggregate emissions for ``n`` new records after ``seen`` prior ones.

    Returns ``(emitted, retracted)``: groups touched for the first time
    emit one insert; groups that already emitted a row emit a retract +
    insert pair.
    """
    if n <= 0:
        return 0.0, 0.0
    before = expected_touched(universe, seen)
    after = expected_touched(universe, seen + n)
    new_groups = max(0.0, after - before)
    touched_now = expected_touched(universe, n)
    touched_existing = max(0.0, min(touched_now - new_groups, before))
    return new_groups + 2.0 * touched_existing, touched_existing


def _window_grid(index, pace, granularity):
    """Producer executions ``[lo, hi)`` one consumer execution covers.

    Consumers cannot observe finer granularity than the producer's pace:
    window boundaries are quantized down to the producer's execution grid.
    A base table's grid is its delta log, one row per step, so its windows
    hold the whole rows :meth:`repro.engine.stream.TableStream.deltas_until`
    delivers.
    """
    if pace < 1:
        raise ValueError("consumer pace must be >= 1, got %r" % (pace,))
    if granularity < 1:
        raise ValueError(
            "producer granularity must be >= 1, got %r" % (granularity,)
        )
    return (index - 1) * granularity // pace, index * granularity // pace


def _window_bounds(index, pace, granularity):
    """Progress interval ``[t0, t1]`` of one consumer execution."""
    lo, hi = _window_grid(index, pace, granularity)
    return lo / granularity, hi / granularity


class UniformProfile:
    """A churn-free output stream: records spread uniformly over the window."""

    __slots__ = ("stat", "granularity")

    def __init__(self, stat, granularity):
        self.stat = stat
        self.granularity = granularity

    def window(self, index, pace):
        lo, hi = _window_grid(index, pace, self.granularity)
        return self.stat.scaled(hi - lo, self.granularity)

    def total_stat(self):
        return self.stat

    def __repr__(self):
        return "UniformProfile(%r, granularity=%r)" % (self.stat, self.granularity)


class LedgerProfile:
    """Output stream recorded per producer execution (no self-cancellation).

    Join-rooted subplans emit *non-uniformly* over the window -- a fact
    row only matches dimension rows that have already arrived, so output
    arrives superlinearly and the final windows carry well over a uniform
    share.  The ledger keeps the simulated per-execution output stats and
    serves consumer windows by summing the producer executions they
    cover (quantized to the producer's grid).
    """

    __slots__ = ("exec_stats", "granularity")

    def __init__(self, exec_stats, granularity):
        self.exec_stats = list(exec_stats)
        self.granularity = granularity

    def window(self, index, pace):
        g = self.granularity
        lo = (index - 1) * g // pace
        hi = index * g // pace
        acc = EdgeStat()
        for position in range(lo, hi):
            acc.add(self.exec_stats[position])
        return acc

    def total_stat(self):
        acc = EdgeStat()
        for stat in self.exec_stats:
            acc.add(stat)
        return acc

    def __repr__(self):
        return "LedgerProfile(%d executions)" % len(self.exec_stats)


class CollapsingProfile:
    """Output stream of a subplan whose churn stems from an aggregate.

    When consumed through a compacted buffer at pace ``k``, the stream
    looks like the anchoring aggregate had emitted at granularity ``k``:
    per window the aggregate's group-touch model is re-applied, so a lazy
    consumer sees (almost) only net rows while an eager one sees the full
    retract/insert churn.  The anchor's *cumulative input series* (one
    entry per producer execution) preserves the non-uniform arrival of
    join-produced input; ``scale_total`` / ``scale_per_q`` account for the
    operators between the aggregate and the subplan's output.
    """

    __slots__ = (
        "universe",
        "series",
        "per_q",
        "scale_total",
        "scale_per_q",
        "granularity",
    )

    def __init__(self, universe, series, per_q, scale_total, scale_per_q,
                 granularity):
        self.universe = max(universe, 1.0)
        #: cumulative anchor input after each producer execution; series[0]=0
        self.series = list(series)
        #: {qid: (universe_q, cumulative_series_q)}
        self.per_q = dict(per_q)
        self.scale_total = scale_total
        self.scale_per_q = dict(scale_per_q)
        self.granularity = granularity

    def window(self, index, pace):
        g = self.granularity
        lo = (index - 1) * g // pace
        hi = index * g // pace
        if hi <= lo:
            return EdgeStat()
        seen = self.series[lo]
        fresh = self.series[hi] - seen
        emitted, retracted = emissions(self.universe, seen, fresh)
        total = emitted * self.scale_total
        deletes = retracted * self.scale_total
        per_q = {}
        for qid, (universe_q, series_q) in self.per_q.items():
            seen_q = series_q[lo]
            fresh_q = series_q[hi] - seen_q
            emitted_q, _ = emissions(universe_q, seen_q, fresh_q)
            card = emitted_q * self.scale_per_q.get(qid, self.scale_total)
            if card > 0:
                per_q[qid] = min(card, total) if total > 0 else card
        return EdgeStat(total, deletes, per_q)

    def total_stat(self):
        """The whole-run flow at the producer's own granularity."""
        acc = EdgeStat()
        for index in range(1, self.granularity + 1):
            acc.add(self.window(index, self.granularity))
        return acc

    def __repr__(self):
        return "CollapsingProfile(U=%.0f, in=%.0f, granularity=%d)" % (
            self.universe,
            self.series[-1] if self.series else 0.0,
            self.granularity,
        )


class SubplanSimResult:
    """Result of simulating one subplan under one pace."""

    __slots__ = ("private_total", "private_final", "out_stat", "out_profile", "works")

    def __init__(self, private_total, private_final, out_stat, out_profile, works):
        self.private_total = private_total
        self.private_final = private_final
        self.out_stat = out_stat
        self.out_profile = out_profile
        self.works = works

    def __repr__(self):
        return "SubplanSimResult(total=%.1f, final=%.1f)" % (
            self.private_total,
            self.private_final,
        )


class SimProgram:
    """One operator tree flattened for :func:`simulate_subplan`.

    ``ops`` lists the operators child-first (the root last), one *slot*
    ``(kind, stats, filtered, projected, a, b)`` each: ``a`` / ``b`` are
    child slots (of a source, ``a`` is its ordinal among the source
    leaves).
    ``anchor`` is the slot of the aggregate an output
    :class:`CollapsingProfile` re-derives (the first in pre-order) or None.

    A program is content -- statistics objects and flags, no ``OpNode``
    or ``Subplan`` -- so the clones of a tree share one, each with its own
    leaf keys, and it keeps no plan alive.  ``specs`` caches one
    *specialisation* per query mask; that reads the statistics once, so
    programs belong to a :class:`~repro.cost.memo.MemoPool` or to one
    call, never to the subplan, whose statistics may change in place.
    """

    __slots__ = ("ops", "anchor", "specs")

    def __init__(self, root):
        self.ops = []
        self.specs = {}
        self.anchor = None
        self._flatten(root, itertools.count())

    def _flatten(self, node, leaf_ordinals):
        """Append ``node``'s subtree child-first; returns the node's slot."""
        a = b = None
        claims = self.anchor is None and node.kind == "aggregate"
        if claims:
            self.anchor = -1  # before its subtree is visited; the slot below
        if node.kind == "source":
            a = next(leaf_ordinals)
        else:
            a = self._flatten(node.children[0], leaf_ordinals)
            if node.kind == "join":
                b = self._flatten(node.children[1], leaf_ordinals)
        if claims:
            self.anchor = len(self.ops)
        self.ops.append((node.kind, node.stats, bool(node.filters),
                         bool(node.projections), a, b))
        return len(self.ops) - 1

    def specialise(self, mask):
        """``(queries, ops)`` for one query mask, cached in ``specs``.

        Everything independent of the execution index, read once: per
        slot ``(kind, a, b, filters, projected, x, y, z)`` -- ``filters``
        the ``(qid, selectivity)`` pairs of a filtering slot; for a join
        the union selectivity and the ``(qid, selectivity)`` pairs with
        output; for an aggregate the mask's group universe,
        ``{qid: universe}`` and the MIN/MAX flag.
        """
        queries = bitvec.to_ids(mask)
        ops = []
        for kind, stats, filtered, projected, a, b in self.ops:
            if stats is None and (filtered or kind != "source"):
                raise CostModelError(
                    "a %s node has no calibrated statistics; run "
                    "repro.engine.calibrate.calibrate_plan(plan) first" % kind
                )
            filters = x = y = z = None
            if filtered:
                filters = [
                    (qid, stats.filter_selectivity(qid)) for qid in queries
                ]
            if kind == "join":
                x = stats.join_selectivity()
                y = [(qid, stats.join_selectivity(qid)) for qid in queries]
                y = [pair for pair in y if pair[1] > 0]
            elif kind == "aggregate":
                x = stats.group_universe(queries)
                y = {
                    qid: max(1.0, stats.groups_per_q.get(qid, stats.groups_union))
                    for qid in queries
                }
                z = stats.has_minmax
            ops.append((kind, a, b, filters, projected, x, y, z))
        spec = self.specs[mask] = (queries, ops)
        return spec


def simulate_subplan(subplan, pace, input_stats, config=None, query_subset=None,
                     program=None):
    """Simulate ``pace`` incremental executions of ``subplan``.

    Parameters
    ----------
    input_stats:
        ``{source_ref_key: EmissionProfile}`` -- the output streams of the
        subplan's source buffers over the whole trigger window.
    query_subset:
        restrict the simulation to these query ids (used by the
        decomposition's local optimization, section 4.1); ``None`` means
        the subplan's full query set.
    program:
        the tree's ``(SimProgram, leaf keys)`` pair when the caller keeps
        one (``PlanCostModel.programs``); by default the tree is
        flattened and specialised for this call alone.

    Per execution every slot, child-first, turns its inputs' ``(total,
    deletes, per-query cards)`` into its own and charges its work.
    ``tests/cost_sim_spec.py`` is the same computation as a recursive
    interpreter; the two agree bit for bit because every floating-point
    operation keeps its operands and its place in the order.
    """
    config = config or DEFAULT_COST_CONFIG
    if pace < 1:
        # a zero/negative pace would silently simulate zero executions and
        # report a free subplan; fail loudly instead
        raise ValueError(
            "subplan %d pace must be >= 1, got %r" % (subplan.sid, pace)
        )
    tree, keys = program or (SimProgram(subplan.root), [
        node.ref.key() for node in subplan.root.source_nodes()
    ])
    mask = subplan.query_mask
    if query_subset is not None:
        mask &= bitvec.mask_of(query_subset)
    queries, ops = tree.specs.get(mask) or tree.specialise(mask)
    profiles = [input_stats.get(key) for key in keys]
    if None in profiles:
        raise KeyError("no input stats for source %r"
                       % (keys[profiles.index(None)],))
    state_factor = config.state_factor
    anchor = tree.anchor
    # what each slot emitted in the current execution ...
    totals, deleted, cards = ([None] * len(ops) for _ in range(3))
    # ... and keeps between executions -- join: net and per-query sizes
    # of its sides; aggregate: records seen, net values, seen per query
    state = [[0.0, 0.0, {}, {}] for _ in ops]
    works = []
    outputs = []
    out_total = out_deletes = raw_total = 0.0
    out_q = {}
    raw_q = {}
    series = [0.0]
    series_q = {}
    for index in range(1, pace + 1):
        work = entries = 0.0
        for slot, (kind, a, b, filters, projected, x, y, z) in enumerate(ops):
            if kind == "source":
                window = profiles[a].window(index, pace)
                total = window.total
                work += total  # scanning every (compacted) buffer record
                # keep what some query of the mask reads (EdgeStat.restricted)
                if total <= 0 or not queries:
                    total = deletes = 0.0
                    per_q = {}
                elif window.uniform:
                    deletes = window.deletes
                    per_q = dict.fromkeys(queries, total)
                else:
                    per_q = {
                        qid: min(window.per_q.get(qid, 0.0), total)
                        for qid in queries
                    }
                    union = union_estimate(total, per_q.values())
                    deletes = union * (window.deletes / total)
                    total = union
            elif kind == "join":
                slot_state = state[slot]
                left_net, right_net, left_q, right_q = slot_state
                l_total, r_total = totals[a], totals[b]
                l_q, r_q = cards[a], cards[b]
                work += l_total + r_total
                base = x * (l_total * right_net + (left_net + l_total) * r_total)
                per_q = {}
                for qid, sel_q in y:
                    l_new = l_q.get(qid, 0.0)
                    r_new = r_q.get(qid, 0.0)
                    out = sel_q * (
                        l_new * right_q.get(qid, 0.0)
                        + (left_q.get(qid, 0.0) + l_new) * r_new
                    )
                    if out > 0:
                        per_q[qid] = out
                total = max(base, max(per_q.values(), default=0.0))
                if per_q:
                    total = min(total, sum(per_q.values()))
                work += total
                # contribution-weighted delete fraction
                f_left = deleted[a] / l_total if l_total > 0 else 0.0
                f_right = deleted[b] / r_total if r_total > 0 else 0.0
                left_part = l_total * (right_net + r_total)
                right_part = left_net * r_total
                parts = left_part + right_part
                deletes = total * (
                    (left_part * f_left + right_part * f_right) / parts
                    if parts > 0 else 0.0
                )
                # install the net deltas into the simulated hash tables
                l_net = max(0.0, l_total - 2.0 * deleted[a])
                r_net = max(0.0, r_total - 2.0 * deleted[b])
                slot_state[0] = left_net = left_net + l_net
                slot_state[1] = right_net = right_net + r_net
                if l_total > 0:
                    keep = l_net / l_total
                    for qid, card in l_q.items():
                        left_q[qid] = left_q.get(qid, 0.0) + card * keep
                if r_total > 0:
                    keep = r_net / r_total
                    for qid, card in r_q.items():
                        right_q[qid] = right_q.get(qid, 0.0) + card * keep
                if state_factor:
                    entries += left_net
                    entries += right_net
            else:
                slot_state = state[slot]
                n_union, net_union, n_q, _ = slot_state
                c_total, c_deletes = totals[a], deleted[a]
                work += c_total
                total, deletes = emissions(x, n_union, c_total)
                per_q = {}
                for qid, fresh in cards[a].items():
                    if fresh > 0:
                        seen = n_q.get(qid, 0.0)
                        emit_q = emissions(y[qid], seen, fresh)[0]
                        per_q[qid] = min(emit_q, total) if total > 0 else emit_q
                        n_q[qid] = seen + fresh
                work += total
                c_net = max(0.0, c_total - 2.0 * c_deletes)
                if z and c_deletes > 0:
                    # MIN/MAX rescan: one per group that receives deletions,
                    # over the *net* values stored so far
                    net_values = max(net_union + c_net, 0.0)
                    # group_universe clamps x to >= 1.0; guarded anyway
                    values_per_group = net_values / x if x > 0 else 0.0
                    work += (config.minmax_rescan_factor
                             * expected_touched(x, c_deletes) * values_per_group)
                slot_state[0] = n_union + c_total
                slot_state[1] = net_union + c_net
                if state_factor:
                    # one state entry per (group, query) pair, like the engine
                    for qid, count in n_q.items():
                        entries += expected_touched(y[qid], count)
                if slot == anchor:
                    raw_total += total
                    for qid, card in per_q.items():
                        raw_q[qid] = raw_q.get(qid, 0.0) + card
            if filters is not None:
                work += total
                kept = {}
                for qid, selectivity in filters:
                    card = per_q.get(qid, 0.0)
                    if card > 0:
                        kept[qid] = card * selectivity
                union = union_estimate(total, kept.values())
                deletes = union * (deletes / total if total > 0 else 0.0)
                total, per_q = union, kept
            if projected:
                work += total
            totals[slot], deleted[slot], cards[slot] = total, deletes, per_q
        # the root is the last slot: its locals are the execution's output
        out_total += total
        out_deletes += deletes
        for qid, card in per_q.items():
            out_q[qid] = out_q.get(qid, 0.0) + card
        outputs.append((total, deletes, per_q))
        latency_work = work + config.execution_overhead
        # plus per-execution state-store maintenance (mirrors the engine)
        works.append(latency_work + state_factor * entries)
        if anchor is not None:
            series.append(state[anchor][0])
            for qid, count in state[anchor][2].items():
                series_q.setdefault(qid, [0.0] * index).append(count)

    if anchor is None or raw_total <= 0:
        out_profile = LedgerProfile(
            [EdgeStat(*output) for output in outputs], pace
        )
    else:
        universe, universes_q = ops[anchor][5:7]
        per_q = {
            qid: (universes_q[qid], series_q[qid])
            for qid in queries if state[anchor][2].get(qid, 0.0) > 0
        }
        scale_per_q = {
            qid: out_q.get(qid, 0.0) / raw_q[qid]
            for qid in per_q if raw_q.get(qid, 0.0) > 0
        }
        out_profile = CollapsingProfile(
            universe, series, per_q, out_total / raw_total, scale_per_q, pace
        )
    return SubplanSimResult(
        sum(works), latency_work, EdgeStat(out_total, out_deletes, out_q),
        out_profile, works,
    )
