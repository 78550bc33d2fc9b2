"""The executable spec of :func:`repro.cost.model.simulate_subplan`.

This is the closure-tree interpreter the cost model ran until the flat
simulation programs replaced it, moved here verbatim (only the imports,
the inlined ``require_stats`` and the result record differ, and join
state is billed per reader only, like the model's): one
recursive ``eval_node`` per operator per execution, an ``EdgeStat`` per
edge, every selectivity looked up where it is used.  It is slow and
obviously right; ``tests/test_cost_sim_program.py`` holds the production
loop to it with ``==`` on every field of every simulation.  It shares
only the arithmetic primitives and the profile classes with the code
under test.
"""

from collections import namedtuple

from repro.cost.model import (
    CollapsingProfile,
    LedgerProfile,
    emissions,
    expected_touched,
)
from repro.cost.stats import EdgeStat, union_estimate
from repro.errors import CostModelError

SpecSimResult = namedtuple(
    "SpecSimResult",
    "private_total private_final out_stat out_profile works",
)


def require_stats(node):
    """Fetch ``node.stats`` or fail with a calibration hint."""
    if node.stats is None:
        raise CostModelError(
            "node %r has no calibrated statistics; run "
            "repro.engine.calibrate.calibrate_plan(plan) first" % (node,)
        )
    return node.stats


class _JoinSimState:
    __slots__ = ("left_net", "right_net", "left_q", "right_q")

    def __init__(self):
        self.left_net = 0.0
        self.right_net = 0.0
        self.left_q = {}
        self.right_q = {}


class _AggSimState:
    __slots__ = ("n_union", "n_q", "net_union")

    def __init__(self):
        self.n_union = 0.0
        self.n_q = {}
        self.net_union = 0.0


def simulate_subplan_spec(subplan, pace, input_stats, config, query_subset=None):
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
    """
    if pace < 1:
        # a zero/negative pace would silently simulate zero executions and
        # report a free subplan; fail loudly instead
        raise ValueError(
            "subplan %d pace must be >= 1, got %r" % (subplan.sid, pace)
        )
    mask_queries = set(subplan.query_ids())
    if query_subset is not None:
        mask_queries &= set(query_subset)
    mask_queries = sorted(mask_queries)

    anchor = next(
        (node for node in subplan.root.walk() if node.kind == "aggregate"), None
    )
    anchor_raw = EdgeStat()

    node_states = {}
    works = []
    out_stat = EdgeStat()
    work_box = [0.0]
    exec_box = [0]

    def charge(units):
        work_box[0] += units

    def decorate(node, stat):
        if node.filters:
            stats = require_stats(node)
            charge(stat.total)
            per_q = {}
            for qid in mask_queries:
                card = stat.query_card(qid)
                if card <= 0:
                    continue
                per_q[qid] = card * stats.filter_selectivity(qid)
            total = union_estimate(stat.total, per_q.values())
            delete_ratio = stat.deletes / stat.total if stat.total > 0 else 0.0
            stat = EdgeStat(total, total * delete_ratio, per_q)
        if node.projections:
            charge(stat.total)
        return stat

    def eval_node(node, pace_count):
        if node.kind == "source":
            profile = input_stats.get(node.ref.key())
            if profile is None:
                raise KeyError("no input stats for source %r" % (node.ref,))
            window = profile.window(exec_box[0], pace_count)
            charge(window.total)  # scanning every (compacted) buffer record
            kept = window.restricted(mask_queries)
            return decorate(node, kept)
        if node.kind == "join":
            left = eval_node(node.children[0], pace_count)
            right = eval_node(node.children[1], pace_count)
            return decorate(node, _join_model(node, left, right))
        child = eval_node(node.children[0], pace_count)
        raw = _aggregate_model(node, child)
        if node is anchor:
            anchor_raw.add(raw)
        return decorate(node, raw)

    def _join_model(node, left, right):
        stats = require_stats(node)
        state = node_states.get(node.uid)
        if state is None:
            state = node_states[node.uid] = _JoinSimState()
        charge(left.total + right.total)
        sel_union = stats.join_selectivity()
        base = sel_union * (
            left.total * state.right_net
            + (state.left_net + left.total) * right.total
        )
        per_q = {}
        for qid in mask_queries:
            sel_q = stats.join_selectivity(qid)
            if sel_q <= 0:
                continue
            l_new = left.query_card(qid)
            r_new = right.query_card(qid)
            l_old = state.left_q.get(qid, 0.0)
            r_old = state.right_q.get(qid, 0.0)
            out_q = sel_q * (l_new * r_old + (l_old + l_new) * r_new)
            if out_q > 0:
                per_q[qid] = out_q
        total = max(base, max(per_q.values(), default=0.0))
        total = min(total, sum(per_q.values())) if per_q else total
        # contribution-weighted delete fraction
        f_left = left.deletes / left.total if left.total > 0 else 0.0
        f_right = right.deletes / right.total if right.total > 0 else 0.0
        left_part = left.total * (state.right_net + right.total)
        right_part = state.left_net * right.total
        parts = left_part + right_part
        if parts > 0:
            delete_fraction = (left_part * f_left + right_part * f_right) / parts
        else:
            delete_fraction = 0.0
        charge(total)
        # install the new deltas into the simulated hash tables (net sizes)
        left_keep = left.net() / left.total if left.total > 0 else 0.0
        right_keep = right.net() / right.total if right.total > 0 else 0.0
        state.left_net += left.net()
        state.right_net += right.net()
        for qid in mask_queries:
            state.left_q[qid] = (
                state.left_q.get(qid, 0.0) + left.query_card(qid) * left_keep
            )
            state.right_q[qid] = (
                state.right_q.get(qid, 0.0) + right.query_card(qid) * right_keep
            )
        return EdgeStat(total, total * delete_fraction, per_q)

    def _aggregate_model(node, child):
        stats = require_stats(node)
        state = node_states.get(node.uid)
        if state is None:
            state = node_states[node.uid] = _AggSimState()
        charge(child.total)
        universe = stats.group_universe(mask_queries)
        n = child.total
        emit_union, retract_union = emissions(universe, state.n_union, n)
        per_q = {}
        for qid in mask_queries:
            n_q = child.query_card(qid)
            if n_q <= 0:
                continue
            universe_q = max(1.0, stats.groups_per_q.get(qid, stats.groups_union))
            agg_universes[(node.uid, qid)] = universe_q
            emit_q, _ = emissions(universe_q, state.n_q.get(qid, 0.0), n_q)
            per_q[qid] = min(emit_q, emit_union) if emit_union > 0 else emit_q
            state.n_q[qid] = state.n_q.get(qid, 0.0) + n_q
        charge(emit_union)
        if stats.has_minmax and child.deletes > 0:
            # A deletion that removes the current extremum of its group
            # forces a rescan of the group's stored value multiset.  With
            # monotone update streams the extremum-holding group is hit in
            # nearly every execution, so we charge one rescan per group
            # that receives deletions, over the *net* values stored so far
            # (retract/insert pairs cancel in the multiset).
            groups_hit = expected_touched(universe, child.deletes)
            net_values = max(state.net_union + child.net(), 0.0)
            # group_universe clamps to >= 1.0, but guard explicitly so a
            # future stats change cannot reintroduce a division by zero
            values_per_group = net_values / universe if universe > 0 else 0.0
            charge(config.minmax_rescan_factor * groups_hit * values_per_group)
        state.n_union += n
        state.net_union += child.net()
        return EdgeStat(emit_union, retract_union, per_q)

    agg_universes = {}

    def _state_charge():
        """Per-execution state-store maintenance (mirrors the engine)."""
        if not config.state_factor:
            return 0.0
        entries = 0.0
        for uid, state in node_states.items():
            if isinstance(state, _JoinSimState):
                entries += state.left_net
                entries += state.right_net
            else:
                # one state entry per (group, query) pair, like the engine
                for qid, n_q in state.n_q.items():
                    universe_q = agg_universes.get((uid, qid), 1.0)
                    entries += expected_touched(universe_q, n_q)
        return config.state_factor * entries

    exec_outputs = []
    anchor_series = [0.0]
    anchor_series_q = {}
    latency_work = 0.0
    for index in range(1, pace + 1):
        exec_box[0] = index
        work_box[0] = 0.0
        execution_out = eval_node(subplan.root, pace)
        out_stat.add(execution_out)
        exec_outputs.append(execution_out)
        latency_work = work_box[0] + config.execution_overhead
        works.append(latency_work + _state_charge())
        if anchor is not None and anchor.uid in node_states:
            anchor_state = node_states[anchor.uid]
            anchor_series.append(anchor_state.n_union)
            for qid, n_q in anchor_state.n_q.items():
                anchor_series_q.setdefault(qid, [0.0] * index)
                anchor_series_q[qid].append(n_q)
            for qid, series in anchor_series_q.items():
                while len(series) < index + 1:
                    series.append(series[-1])

    out_profile = _build_profile(
        subplan, pace, anchor, anchor_raw, node_states, out_stat, mask_queries,
        exec_outputs, anchor_series, anchor_series_q,
    )
    return SpecSimResult(
        sum(works), latency_work, out_stat, out_profile, works
    )


def _build_profile(subplan, pace, anchor, anchor_raw, node_states, out_stat,
                   mask_queries, exec_outputs, anchor_series, anchor_series_q):
    """Derive the output emission profile of a simulated subplan."""
    if anchor is None or anchor.uid not in node_states or anchor_raw.total <= 0:
        return LedgerProfile(exec_outputs, pace)
    state = node_states[anchor.uid]
    stats = anchor.stats
    universe = stats.group_universe(mask_queries)
    per_q = {}
    scale_per_q = {}
    scale_total = out_stat.total / anchor_raw.total
    for qid in mask_queries:
        in_q = state.n_q.get(qid, 0.0)
        if in_q <= 0:
            continue
        universe_q = max(1.0, stats.groups_per_q.get(qid, stats.groups_union))
        series_q = anchor_series_q.get(qid, [0.0] * (pace + 1))
        per_q[qid] = (universe_q, series_q)
        raw_q = anchor_raw.per_q.get(qid, 0.0)
        if raw_q > 0:
            scale_per_q[qid] = out_stat.per_q.get(qid, 0.0) / raw_q
    return CollapsingProfile(
        universe, anchor_series, per_q, scale_total, scale_per_q, pace
    )
