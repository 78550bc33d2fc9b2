"""Plan-level cost evaluation with memoization (paper Algorithm 1).

Estimating the total work and per-query final work of a pace
configuration simulates every subplan bottom-up: each subplan's simulated
output cardinality feeds its parents.  The estimated results of one
subplan depend only on its *private pace configuration* -- the paces of
the subplan and its descendants -- so each subplan keeps a memo table
keyed by that private configuration (section 3.2).  The greedy pace
search evaluates thousands of neighbouring configurations that differ in
a single pace; with memoization only the changed subplan and its
ancestors are ever re-simulated.

The tables live in a :class:`MemoPool` and are addressed by the *content*
of the subplan's cone (the subplan and its descendants), not by subplan
id: decomposition derives dozens of candidate plans that are clones of
their parent differing in one subplan and its ancestors, and every model
built over one pool reads and writes the same rows for the cones the
surgery left untouched.  A model nobody shares with is a pool with one
user.

``use_memo=False`` reproduces the baseline that re-simulates every
configuration from scratch (the "iShare (w/o memo)" of Figure 15, which
DNFs at large max paces).
"""

import time

from ..errors import CostModelError
from ..mqo.nodes import SubplanRef, TableRef
from .model import (
    DEFAULT_COST_CONFIG,
    SimProgram,
    UniformProfile,
    simulate_subplan,
)
from .stats import EdgeStat

class CostEvaluation:
    """Estimated cost of one pace configuration.

    ``pace_config`` is a copy of the configuration costed and ``epoch``
    the token of the model that costed it: together they let
    :meth:`PlanCostModel.evaluate` cost a neighbour as a delta of it.
    """

    __slots__ = (
        "total_work",
        "query_final_work",
        "subplan_total",
        "subplan_final",
        "subplan_inputs",
        "subplan_outputs",
        "pace_config",
        "epoch",
    )

    def __init__(self, pace_config=None, epoch=None):
        self.total_work = 0.0
        self.query_final_work = {}
        self.subplan_total = {}
        self.subplan_final = {}
        self.subplan_inputs = {}
        self.subplan_outputs = {}
        self.pace_config = dict(pace_config or ())
        self.epoch = epoch

    def __repr__(self):
        return "CostEvaluation(total=%.1f)" % self.total_work


class OptimizationTimeout(CostModelError):
    """Raised when an optimizer exceeds its time budget (the DNF case)."""


class MemoPool:
    """Algorithm-1 memo tables addressed by cone content.

    One table per *cone signature* (see
    :meth:`PlanCostModel.cone_signature`), shared by every
    :class:`PlanCostModel` built over this pool.  A table maps a private
    pace configuration -- the cone's paces in cone order -- to the
    simulated ``(private_total, private_final, out_profile)``.

    ``simulations`` counts the :func:`simulate_subplan` calls of every
    attached model; ``hits`` the lookups served by a table the reading
    model found already in the pool, i.e. rows it owes to another model.

    Beside the tables the pool keeps what else is a function of content
    alone and :meth:`retain` prunes it with the cones: ``solo``, the
    pace-1 single-query rows of :meth:`PlanCostModel.solo_batch`
    (``{(cone signature, qid): (private_total, out_profile)}``), and
    ``programs``, one :class:`~repro.cost.model.SimProgram` per operator
    tree (keyed by the tree's part of a cone signature), so the clones of
    a tree share its program and its specialisations.

    Content is what the signature can see: one pool serves plans over one
    catalog, and a ``NodeStats`` object stands for its values, so
    statistics must not be mutated in place while a pool holds rows
    computed from them (recalibration attaches fresh objects).
    """

    __slots__ = ("_tables", "_partition_costs", "solo", "programs",
                 "simulations", "hits", "generation")

    def __init__(self):
        self._tables = {}
        self._partition_costs = {}
        self.solo = {}
        self.programs = {}
        self.simulations = 0
        self.hits = 0
        #: how many times :meth:`retain` pruned the pool
        self.generation = 0

    def attach(self, signature):
        """``(table, inherited)`` for one cone; creates the table if new."""
        table = self._tables.get(signature)
        if table is not None:
            return table, True
        table = self._tables[signature] = {}
        return table, False

    def retain(self, signatures):
        """Drop every table whose cone is not in ``signatures``.

        Rows are only worth their memory while some live plan still has
        the cone; decomposition prunes to the plan it returns once it
        ends, and the service to the live plan after every churn event,
        so the pool the caller keeps is bounded by that plan.
        """
        keep = set(signatures)
        self.generation += 1
        self._tables = {
            signature: table for signature, table in self._tables.items()
            if signature in keep
        }
        self._partition_costs = {
            key: costs for key, costs in self._partition_costs.items()
            if key[0] in keep
        }
        self.solo = {
            key: row for key, row in self.solo.items() if key[0] in keep
        }
        trees = {tree for _, cone in keep for _, tree, _ in cone}
        self.programs = {
            tree: program for tree, program in self.programs.items()
            if tree in trees
        }
        # a kept program starts over: a decomposition step specialises it
        # for every partition it tries, masks the next step will not ask for
        for program in self.programs.values():
            program.specs.clear()

    def partition_costs(self, signature, child_profiles):
        """The local-split cost table of one subplan under fixed inputs.

        ``{(partition, pace): (W_PT, W_F)}`` for
        :class:`~repro.core.split.LocalSplitOptimizer`: a partition's
        cost depends on the subplan's tree (``signature``) and on the
        profiles it reads, so a subplan re-tried after an unrelated
        adoption -- same rows, hence the same profile objects -- finds
        its earlier simulations.
        """
        return self._partition_costs.setdefault((signature, child_profiles), {})

    def signatures(self):
        """The cones this pool currently holds a table for."""
        return set(self._tables)


class PlanCostModel:
    """Cost model over one :class:`~repro.mqo.nodes.SharedQueryPlan`.

    Nodes must carry calibrated statistics
    (:func:`repro.engine.calibrate.calibrate_plan`).

    Parameters
    ----------
    use_memo:
        enable the per-subplan memo tables of Algorithm 1; a model built
        with ``use_memo=False`` never reads or writes a pool row.
    time_budget:
        optional wall-clock seconds; :class:`OptimizationTimeout` is
        raised from :meth:`evaluate` once exceeded (used to reproduce the
        30-minute DNF cutoff of Figure 15 at benchmark scale).
    memo_pool:
        the :class:`MemoPool` holding this model's memo tables; models
        over plans derived from one another pass the same pool
        (:meth:`sibling`, :func:`repro.core.incremental.merge_with_carry`),
        by default the model gets a pool of its own.

    The constructor walks every operator tree once and keeps what
    :meth:`evaluate` and the pace searches need per subplan --
    ``query_ids``, ``children``, ``parents``, ``programs`` (sid-keyed
    dicts; a program is the ``(SimProgram, leaf keys)`` pair
    :func:`~repro.cost.model.simulate_subplan` takes) and the source
    inputs -- so nothing re-walks the plan per evaluation.  The
    plan must not be mutated while a model over it is in use.
    """

    def __init__(self, plan, config=None, use_memo=True, time_budget=None,
                 memo_pool=None):
        self._bind(plan, config or DEFAULT_COST_CONFIG, use_memo,
                   memo_pool if memo_pool is not None else MemoPool())
        self.time_budget = time_budget
        self._deadline = (time.monotonic() + time_budget) if time_budget else None
        self._index_plan()

    def _bind(self, plan, config, use_memo, memo_pool):
        self.plan = plan
        self.config = config
        self.use_memo = use_memo
        self.memo_pool = memo_pool
        self._order = plan.topological_order()
        self._table_stats = {}
        self._solo_cache = {}
        self._epoch = object()  # tells this model's evaluations from others'
        self.simulation_count = 0
        self.evaluation_count = 0

    def sibling(self, plan):
        """A model over another plan of the same optimizer call.

        Same cost config, same memo pool, same ``use_memo`` (the siblings
        of a model that keeps no rows keep none), same deadline: the
        candidate plans of a decomposition are costed against the rows and
        the time budget of the search that proposed them.

        ``plan`` is derived from this model's plan
        (:meth:`~repro.mqo.nodes.SharedQueryPlan.derive`): every subplan
        object the two plans share keeps this model's index entry -- its
        tree, program and sources -- and every cone made of shared
        subplans only keeps its cone, signature and memo table, so only
        the trees the surgery rewrote are walked and only the cones it
        touched are signed.  The index equals the one a model built from
        scratch over ``plan`` and this pool would hold.
        """
        model = PlanCostModel.__new__(PlanCostModel)
        model._bind(plan, self.config, self.use_memo, self.memo_pool)
        model.time_budget = self.time_budget
        model._deadline = self._deadline
        model._index_plan(self)
        return model

    def _index_plan(self, parent=None):
        """Per-subplan topology and cone signatures, from one tree walk each.

        A subplan's *cone* is the subplan followed by its descendants in
        depth-first order (children in source-leaf order, each subplan
        once).  Its signature lists, in that order, every member's query
        mask and operator tree -- kind, ``NodeStats`` identity (clones
        share statistics by reference), filter and projection query ids,
        and per source leaf the table name or the *position* of the child
        in the cone list.  Positions, not sids, make the signature equal
        across clones and keep a child read twice apart from two
        look-alike children.

        With a ``parent`` model (:meth:`sibling`), a subplan that is the
        parent plan's own object takes the parent's walk of its tree, and
        one whose children all took the parent's cone takes the parent's
        cone, signature and table -- unless the pool was pruned since the
        parent was indexed (:meth:`MemoPool.retain`), which may have
        dropped them: then every tree is walked again.
        """
        pool = self.memo_pool
        kept = {}
        if parent is not None and parent._generation == pool.generation:
            kept = {subplan.sid: subplan for subplan in parent._order}
        self._generation = pool.generation
        self.query_ids = {}
        self.children = {}
        self.parents = {subplan.sid: [] for subplan in self.plan.subplans}
        self._sources = {}
        self.programs = {}
        self._trees = trees = {}
        for subplan in self._order:
            sid = subplan.sid
            if kept.get(sid) is subplan:
                self.query_ids[sid] = parent.query_ids[sid]
                self._sources[sid] = parent._sources[sid]
                self.children[sid] = parent.children[sid]
                trees[sid] = parent._trees[sid]
                self.programs[sid] = parent.programs[sid]
                continue
            sources = {}
            nodes = []
            leaves = []
            keys = []
            for node in subplan.root.walk():
                table = None
                if node.kind == "source":
                    ref = node.ref
                    key = ref.key()
                    keys.append(key)
                    if isinstance(ref, TableRef):
                        table = ref.name
                        sources.setdefault(key, (key, table, None))
                    elif isinstance(ref, SubplanRef):
                        child = ref.subplan.sid
                        leaves.append(child)
                        sources.setdefault(key, (key, None, child))
                    else:
                        raise CostModelError("unknown source ref %r" % (ref,))
                filters, projections = node.filters, node.projections
                nodes.append((
                    node.kind, node.stats,
                    tuple(sorted(filters)) if filters else (),
                    tuple(sorted(projections)) if projections else (),
                    table,
                ))
            self.query_ids[sid] = tuple(subplan.query_ids())
            self._sources[sid] = tuple(sources.values())
            self.children[sid] = tuple(
                child for _, _, child in sources.values() if child is not None
            )
            tree = tuple(nodes)
            trees[sid] = (subplan.query_mask, tree, tuple(leaves))
            programs = pool.programs  # equal content, one program
            if tree not in programs:
                programs[tree] = SimProgram(subplan.root)
            self.programs[sid] = (programs[tree], keys)
        for subplan in self.plan.subplans:  # parents in plan order
            for child in self.children[subplan.sid]:
                self.parents[child].append(subplan.sid)
        # what a pace move re-reads: the moved subplan and its ancestors
        self._upward = {}
        for subplan in reversed(self._order):  # parent-first
            sid = subplan.sid
            upward = {sid}
            for parent_sid in self.parents[sid]:
                upward |= self._upward[parent_sid]
            self._upward[sid] = frozenset(upward)
        # per query its subplans in step order, queries in the order a
        # full evaluation first meets them (roots without subplans last)
        self._query_sids = {}
        for subplan in self._order:
            for qid in self.query_ids[subplan.sid]:
                self._query_sids.setdefault(qid, []).append(subplan.sid)
        for qid in self.plan.query_roots:
            self._query_sids.setdefault(qid, [])

        config = self.config
        config_key = (config.execution_overhead, config.minmax_rescan_factor,
                      config.state_factor)
        self._cones = {}
        self._signatures = {}
        self._tables = {}
        self._steps = []
        cone_kept = set()
        for subplan in self._order:  # child-first: children's cones are known
            sid = subplan.sid
            if kept.get(sid) is subplan and all(
                    child in cone_kept for child in self.children[sid]):
                cone_kept.add(sid)
                cone = self._cones[sid] = parent._cones[sid]
                self._signatures[sid] = parent._signatures[sid]
                table = self._tables[sid] = parent._tables[sid]
                # the parent attached it: this model inherits it
                self._steps.append((sid, subplan, cone, table, self.use_memo))
                continue
            cone = [sid]
            seen = {sid}
            for child in self.children[sid]:
                for member in self._cones[child]:
                    if member not in seen:
                        seen.add(member)
                        cone.append(member)
            position = {member: index for index, member in enumerate(cone)}
            signature = (config_key, tuple(
                (mask, nodes, tuple(position[leaf] for leaf in leaves))
                for mask, nodes, leaves in (trees[member] for member in cone)
            ))
            self._cones[sid] = cone = tuple(cone)
            self._signatures[sid] = signature
            table, inherited = (
                pool.attach(signature) if self.use_memo
                else (None, False)
            )
            self._tables[sid] = table
            self._steps.append((sid, subplan, cone, table, inherited))
        self._inherited = frozenset(
            sid for sid, _, _, _, inherited in self._steps if inherited
        )
        self._everything = (self._steps, self._query_sids, 0, 0)
        # a query served by the same kept cones, in the same step order,
        # has the parent's solo estimate: the same pool rows, summed alike
        solo = parent._solo_cache if kept and self.use_memo else {}
        for qid, sids in self._query_sids.items():
            entry = solo.get(qid)
            if (entry is not None and sids == parent._query_sids[qid]
                    and cone_kept.issuperset(sids)):
                self._solo_cache[qid] = entry

    def cone_signature(self, sid):
        """The content signature addressing ``sid``'s memo table."""
        return self._signatures[sid]

    def partition_costs(self, sid, inputs):
        """The pool's local-split cost table for ``sid`` reading ``inputs``
        (its entry of ``evaluate(..., collect_inputs=True).subplan_inputs``);
        a private one when this model keeps no rows."""
        if not self.use_memo:
            return {}
        return self.memo_pool.partition_costs(self._signatures[sid], tuple(
            inputs[key] for key, _, child in self._sources[sid]
            if child is not None
        ))

    def cone_signatures(self):
        """The signatures of every cone of this model's plan."""
        return self._signatures.values()

    def reset_deadline(self):
        if self.time_budget:
            self._deadline = time.monotonic() + self.time_budget

    def _check_deadline(self):
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise OptimizationTimeout(
                "optimization exceeded its %.1fs budget" % self.time_budget
            )

    def table_stat(self, name):
        """The arrival profile of a base table (uniform across queries)."""
        profile = self._table_stats.get(name)
        if profile is None:
            table = self.plan.catalog.get(name)
            rows = table.log_length()
            stat = EdgeStat(
                total=rows, deletes=table.delete_count(), uniform=True
            )
            # one grid step per row: every window holds whole rows
            profile = UniformProfile(stat, max(1, rows))
            self._table_stats[name] = profile
        return profile

    def _inputs_for(self, sid, outputs):
        inputs = {}
        for key, table, child in self._sources[sid]:
            inputs[key] = (
                self.table_stat(table) if child is None else outputs[child]
            )
        return inputs

    # -- Algorithm 1 ---------------------------------------------------------

    def evaluate(self, pace_config, collect_inputs=False, base=None):
        """Estimate ``C_T(P)`` and ``C_F(P, q)`` for every query.

        ``base``, an evaluation this model returned, makes the call a
        delta of it (section 3.2): only the *dirty* subplans -- those
        whose cone holds a pace that differs from ``base.pace_config``,
        i.e. the moved subplans and their ancestors -- are looked up and
        simulated.  Every other subplan keeps the base's row, which is
        the memo row a lookup would find, and counts as that hit.
        Without a base, or in a model that keeps no memo rows, every
        subplan is dirty.  Both sums run in step order either way, so
        the result is bit-identical to a full evaluation.
        """
        self._check_deadline()
        steps, touched, clean, clean_inherited = self._dirty(pace_config, base)
        self.evaluation_count += 1
        evaluation = CostEvaluation(pace_config, self._epoch)
        subplan_total = evaluation.subplan_total
        subplan_final = evaluation.subplan_final
        query_final_work = evaluation.query_final_work
        outputs = evaluation.subplan_outputs
        pool = self.memo_pool
        pool_hits = 0
        if clean:
            # the base's rows in step order; the loop overwrites the
            # dirty ones in place
            subplan_total.update(base.subplan_total)
            subplan_final.update(base.subplan_final)
            outputs.update(base.subplan_outputs)
            query_final_work.update(base.query_final_work)
            pool_hits = clean_inherited
        for sid, subplan, cone, memo, inherited in steps:
            cached = None
            if memo is not None:
                key = tuple([pace_config[member] for member in cone])
                cached = memo.get(key)
            if cached is None:
                sim = simulate_subplan(
                    subplan, pace_config[sid], self._inputs_for(sid, outputs),
                    self.config, program=self.programs[sid],
                )
                self.simulation_count += 1
                pool.simulations += 1
                cached = (sim.private_total, sim.private_final, sim.out_profile)
                if memo is not None:
                    memo[key] = cached
                self._check_deadline()
            elif inherited:
                pool_hits += 1
            subplan_total[sid], subplan_final[sid], outputs[sid] = cached
        if collect_inputs:
            for sid in subplan_total:
                evaluation.subplan_inputs[sid] = self._inputs_for(sid, outputs)
        total_work = 0.0
        for private_total in subplan_total.values():
            total_work += private_total
        evaluation.total_work = total_work
        query_sids = self._query_sids
        for qid in touched:
            final_work = 0.0
            for sid in query_sids[qid]:
                final_work += subplan_final[sid]
            query_final_work[qid] = final_work
        pool.hits += pool_hits
        return evaluation

    def _dirty(self, pace_config, base):
        """What an evaluation of ``pace_config`` against ``base`` re-reads.

        ``(steps, qids, clean, clean_inherited)``: the dirty steps in step
        order, the queries whose final work they feed (in first-met order
        when every step is dirty), and how many steps, and of those how
        many over an inherited table, keep the base's row.
        """
        if base is None:
            return self._everything
        if base.epoch is not self._epoch:
            raise CostModelError(
                "a delta base must be an evaluation of this cost model"
            )
        if not self.use_memo:
            return self._everything
        moved = base.pace_config
        sids = set()
        for sid, upward in self._upward.items():
            if pace_config[sid] != moved[sid]:
                sids |= upward
        if len(sids) == len(self._steps):
            return self._everything
        qids = set()
        for sid in sids:
            qids.update(self.query_ids[sid])
        return (
            [step for step in self._steps if step[0] in sids], qids,
            len(self._steps) - len(sids), len(self._inherited - sids),
        )

    def carry_solo_from(self, old_model, sid_map):
        """Take over ``old_model``'s solo estimates across a plan change.

        ``sid_map`` maps this plan's subplan ids to ``old_model``'s for
        subplans that are structurally identical (same operators, same
        query set, children matched) after a churn re-merge.  Memo rows
        need no carrying -- build this model over ``old_model.memo_pool``
        and a cone that matched whole finds its table -- but the solo
        one-batch estimates are keyed by subplan id, which a re-merge
        renumbers: a query all of whose subplans matched takes its old
        estimate under the new sids.
        """
        for qid in self.plan.query_roots:
            new_sids = [s.sid for s in self._order if s.query_mask & (1 << qid)]
            if any(sid not in sid_map for sid in new_sids):
                continue
            old_entry = old_model._solo_cache.get(qid)
            if old_entry is None:
                continue
            total, per_subplan = old_entry
            mapped = {
                sid: per_subplan[sid_map[sid]]
                for sid in new_sids
                if sid_map[sid] in per_subplan
            }
            if len(mapped) == len(per_subplan) == len(new_sids):
                self._solo_cache[qid] = (total, mapped)

    # -- solo (separate, one-batch) estimates ---------------------------------

    def solo_batch(self, query_id):
        """Estimated cost of running ``query_id`` separately in one batch.

        Simulates only the query's subplans, restricted to the query's own
        tuples, with pace 1.  Returns ``(total_work, {sid: work})``.  This
        is the denominator of relative final-work constraints and the
        basis of the per-subplan local constraint fractions (section
        4.1.1).
        """
        cached = self._solo_cache.get(query_id)
        if cached is not None:
            return cached
        outputs = {}
        per_subplan = {}
        bit = 1 << query_id
        # a function of the cone's content and the query: shared pool-wide
        rows = self.memo_pool.solo if self.use_memo else {}
        for subplan in self._order:
            if not subplan.query_mask & bit:
                continue
            sid = subplan.sid
            key = (self._signatures[sid], query_id)
            row = rows.get(key)
            if row is None:
                sim = simulate_subplan(
                    subplan, 1, self._inputs_for(sid, outputs), self.config,
                    query_subset=(query_id,), program=self.programs[sid],
                )
                row = rows[key] = (sim.private_total, sim.out_profile)
            per_subplan[sid], outputs[sid] = row
        result = (sum(per_subplan.values()), per_subplan)
        self._solo_cache[query_id] = result
        return result

    def solo_final(self, query_id, pace):
        """Estimated final work of ``query_id`` run alone at ``pace``.

        :meth:`solo_batch`'s simulation -- the query's subplans,
        restricted to its own tuples -- with every subplan at ``pace``
        instead of 1, the subplans' final work summed.  It only reads:
        no memo row is written.
        """
        outputs = {}
        final = 0.0
        bit = 1 << query_id
        for subplan in self._order:
            if not subplan.query_mask & bit:
                continue
            sid = subplan.sid
            sim = simulate_subplan(
                subplan, pace, self._inputs_for(sid, outputs), self.config,
                query_subset=(query_id,), program=self.programs[sid],
            )
            outputs[sid] = sim.out_profile
            final += sim.private_final
        return final

    def absolute_constraints(self, relative_constraints):
        """Translate relative constraints into absolute final-work bounds."""
        absolute = {}
        for qid, relative in relative_constraints.items():
            total, _ = self.solo_batch(qid)
            absolute[qid] = relative * total
        return absolute

    def local_constraints(self, subplan, absolute_constraints):
        """Per-query local final-work constraints of one subplan.

        Each query's absolute constraint is scaled by the fraction of the
        query's solo one-batch work done by this subplan's operators
        (section 4.1.1).
        """
        local = {}
        for qid in subplan.query_ids():
            if qid not in absolute_constraints:
                continue
            total, per_subplan = self.solo_batch(qid)
            if total <= 0:
                local[qid] = absolute_constraints[qid]
                continue
            fraction = per_subplan.get(subplan.sid, 0.0) / total
            local[qid] = absolute_constraints[qid] * fraction
        return local

