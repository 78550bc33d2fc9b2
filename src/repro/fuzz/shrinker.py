"""Delta-debugging shrinker: reduce a failing case to a minimal repro.

Greedy reduction to a fixpoint: each pass proposes structurally smaller
variants of the case (drop a query, drop an operator, halve a table,
drop churn, lower paces, disable decomposition/SQL/optimization); a
variant is kept iff the failure predicate still holds.  Passes repeat
until a full sweep accepts nothing, or the checker budget runs out.

The predicate is caller-supplied (usually "run_case reports a failure
*or* raises"), so the shrinker works unchanged for result divergences,
invariant violations, and crashes.  All reductions are deterministic --
same failing case, same predicate, same minimal repro.
"""

import copy


def shrink(case, is_failing, budget=400):
    """Return a minimal failing variant of ``case``.

    ``is_failing(case) -> bool`` must be true for the input case.
    ``budget`` caps the number of predicate evaluations.
    """
    state = _Shrink(is_failing, budget)
    current = copy.deepcopy(case)
    progress = True
    while progress and state.budget > 0:
        progress = False
        for reduction in _REDUCTIONS:
            while state.budget > 0:
                candidate = None
                for candidate in reduction(current):
                    if state.check(candidate):
                        current = candidate
                        progress = True
                        break
                else:
                    break  # no candidate of this pass helped; next pass
    return current


class _Shrink:
    def __init__(self, is_failing, budget):
        self.is_failing = is_failing
        self.budget = budget

    def check(self, candidate):
        if self.budget <= 0:
            return False
        self.budget -= 1
        try:
            return bool(self.is_failing(candidate))
        except Exception:
            # a candidate that breaks the *checker* differently is not a
            # reduction of the original failure
            return False


def _variant(case, mutate):
    candidate = copy.deepcopy(case)
    mutate(candidate)
    return candidate


# -- reduction passes (each yields candidate cases, smallest bite first) ---------


def _drop_queries(case):
    if len(case["queries"]) <= 1:
        return
    for position in range(len(case["queries"]) - 1, -1, -1):
        def cut(candidate, position=position):
            del candidate["queries"][position]
        yield _variant(case, cut)


def _drop_query_parts(case):
    for position, spec in enumerate(case["queries"]):
        if spec.get("second"):
            yield _variant(
                case, lambda c, p=position: c["queries"][p].update(second=None)
            )
        if len(spec.get("aggs", ())) > 1:
            yield _variant(
                case,
                lambda c, p=position: c["queries"][p].update(
                    aggs=c["queries"][p]["aggs"][:1], second=None
                ),
            )
        if spec.get("group_by"):
            yield _variant(
                case,
                lambda c, p=position: c["queries"][p].update(
                    group_by=[], second=None
                ),
            )
        for findex in range(len(spec.get("filters", ())) - 1, -1, -1):
            def cut_filter(candidate, p=position, f=findex):
                del candidate["queries"][p]["filters"][f]
            yield _variant(case, cut_filter)
        for jindex in range(len(spec.get("joins", ())) - 1, -1, -1):
            def cut_join(candidate, p=position, j=jindex):
                qspec = candidate["queries"][p]
                dim = qspec["joins"].pop(j)
                prefix = "d%d_" % dim
                qspec["filters"] = [
                    f for f in qspec["filters"] if not f[0].startswith(prefix)
                ]
                qspec["group_by"] = [
                    g for g in qspec["group_by"] if not g.startswith(prefix)
                ]
                qspec["project"] = [
                    c for c in qspec["project"]
                    if not c.startswith(prefix) and c != "f_k%d" % dim
                ] or ["f_i"]
            yield _variant(case, cut_join)
        if len(spec.get("project", ())) > 1:
            yield _variant(
                case,
                lambda c, p=position: c["queries"][p].update(
                    project=c["queries"][p]["project"][:1]
                ),
            )


def _drop_tables(case):
    """Drop dimension tables no query joins any more."""
    used = {d for spec in case["queries"] for d in spec["joins"]}
    for position in range(len(case["tables"]) - 1, 0, -1):
        name = case["tables"][position]["name"]
        dim = int(name[3:])
        if dim in used:
            continue

        def cut(candidate, position=position, dim=dim):
            del candidate["tables"][position]
            fact = candidate["tables"][0]
            columns = [c for c, _ in fact["columns"]]
            if "f_k%d" % dim in columns:
                at = columns.index("f_k%d" % dim)
                del fact["columns"][at]
                for row in fact["rows"]:
                    del row[at]
                for old, new in fact["updates"]:
                    del old[at]
                    del new[at]
                for row in fact["deletes"]:
                    del row[at]

        yield _variant(case, cut)


def _drop_churn(case):
    for position, table in enumerate(case["tables"]):
        if table["updates"] or table["deletes"]:
            yield _variant(
                case,
                lambda c, p=position: c["tables"][p].update(
                    updates=[], deletes=[]
                ),
            )
    for position, table in enumerate(case["tables"]):
        for key in ("updates", "deletes"):
            if len(table[key]) > 1:
                yield _variant(
                    case,
                    lambda c, p=position, k=key: c["tables"][p].update(
                        **{k: c["tables"][p][k][:1]}
                    ),
                )
            if len(table[key]) == 1 and table["updates"] and table["deletes"]:
                yield _variant(
                    case,
                    lambda c, p=position, k=key: c["tables"][p].update(**{k: []}),
                )


def _halve_rows(case):
    for position, table in enumerate(case["tables"]):
        n = len(table["rows"])
        if n <= 1:
            continue
        for keep_front in (False, True):
            def cut(candidate, position=position, keep_front=keep_front, n=n):
                table = candidate["tables"][position]
                kept = table["rows"][: n // 2] if keep_front else table["rows"][n // 2:]
                _restrict_rows(table, kept)
            yield _variant(case, cut)


def _drop_single_rows(case):
    for position, table in enumerate(case["tables"]):
        if not 1 < len(table["rows"]) <= 8:
            continue
        for rindex in range(len(table["rows"]) - 1, -1, -1):
            def cut(candidate, position=position, rindex=rindex):
                table = candidate["tables"][position]
                kept = [
                    row for at, row in enumerate(table["rows"]) if at != rindex
                ]
                _restrict_rows(table, kept)
            yield _variant(case, cut)


def _restrict_rows(table, kept):
    """Replace a table's rows, pruning churn events that lost their target."""
    table["rows"] = kept
    keys = {tuple(row) for row in kept}
    table["updates"] = [
        [old, new] for old, new in table["updates"] if tuple(old) in keys
    ]
    table["deletes"] = [
        row for row in table["deletes"] if tuple(row) in keys
    ]


def _simplify_config(case):
    if case.get("decompose") is not None:
        yield _variant(case, lambda c: c.update(decompose=None))
    if case.get("optimize") is not None:
        yield _variant(case, lambda c: c.update(optimize=None))
    if case.get("use_sql"):
        yield _variant(case, lambda c: c.update(use_sql=False))
    ceiling = case.get("pace_ceiling", 1)
    if ceiling > 1:
        yield _variant(case, lambda c: c.update(pace_ceiling=2 if ceiling > 2 else 1))
    stream = case.get("stream", {})
    if stream.get("execution_overhead") or stream.get("state_factor"):
        yield _variant(
            case,
            lambda c: c["stream"].update(execution_overhead=0, state_factor=0),
        )
    if not stream.get("compact_buffers", True):
        yield _variant(case, lambda c: c["stream"].update(compact_buffers=True))


_REDUCTIONS = [
    _drop_queries,
    _drop_churn,
    _halve_rows,
    _drop_query_parts,
    _drop_tables,
    _drop_single_rows,
    _simplify_config,
]
