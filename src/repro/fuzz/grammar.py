"""Seeded grammar for random shared-execution workloads.

A *case* is a plain-JSON dict that fully determines one differential-fuzz
run: a star-schema catalog (fact table plus 0..2 dimensions, with an
optional explicit churn log of updates/deletes), a batch of queries
(joins, filters, group-bys, aggregates including the non-incrementable
MIN/MAX and two-level Q15-style shapes, plus plain projections), a pace
ceiling + salt from which per-plan pace configurations are derived, a
stream configuration, and optional decomposition / SQL-roundtrip /
service-churn (register, then deregister ``dropouts`` mid-run) /
optimizer (relative goals, ``use_memo``) choices.

Everything in a case is a JSON-native value (lists, not tuples), so a
case survives ``json.dumps``/``loads`` bit-for-bit -- the property the
corpus (:mod:`repro.fuzz.corpus`) and the shrinker rely on.  Builders in
this module turn a case into live engine objects: :func:`build_catalog`,
:func:`build_queries`, :func:`render_sql`, :func:`derive_paces`.

Determinism: :func:`generate_case` derives every random choice from
``random.Random("<seed>:<index>:<label>")``, so the case stream for a
seed is reproducible across processes and platforms (string seeding
hashes via SHA-512, independent of ``PYTHONHASHSEED``).
"""

import random

from ..engine.stream import StreamConfig
from ..logical.builder import PlanBuilder
from ..relational.expressions import (
    agg_avg,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    col,
)
from ..relational.schema import FLOAT, INT, STR, Schema
from ..relational.table import Catalog

CASE_VERSION = 1

#: (kind, input column) pool for first-level aggregates
_AGG_POOL = [
    ("sum", "f_v"),
    ("count", None),
    ("avg", "f_v"),
    ("min", "f_v"),
    ("max", "f_v"),
    ("sum", "f_i"),
    ("max", "f_i"),
]

_FILTER_OPS = ["<", "<=", ">", ">="]

_TYPE_NAMES = {INT: "int", FLOAT: "float", STR: "str"}
_NAME_TYPES = {"int": INT, "float": FLOAT, "str": STR}


def case_rng(seed, index, label=""):
    """Deterministic per-(seed, case, purpose) random stream."""
    return random.Random("%d:%d:%s" % (seed, index, label))


# -- generation ------------------------------------------------------------------


def generate_case(seed, index):
    """Generate case ``index`` of the stream for ``seed`` (JSON-native dict)."""
    rng = case_rng(seed, index, "case")
    n_dims = rng.choices([0, 1, 2], weights=[15, 50, 35])[0]
    dim_sizes = [rng.randint(3, 10) for _ in range(n_dims)]
    tables = [_generate_fact(rng, dim_sizes)]
    for d, size in enumerate(dim_sizes):
        tables.append(_generate_dim(rng, d, size))
    if rng.random() < 0.6:
        _generate_churn(rng, tables[0])
    if n_dims and rng.random() < 0.2:
        _generate_churn(rng, tables[1 + rng.randrange(n_dims)], light=True)

    # small per-case constant pools make queries collide (and share)
    fact_cuts = [rng.randint(1, 9) for _ in range(2)]
    dim_cuts = [rng.randint(1, 15) for _ in range(2)]
    n_queries = rng.randint(1, 5)
    queries = [
        _generate_query(rng, qid, n_dims, fact_cuts, dim_cuts)
        for qid in range(n_queries)
    ]

    case = {
        "version": CASE_VERSION,
        "seed": seed,
        "index": index,
        "tables": tables,
        "queries": queries,
        "pace_ceiling": rng.randint(1, 8),
        "pace_salt": rng.randrange(2 ** 16),
        "stream": {
            # exact rationals: quanta q in {1, 2, 3, 6, 10}
            "execution_overhead": rng.choice([0, 1, "5/2"]),
            "state_factor": rng.choice([0, "3/10", "1/3"]),
            "compact_buffers": rng.random() < 0.8,
        },
        "use_sql": rng.random() < 0.4,
        "decompose": (
            {"rank": rng.randrange(4), "salt": rng.randrange(2 ** 16)}
            if rng.random() < 0.35
            else None
        ),
        # register/deregister churn through the long-running service mode
        # (drawn last so adding the key left every earlier field's random
        # stream -- and thus the historical corpus -- untouched)
        "service": (
            {
                "windows": rng.randint(2, 3),
                "goal": rng.choice([5.0, 50.0]),
                "dropouts": (
                    sorted(rng.sample(
                        range(n_queries), rng.randint(1, n_queries - 1)
                    ))
                    if n_queries >= 2 and rng.random() < 0.6
                    else []
                ),
            }
            if rng.random() < 0.35
            else None
        ),
        # optimize_ishare on the case, its plan run at its paces (drawn
        # after ``service`` for the same reason)
        "optimize": (
            _optimize_spec(rng, n_queries) if rng.random() < 0.35 else None
        ),
    }
    return case


def _optimize_spec(rng, n_queries):
    goals = [rng.choice([0.2, 0.5, 1.0, 2.0]) for _ in range(n_queries)]
    rng.random()  # was enable_partial's draw; kept so each seed's cases stay
    return {"goals": goals, "use_memo": rng.random() < 0.8}


def _generate_fact(rng, dim_sizes):
    columns = [["f_k%d" % d, "int"] for d in range(len(dim_sizes))]
    columns += [["f_v", "float"], ["f_i", "int"], ["f_s", "str"]]
    rows = []
    for _ in range(rng.randint(6, 60)):
        row = [rng.randrange(size) for size in dim_sizes]
        row += [
            float(rng.randint(1, 50)),
            rng.randrange(10),
            "t%d" % rng.randrange(4),
        ]
        rows.append(row)
    return {
        "name": "fact",
        "columns": columns,
        "rows": rows,
        "updates": [],
        "deletes": [],
        "churn_salt": 0,
    }


def _generate_dim(rng, d, size):
    rows = [
        [key, "g%d" % rng.randrange(4), float(rng.randint(1, 20))]
        for key in range(size)
    ]
    return {
        "name": "dim%d" % d,
        "columns": [
            ["d%d_id" % d, "int"],
            ["d%d_g" % d, "str"],
            ["d%d_w" % d, "float"],
        ],
        "rows": rows,
        "updates": [],
        "deletes": [],
        "churn_salt": 0,
    }


def _generate_query(rng, qid, n_dims, fact_cuts, dim_cuts):
    joins = [d for d in range(n_dims) if rng.random() < 0.7]
    filters = []
    if rng.random() < 0.5:
        filters.append(["f_i", rng.choice(_FILTER_OPS), rng.choice(fact_cuts)])
    for d in joins:
        if rng.random() < 0.4:
            filters.append(["d%d_w" % d, ">", rng.choice(dim_cuts)])

    fact_cols = ["f_v", "f_i", "f_s"] + ["f_k%d" % d for d in joins]
    dim_cols = [c for d in joins for c in ("d%d_g" % d, "d%d_w" % d)]
    spec = {
        "name": "q%d" % qid,
        "joins": joins,
        "filters": filters,
        "shape": "project" if rng.random() < 0.15 else "agg",
        "group_by": [],
        "aggs": [],
        "project": [],
        "second": None,
    }
    if spec["shape"] == "project":
        available = fact_cols + dim_cols
        k = rng.randint(1, min(3, len(available)))
        spec["project"] = rng.sample(available, k)
        return spec

    group_candidates = [[], ["f_i"], ["f_s"]] + [["d%d_g" % d] for d in joins]
    spec["group_by"] = list(rng.choice(group_candidates))
    picks = rng.sample(_AGG_POOL, rng.randint(1, 3))
    spec["aggs"] = [
        [kind, column, "a%d" % position]
        for position, (kind, column) in enumerate(picks)
    ]
    if spec["group_by"] and rng.random() < 0.25:
        spec["second"] = [rng.choice(["max", "min", "sum"]), "a0", "m0"]
    return spec


def _churn_candidates(table):
    """Row indexes safe to churn: unique-valued rows only.

    Splicing a DELETE after the *first* arrival of an equal row is only
    guaranteed valid when exactly one copy exists; duplicate-valued rows
    could transiently drive a multiset count negative mid-log.
    """
    counts = {}
    for row in table["rows"]:
        key = tuple(row)
        counts[key] = counts.get(key, 0) + 1
    return [
        position
        for position, row in enumerate(table["rows"])
        if counts[tuple(row)] == 1
    ]


def _generate_churn(rng, table, light=False):
    candidates = _churn_candidates(table)
    if not candidates:
        return
    rng.shuffle(candidates)
    n_updates = min(len(candidates), rng.randint(1, 2 if light else 6))
    taken = candidates[:n_updates]
    rest = candidates[n_updates:]
    n_deletes = min(len(rest), rng.randint(0, 1 if light else 3))

    updates = []
    for position in taken:
        old = list(table["rows"][position])
        new = list(old)
        _mutate_row(rng, table, new)
        updates.append([old, new])
    deletes = [list(table["rows"][position]) for position in rest[:n_deletes]]
    table["updates"] = updates
    table["deletes"] = deletes
    table["churn_salt"] = rng.randrange(2 ** 16)


def _mutate_row(rng, table, row):
    """Rewrite the row's value columns (never its key columns)."""
    for position, (name, kind) in enumerate(table["columns"]):
        if name.endswith("_id") or name.startswith("f_k"):
            continue
        if kind == "float":
            row[position] = float(rng.randint(1, 50))
        elif kind == "int":
            row[position] = rng.randrange(10)
        else:
            row[position] = "t%d" % rng.randrange(4)


# -- builders: case dict -> live engine objects ----------------------------------


def build_catalog(case):
    """Instantiate the case's tables (rows, churn log) into a Catalog."""
    catalog = Catalog()
    for spec in case["tables"]:
        schema = Schema.of(*[(name, _NAME_TYPES[kind]) for name, kind in spec["columns"]])
        table = catalog.create(spec["name"], schema)
        for row in spec["rows"]:
            table.append(tuple(row))
        _apply_churn(table, spec)
    return catalog


def _apply_churn(table, spec):
    updates = [
        (tuple(old), tuple(new)) for old, new in spec.get("updates", ())
    ]
    deletes = [tuple(row) for row in spec.get("deletes", ())]
    if not updates and not deletes:
        return
    rng = random.Random("churn:%d" % spec.get("churn_salt", 0))
    if updates:
        table.apply_updates(updates, rng)
        log = table.churn
    else:
        log = [(row, 1) for row in table.rows]
        table.churn = log
    for row in deletes:
        arrival = next(
            position
            for position, (logged, sign) in enumerate(log)
            if sign == 1 and logged == row
        )
        log.insert(rng.randint(arrival + 1, len(log)), (row, -1))


def _make_agg(kind, column, alias):
    if kind == "count":
        return agg_count(alias)
    factory = {
        "sum": agg_sum,
        "avg": agg_avg,
        "min": agg_min,
        "max": agg_max,
    }[kind]
    return factory(col(column), alias)


def _make_filter(name, op, value):
    column = col(name)
    if op == "<":
        return column < value
    if op == "<=":
        return column <= value
    if op == ">":
        return column > value
    if op == ">=":
        return column >= value
    raise ValueError("unknown filter op %r" % op)


def build_query(catalog, spec, query_id):
    """Build one query spec through :class:`PlanBuilder`."""
    builder = PlanBuilder.scan(catalog, "fact")
    dim_filters = {}
    for name, op, value in spec["filters"]:
        if name.startswith("f_"):
            builder = builder.where(_make_filter(name, op, value))
        else:
            dim_filters.setdefault(name[1], []).append((name, op, value))
    for d in spec["joins"]:
        builder = builder.join(
            PlanBuilder.scan(catalog, "dim%d" % d), "f_k%d" % d, "d%d_id" % d
        )
        for name, op, value in dim_filters.get(str(d), ()):
            builder = builder.where(_make_filter(name, op, value))
    if spec["shape"] == "project":
        builder = builder.project(list(spec["project"]))
    else:
        builder = builder.aggregate(
            list(spec["group_by"]),
            [_make_agg(kind, column, alias) for kind, column, alias in spec["aggs"]],
        )
        if spec["second"]:
            kind, column, alias = spec["second"]
            builder = builder.aggregate([], [_make_agg(kind, column, alias)])
    return builder.as_query(query_id, spec["name"])


def build_queries(catalog, case):
    return [
        build_query(catalog, spec, query_id)
        for query_id, spec in enumerate(case["queries"])
    ]


def derive_paces(plan, case, salt_extra=""):
    """Per-plan pace configuration (children at least as eager as parents).

    Paces are derived from the plan's own topology so the same case maps
    onto any plan shape (shared, unshared, decomposed) without storing
    sids -- which differ between plans -- in the case.
    """
    rng = random.Random(
        "paces:%d:%s" % (case.get("pace_salt", 0), salt_extra)
    )
    ceiling = max(1, int(case.get("pace_ceiling", 1)))
    paces = {}
    for subplan in plan.topological_order():
        upper = min(
            (paces[child.sid] for child in subplan.child_subplans()),
            default=ceiling,
        )
        paces[subplan.sid] = rng.randint(1, max(1, upper))
    return paces


def stream_config(case):
    spec = case.get("stream") or {}
    return StreamConfig(
        execution_overhead=spec.get("execution_overhead", 1.0),
        state_factor=spec.get("state_factor", 0.3),
        compact_buffers=spec.get("compact_buffers", True),
    )


# -- SQL rendering ----------------------------------------------------------------


def render_query_sql(spec):
    """Render a query spec into the SQL subset :mod:`repro.sqlparser` accepts."""
    source = "fact"
    for d in spec["joins"]:
        source += " JOIN dim%d ON f_k%d = d%d_id" % (d, d, d)
    where = ""
    if spec["filters"]:
        where = " WHERE " + " AND ".join(
            "%s %s %s" % (name, op, _sql_literal(value))
            for name, op, value in spec["filters"]
        )
    if spec["shape"] == "project":
        items = ", ".join(spec["project"])
        return "SELECT %s FROM %s%s" % (items, source, where)
    items = list(spec["group_by"])
    for kind, column, alias in spec["aggs"]:
        argument = column if column is not None else "f_v"
        items.append("%s(%s) AS %s" % (kind.upper(), argument, alias))
    sql = "SELECT %s FROM %s%s" % (", ".join(items), source, where)
    if spec["group_by"]:
        sql += " GROUP BY %s" % ", ".join(spec["group_by"])
    if spec["second"]:
        kind, column, alias = spec["second"]
        sql = "SELECT %s(%s) AS %s FROM (%s) AS t" % (
            kind.upper(), column, alias, sql,
        )
    return sql


def render_sql(case):
    return [render_query_sql(spec) for spec in case["queries"]]


def _sql_literal(value):
    if isinstance(value, bool):
        raise ValueError("boolean literals are not in the fuzz grammar")
    if isinstance(value, (int, float)):
        return repr(value)
    return "'%s'" % value
