"""The regret report: the greedy pace search re-scored with measured costs.

:func:`regret_report` closes the decision-log loop.  For every
``pace_*`` decision-log record it reconstructs the candidate set the
greedy search saw, re-scores it with the measured feedback correction
factors (the oracle: what the search *would* have picked had the cost
model already known the measured work), and reports the extra-work
regret of each accepted move.  Every pace-search record's ``seq``
appears in ``covered_seqs`` -- full decision coverage is a CI assertion.

Nothing here reads wall clocks or randomness: the same records and
factors give the same report, so serial and sharded runs stay comparable.
"""

#: incrementability fields serialize infinity as the string "inf"
_INF = float("inf")


def _as_score(value):
    """Decision-log incrementability: the string "inf" means infinite."""
    if value == "inf":
        return _INF
    return float(value)


def _group_factor(group, factors):
    """Mean measured total-work correction factor of a moved pace group."""
    if not factors or not group:
        return 1.0
    picked = []
    for sid in group:
        entry = factors.get(sid)
        if entry is None:
            entry = factors.get(str(sid))
        if entry is not None:
            picked.append(float(entry[0]))
    if not picked:
        return 1.0
    return sum(picked) / len(picked)


def regret_report(records, feedback=None, feedback_by_run=None):
    """Per-decision regret of the greedy pace search vs. the oracle.

    For each accepted ``pace_move`` the candidate set is the move itself
    plus that iteration's ``pace_reject`` records.  Each candidate's
    logged ``(incrementability, extra_work)`` score is *corrected* with
    the measured feedback factors -- a subplan that measured 2x its
    estimate doubles the real extra work of making it eagerer and halves
    its real incrementability -- and the oracle is the corrected-score
    maximizer (the move the search would have made with measured costs).
    ``regret_work`` is the corrected extra-work gap between the chosen
    move and the oracle's (0.0 when they agree).

    ``feedback`` is a flat ``{sid: (total_factor, final_factor)}`` map;
    ``feedback_by_run`` maps a decision-log ``run`` id to such a map (the
    sharded service exports one per shard).  With neither, factors
    default to 1.0 and the report degrades to pure decision coverage.

    Every ``pace_*`` record's ``seq`` lands in ``covered_seqs`` exactly
    once -- descending corrections (``pace_decrease``) and terminal
    records are carried as zero-regret entries and search summaries.
    """
    decisions = []
    searches = []
    covered = []
    pending = {}  # (run, iteration) -> [reject records]

    def factors_for(run):
        if feedback_by_run is not None:
            return feedback_by_run.get(run, {})
        return feedback or {}

    def corrected(inc, extra, group, factors):
        factor = _group_factor(group, factors)
        inc = _as_score(inc)
        return (
            inc / factor if inc != _INF else _INF,
            float(extra) * factor,
            factor,
        )

    for record in records:
        event = record.get("event", "")
        if not event.startswith("pace_"):
            continue
        run = record.get("run", "main")
        seq = record.get("seq")
        covered.append(seq)
        if event == "pace_reject":
            pending.setdefault((run, record["iteration"]), []).append(record)
        elif event == "pace_move":
            factors = factors_for(run)
            rejected = pending.pop((run, record["iteration"]), [])
            chosen_inc, chosen_extra, factor = corrected(
                record["incrementability"], record["extra_work"],
                record.get("group", ()), factors,
            )
            candidates = [{
                "group": list(record.get("group", ())),
                "estimated_extra_work": float(record["extra_work"]),
                "corrected_extra_work": chosen_extra,
                "corrected_incrementability": chosen_inc,
                "factor": factor,
                "chosen": True,
            }]
            for reject in rejected:
                inc, extra, rfactor = corrected(
                    reject["incrementability"], reject["extra_work"],
                    reject.get("group", ()), factors,
                )
                candidates.append({
                    "group": list(reject.get("group", ())),
                    "estimated_extra_work": float(reject["extra_work"]),
                    "corrected_extra_work": extra,
                    "corrected_incrementability": inc,
                    "factor": rfactor,
                    "chosen": False,
                })
            # the oracle maximizes (corrected inc, -corrected extra); ties
            # favor the chosen move so agreement reports zero regret
            oracle = max(
                candidates,
                key=lambda c: (
                    c["corrected_incrementability"],
                    -c["corrected_extra_work"],
                    c["chosen"],
                ),
            )
            switched = not oracle["chosen"]
            decisions.append({
                "kind": "move",
                "run": run,
                "seq": seq,
                "iteration": record["iteration"],
                "chosen_group": candidates[0]["group"],
                "oracle_group": oracle["group"],
                "switched": switched,
                "regret_work": (
                    candidates[0]["corrected_extra_work"]
                    - oracle["corrected_extra_work"]
                    if switched else 0.0
                ),
                "candidates": candidates,
            })
        elif event == "pace_decrease":
            decisions.append({
                "kind": "decrease",
                "run": run,
                "seq": seq,
                "sid": record.get("sid"),
                "work_saved": record.get("work_saved", 0.0),
                "switched": False,
                "regret_work": 0.0,
            })
        else:  # pace_search_done / pace_exhausted / pace_decrease_done
            summary = {"run": run, "seq": seq, "event": event}
            for field in ("iterations", "met", "total_work", "unmet_queries"):
                if field in record:
                    summary[field] = record[field]
            searches.append(summary)
    # a reject whose move never landed (search aborted) still counts
    for (run, iteration), rejects in sorted(pending.items()):
        for reject in rejects:
            decisions.append({
                "kind": "orphan_reject",
                "run": run,
                "seq": reject.get("seq"),
                "iteration": iteration,
                "switched": False,
                "regret_work": 0.0,
            })
    switched = sum(1 for d in decisions if d["switched"])
    return {
        "decisions": decisions,
        "searches": searches,
        "covered_seqs": covered,
        "decision_count": len(decisions),
        "switched": switched,
        "total_regret_work": sum(
            max(0.0, d["regret_work"]) for d in decisions
        ),
    }
