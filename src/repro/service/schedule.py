"""Scripted churn schedules: JSON-native event streams for the service.

A schedule is one dict (JSON round-trippable, like fuzz cases)::

    {
      "workload": {"scale": 0.06, "seed": 100},     # TPC-H window factory
      "window_seconds": 60.0,   # simulated data-arrival period per trigger
      "windows": 4,             # total trigger firings
      "shards": 2,              # tenant shards (harness.service)
      "max_pace": 8,
      "admission": "reject",
      "tenant_budgets": {"gamma": 900.0},
      "events": [
        {"at": 0.0, "op": "register", "query_id": 0, "tenant": "alpha",
         "query": "Q1", "goal": 0.6},
        {"at": 130.0, "op": "deregister", "query_id": 0},
      ],
    }

The clock is event-driven: events are replayed in ``(at, position)``
order, and whenever the next event's timestamp crosses a window boundary
(multiples of ``window_seconds``) the due triggers fire first.  An event
therefore takes effect at the service *between* the windows its
timestamp falls between -- churn bursts inside one window coalesce into
a single re-optimization at the next trigger.
"""

from ..errors import ServiceError

_EVENT_OPS = ("register", "deregister")


def validate_schedule(schedule):
    """Structural validation; raises :class:`~repro.errors.ServiceError`.

    Returns the events sorted by ``(at, position)`` -- the replay order.
    """
    if not isinstance(schedule, dict):
        raise ServiceError("a schedule must be a dict, got %r" % type(schedule))
    windows = schedule.get("windows")
    if not isinstance(windows, int) or isinstance(windows, bool) or windows < 1:
        raise ServiceError(
            "schedule needs a positive integer 'windows', got %r" % (windows,)
        )
    window_seconds = schedule.get("window_seconds", 60.0)
    if not isinstance(window_seconds, (int, float)) or window_seconds <= 0:
        raise ServiceError(
            "schedule 'window_seconds' must be positive, got %r" % (window_seconds,)
        )
    events = schedule.get("events", [])
    if not isinstance(events, list):
        raise ServiceError("schedule 'events' must be a list")
    seen_registered = set()
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            raise ServiceError("event %d is not a dict: %r" % (position, event))
        op = event.get("op")
        if op not in _EVENT_OPS:
            raise ServiceError(
                "event %d has unknown op %r (expected one of %s)"
                % (position, op, "/".join(_EVENT_OPS))
            )
        at = event.get("at")
        if not isinstance(at, (int, float)) or isinstance(at, bool) or at < 0:
            raise ServiceError(
                "event %d needs a non-negative 'at' timestamp, got %r"
                % (position, at)
            )
        qid = event.get("query_id")
        if not isinstance(qid, int) or isinstance(qid, bool) or qid < 0:
            raise ServiceError(
                "event %d needs a non-negative integer 'query_id', got %r"
                % (position, qid)
            )
        if op == "register":
            for field in ("tenant", "query"):
                if not isinstance(event.get(field), str) or not event[field]:
                    raise ServiceError(
                        "register event %d needs a non-empty %r" % (position, field)
                    )
            seen_registered.add(qid)
        else:
            if qid not in seen_registered:
                raise ServiceError(
                    "deregister event %d references query id %d that no "
                    "earlier event registered" % (position, qid)
                )
    return sorted(enumerate(events), key=lambda pair: (pair[1]["at"], pair[0]))


def tenant_of_events(events):
    """``{query_id: tenant}`` across a validated event list."""
    owners = {}
    for _, event in events:
        if event["op"] == "register":
            owners[event["query_id"]] = event["tenant"]
    return owners


def replay_schedule(service, schedule, build_query, collect_results=False):
    """Drive one :class:`~repro.service.core.QueryService` through a schedule.

    ``build_query`` is ``(name, query_id) -> Query`` (the tenant shard's
    query factory).  Fires every one of the schedule's ``windows``
    triggers; events apply between windows per their timestamps.  Returns
    ``(outcomes, decisions)`` with outcomes one per window.
    """
    ordered = validate_schedule(schedule)
    window_seconds = float(schedule.get("window_seconds", 60.0))
    total_windows = schedule["windows"]
    outcomes = []

    def fire_until(timestamp):
        while (
            len(outcomes) < total_windows
            and (len(outcomes) + 1) * window_seconds <= timestamp
        ):
            outcomes.append(service.run_window(collect_results=collect_results))

    for _, event in ordered:
        fire_until(event["at"])
        qid = event["query_id"]
        if event["op"] == "register":
            query = build_query(event["query"], qid)
            service.register(query, event["tenant"], event["goal"])
        elif qid in service.registrations:
            service.deregister(qid)
        # else admission turned the query away (at registration, or as
        # measured_unsatisfiable after its first window): nothing to leave
    while len(outcomes) < total_windows:
        outcomes.append(service.run_window(collect_results=collect_results))
    return outcomes, list(service.decisions)


#: The scripted demo schedule `python -m repro.service` runs by default:
#: three tenants on a small TPC-H window stream; exercises incremental
#: re-optimization on register and deregister churn, a goal-unsatisfiable
#: rejection (query 4's absurd goal) and a tenant-budget rejection
#: (gamma's budget is below one query's solo work).
DEMO_SCHEDULE = {
    "workload": {"scale": 0.05, "seed": 100},
    "window_seconds": 60.0,
    "windows": 4,
    "shards": 2,
    "max_pace": 8,
    "admission": "reject",
    "tenant_budgets": {"gamma": 1.0},
    "events": [
        {"at": 0.0, "op": "register", "query_id": 0, "tenant": "alpha",
         "query": "Q1", "goal": 0.6},
        {"at": 5.0, "op": "register", "query_id": 1, "tenant": "alpha",
         "query": "Q6", "goal": 0.6},
        {"at": 10.0, "op": "register", "query_id": 2, "tenant": "beta",
         "query": "Q12", "goal": 0.5},
        {"at": 70.0, "op": "register", "query_id": 3, "tenant": "beta",
         "query": "Q18", "goal": 0.5},
        {"at": 75.0, "op": "register", "query_id": 4, "tenant": "alpha",
         "query": "Q14", "goal": 1e-9},
        {"at": 80.0, "op": "register", "query_id": 5, "tenant": "gamma",
         "query": "Q3", "goal": 0.8},
        {"at": 130.0, "op": "deregister", "query_id": 0},
        {"at": 190.0, "op": "register", "query_id": 6, "tenant": "alpha",
         "query": "Q19", "goal": 0.7},
    ],
}
