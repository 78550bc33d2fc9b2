"""Run metrics: total work, final work, latency, missed latency.

Definitions follow the paper exactly (sections 2.1 and 5.1):

* **total work** -- units of work done by all incremental executions of
  all subplans; the proxy for CPU consumption / total execution time.
* **final work** of a query -- the sum of the work of the *final*
  executions (the ones at the trigger point) of the query's subplans; the
  proxy for the query's latency.
* **latency** -- final work converted to seconds at the configured rate.
* **missed latency** -- ``max(0, tested latency - latency goal)``
  absolute, and that value divided by the goal as the relative form.
"""


class ExecutionRecord:
    """One incremental execution of one subplan.

    ``work`` is the full charge (including state-store maintenance);
    ``latency_work`` excludes the state-maintenance portion, which is
    committed after results are emitted and therefore does not delay the
    query's answer.  Both are integer counts of ``1/quantum`` work units
    (:attr:`RunResult.quantum`).
    """

    __slots__ = ("sid", "fraction", "work", "latency_work", "output_count")

    def __init__(self, sid, fraction, work, output_count, latency_work=None):
        self.sid = sid
        self.fraction = fraction
        self.work = work
        self.latency_work = work if latency_work is None else latency_work
        self.output_count = output_count

    def __repr__(self):
        return "ExecutionRecord(sp%d @ %s, work=%d quanta, out=%d)" % (
            self.sid,
            self.fraction,
            self.work,
            self.output_count,
        )


def _work_view(name):
    """A property: the ``{key: quanta}`` attribute ``name`` in work units."""
    return property(lambda self: {
        key: quanta / self.quantum for key, quanta in getattr(self, name).items()
    })


class RunResult:
    """The measured outcome of executing a plan under a pace configuration.

    Work is exact: the ``*_quanta`` counts are integer ``1/quantum`` work
    units, and their ``*_work`` views are in work units.
    """

    def __init__(self, pace_config, stream_config):
        self.pace_config = dict(pace_config)
        self.stream_config = stream_config
        self.quantum = stream_config.quantum
        self.records = []
        self.total_quanta = 0
        self.subplan_total_quanta = {}
        self.subplan_final_quanta = {}
        self.query_final_quanta = {}
        self.query_results = {}
        #: backend attribution (engine_mode label, columnar on/off),
        #: filled by the executor so archived results say which engine
        #: path produced them
        self.metadata = {}

    def add_record(self, record, is_final):
        self.records.append(record)
        self.total_quanta += record.work
        self.subplan_total_quanta[record.sid] = (
            self.subplan_total_quanta.get(record.sid, 0) + record.work
        )
        if is_final:
            self.subplan_final_quanta[record.sid] = record.latency_work

    @property
    def total_work(self):
        return self.total_quanta / self.quantum

    subplan_total_work = _work_view("subplan_total_quanta")
    subplan_final_work = _work_view("subplan_final_quanta")
    query_final_work = _work_view("query_final_quanta")

    @property
    def total_seconds(self):
        return self.stream_config.seconds(self.total_work)

    def query_latency_seconds(self, query_id):
        return self.stream_config.seconds(
            self.query_final_quanta[query_id] / self.quantum
        )

    def executions_of(self, sid):
        return [record for record in self.records if record.sid == sid]

    def __repr__(self):
        return "RunResult(total_work=%.1f, %d executions)" % (
            self.total_work,
            len(self.records),
        )


#: relative miss reported when the goal itself is zero but the tested
#: latency is not: the goal is missed by an unbounded factor, reported as
#: this finite cap so summary means stay arithmetically usable
ZERO_GOAL_RELATIVE_MISS = 1e3


def missed_latency(tested_seconds, goal_seconds):
    """``(absolute, relative)`` missed latency versus a goal (section 5.1).

    A zero goal met exactly (tested 0) is a zero miss; a zero goal with
    any positive tested latency is a full miss, reported with the capped
    relative value :data:`ZERO_GOAL_RELATIVE_MISS` rather than the old
    (wrong) 0.0.
    """
    absolute = max(0.0, tested_seconds - goal_seconds)
    if goal_seconds > 0:
        relative = absolute / goal_seconds
    elif absolute > 0:
        relative = ZERO_GOAL_RELATIVE_MISS
    else:
        relative = 0.0
    return absolute, relative


class MissedLatencySummary:
    """Mean/max absolute and relative missed latency over a query batch.

    This is the Table 1/2/3 row shape: Mean %, Mean Sec., Max %, Max Sec.
    """

    def __init__(self):
        self.absolute = []
        self.relative = []

    def add(self, tested_seconds, goal_seconds):
        absolute, relative = missed_latency(tested_seconds, goal_seconds)
        self.absolute.append(absolute)
        self.relative.append(relative)

    @property
    def mean_seconds(self):
        return sum(self.absolute) / len(self.absolute) if self.absolute else 0.0

    @property
    def max_seconds(self):
        return max(self.absolute) if self.absolute else 0.0

    @property
    def mean_percent(self):
        return 100.0 * sum(self.relative) / len(self.relative) if self.relative else 0.0

    @property
    def max_percent(self):
        return 100.0 * max(self.relative) if self.relative else 0.0

    def row(self):
        """``(mean %, mean sec, max %, max sec)`` as the paper tabulates."""
        return (self.mean_percent, self.mean_seconds, self.max_percent, self.max_seconds)

    def __repr__(self):
        return "MissedLatency(mean=%.2f%%/%.2fs, max=%.2f%%/%.2fs)" % self.row()
