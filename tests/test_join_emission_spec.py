"""The production join against its spec: a recorded replay.

The spec is the per-tuple reference ``JoinExec``: two private
``key -> {(row, bits): net}`` tables, probe-install-probe-install.  The
production ``ColumnarJoinExec`` holds the same table per side, either
through a handle on a shared arrangement (a bare base-table scan, whose
slots carry ``~0``) or in a ``PrivateSide`` -- chosen by plan shape, so
there is no run of the production operators "without arrangements" to
compare against.  This replay is that comparison: every ``advance`` of
every join of the 22-query shared plan is recorded -- both input
batches, the emitted ``(row, sign, bits)`` sequence with its value
types, the WorkMeter charges and the entry count the state charge
bills -- and the recorded inputs are fed, advance by advance, to a
reference join over private tables, which must emit, charge and count
the same.

The last class is the proof that the fuzz pairs this replaced
(``shared-arranged`` / ``shared-private``, ``service`` /
``service-private``) lost nothing: a fault planted in the probe's lookup
of an arranged table is reported here and by the fuzz matrix on the
corpus case that pinned those pairs.
"""

import json
import os

import pytest

from repro.engine.arrangements import ArrangementHandle
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.fuzz.oracles import run_case
from repro.physical.columnar import ColumnarJoinExec
from repro.physical.hotpath import clear_compiled_caches
from repro.physical.operators import JoinExec
from repro.physical.work import WorkMeter

from .test_columnar_equivalence import fig11_setup  # noqa: F401
from .util import deltas_of

CORPUS_CASE = os.path.join(
    os.path.dirname(__file__), "fuzz_corpus", "arranged-service-churn.json"
)

#: ``(parent pace, leaf pace)``: the benchmark's lazy and eager settings
PACES = {"lazy": (1, 3), "eager": (16, 48)}


class _Feed:
    batch = ()

    def advance(self):
        return self.batch

    def reset(self):
        pass


class _Tap:
    """A join input that remembers the batch it last handed over."""

    def __init__(self, child):
        self.child = child
        self.batch = None

    def advance(self):
        self.batch = self.child.advance()
        return self.batch

    def __getattr__(self, name):  # ``reader``, ``reset``, ...
        return getattr(self.child, name)


def _typed(out):
    # value types ride along: (3,) == (3.0,) == (True,)
    return [
        (d.row, tuple(map(type, d.row)), d.sign, d.bits)
        for d in deltas_of(out)
    ]


def _charges(op):
    names = (op.name, op.decorations.filter_name, op.decorations.project_name)
    return [op.meter.per_operator.get(name, 0) for name in names]


class Recording:
    """Every production join advance of one run, in execution order."""

    def __init__(self):
        #: ``(join, left deltas, right deltas, typed output, charges,
        #: entry_count)`` per advance; charges are the running totals of
        #: the join's own meter names, and entry_count what its state
        #: charge counts
        self.advances = []
        self.arranged_sides = 0
        self.private_sides = 0
        self.most_versions = 0  # of one arrangement at one time


def _kind(state):
    return "arranged" if isinstance(state, ArrangementHandle) else "private"


def record_join_advances(monkeypatch, plan, paces):
    """Run ``plan`` on the production operators, recording its joins."""
    recording = Recording()
    init = ColumnarJoinExec.__init__
    advance = ColumnarJoinExec.advance

    def tapped_init(self, node, left, right, *args, **kwargs):
        init(self, node, _Tap(left), _Tap(right), *args, **kwargs)
        for state in self.states:
            if _kind(state) == "arranged":
                recording.arranged_sides += 1
            else:
                recording.private_sides += 1

    def tapped_advance(self):
        out = advance(self)
        for state in self.states:
            if _kind(state) == "arranged":
                recording.most_versions = max(
                    recording.most_versions, len(state.arrangement.versions)
                )
        recording.advances.append((
            self, deltas_of(self.left.batch), deltas_of(self.right.batch),
            _typed(out), _charges(self), self.entry_count,
        ))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(ColumnarJoinExec, "__init__", tapped_init)
        patch.setattr(ColumnarJoinExec, "advance", tapped_advance)
        clear_compiled_caches()
        PlanExecutor(plan, StreamConfig()).run(paces)
    return recording


def replay_through_reference(recording):
    """Feed the recorded inputs to reference joins over private tables;
    every advance must emit, charge and count what production did."""
    references = {}
    for index, (join, left, right, out, charges, entries) in enumerate(
        recording.advances
    ):
        reference = references.get(id(join))
        if reference is None:
            reference = references[id(join)] = JoinExec(
                join.node, _Feed(), _Feed(), WorkMeter()
            )
        reference.left.batch = left
        reference.right.batch = right
        where = (join.name, index)
        assert _typed(reference.advance()) == out, where
        assert _charges(reference) == charges, where
        assert reference.entry_count == entries, where
    return len(references)


def _paces(plan, setting):
    parent, leaf = PACES[setting]
    return {
        subplan.sid: parent if subplan.child_subplans() else leaf
        for subplan in plan.subplans
    }


class TestRecordedReplay:
    @pytest.mark.parametrize("setting", sorted(PACES))
    def test_fig11_plan(self, fig11_setup, monkeypatch, setting):  # noqa: F811
        plan, _, _ = fig11_setup
        recording = record_join_advances(
            monkeypatch, plan, _paces(plan, setting)
        )
        # both kinds of side, and readers at different paces: a laggard
        # makes its arrangement keep (clone) a second version
        assert recording.arranged_sides and recording.private_sides
        assert recording.most_versions > 1
        assert any(out for _, _, _, out, _, _ in recording.advances)
        joins = replay_through_reference(recording)
        assert joins >= 20


# -- a fault in the arranged probe is caught, here and by the fuzz matrix ---------


class _DropsLastMatch:
    """An arrangement version's table whose lookups lose their last match."""

    def __init__(self, table):
        self.table = table

    def get(self, key):
        matches = self.table.get(key)
        if matches:
            matches = dict(list(matches.items())[:-1])
        return matches


@pytest.fixture
def faulty_arranged_probe(monkeypatch):
    # the one probe looks keys up in ``state.table``: an arranged side's
    # now drops the last match of every key it finds
    monkeypatch.setattr(ArrangementHandle, "table", property(
        lambda handle: _DropsLastMatch(handle.cursor.version.table)))


class TestArrangedProbeFaultIsCaught:
    def test_by_the_replay(self, fig11_setup, monkeypatch,  # noqa: F811
                           faulty_arranged_probe):
        plan, _, _ = fig11_setup
        recording = record_join_advances(monkeypatch, plan, _paces(plan, "lazy"))
        with pytest.raises(AssertionError):
            replay_through_reference(recording)

    def test_by_the_fuzz_matrix(self, faulty_arranged_probe):
        with open(CORPUS_CASE) as handle:
            report = run_case(json.load(handle))
        assert report.status == "fail"
        # (tests/test_fuzz_regressions.py replays the same case green);
        # the exactness pairs see it, not only the result comparison
        assert any("shared-unbatched" in f for f in report.failures)
        assert any("service-unbatched" in f for f in report.failures)
