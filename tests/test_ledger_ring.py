"""The service's ledgers keep a ring of their newest ``LEDGER_RING`` windows.

Totals stay exact integer quanta over every recorded window, the
attribution ledger carries the per-query prefix of the windows its ring
evicted, and the full conservation replay is that prefix plus the ring.
A ring-bounded service must report exactly what an unbounded one does.
"""

from repro.core.optimizer import OptimizerConfig
from repro.harness.service import summarize_reports
from repro.obs import attribution, slack
from repro.obs.attribution import LEDGER_RING, AttributionLedger
from repro.service.core import QueryService

from .util import (
    make_toy_catalog,
    toy_query_max,
    toy_query_region,
    toy_query_total,
)

# many times the ring, and long enough for the churn schedule below
WINDOWS = max(3 * LEDGER_RING, 48)
BUILDERS = ((toy_query_total, "a"), (toy_query_region, "b"),
            (toy_query_max, "c"))


def _run_churned_service(windows=WINDOWS):
    """A toy service whose live set changes every few windows and
    shrinks to one query for the ring's last stretch, so the evicted
    prefix bills slots the ring no longer holds."""
    catalogs = [make_toy_catalog(seed=41 + window) for window in range(4)]
    service = QueryService(
        lambda window: catalogs[window % len(catalogs)],
        OptimizerConfig(max_pace=6),
    )
    next_qid = 0
    live = []
    outcomes = []
    shrink = windows - LEDGER_RING - 1
    for window in range(windows):
        if window == shrink:
            while len(live) > 1:
                service.deregister(live.pop(0))
        elif window % 7 == 0 and window < shrink:
            if len(live) == len(BUILDERS):
                service.deregister(live.pop(0))
            build, tenant = BUILDERS[next_qid % len(BUILDERS)]
            service.register(
                build(service.basis_catalog, next_qid), tenant, 50.0)
            live.append(next_qid)
            next_qid += 1
        outcomes.append(service.run_window())
    return service, outcomes


def _report(outcomes):
    return {"windows": [outcome.to_dict() for outcome in outcomes],
            "admission": []}


def _unbounded(monkeypatch):
    """The same run with rings too long to ever evict: the shadow."""
    with monkeypatch.context() as patch:
        patch.setattr(attribution, "LEDGER_RING", 10 ** 9)
        patch.setattr(slack, "LEDGER_RING", 10 ** 9)
        return _run_churned_service()


def test_a_ring_bounded_service_reports_what_an_unbounded_one_does(
        monkeypatch):
    service, outcomes = _run_churned_service()
    shadow, shadow_outcomes = _unbounded(monkeypatch)

    for ledger, unbounded in ((service.attribution, shadow.attribution),
                              (service.slack, shadow.slack)):
        assert len(ledger.windows) == LEDGER_RING
        assert len(unbounded.windows) == WINDOWS
        assert len(ledger) == len(unbounded) == WINDOWS
        # the ring is the unbounded history's tail, entry for entry
        assert list(ledger.windows) == list(unbounded.windows)[-LEDGER_RING:]

    ring, full = service.attribution, shadow.attribution
    assert ring.query_totals == full.query_totals
    assert ring.tenant_totals == full.tenant_totals
    assert ring.to_dict() == full.to_dict()
    assert ring.to_dict()["windows"] == WINDOWS
    assert ring.check_conservation() == full.check_conservation() == []
    assert ring.check_running_totals() == []
    # a slot vacated before the ring's oldest window is still billed
    gone = set(ring.evicted_totals) - {
        qid for _, shares in ring.windows for qid in shares}
    assert gone and all(ring.query_totals[qid] for qid in gone)

    report = _report(outcomes)
    assert report == _report(shadow_outcomes)
    assert summarize_reports([report]) == summarize_reports(
        [_report(shadow_outcomes)])


def _record(ledger, window):
    # the work and the set served move with the window, so the evicted
    # prefix and the ring disagree on what a window's shares look like
    return ledger.record_window(
        window,
        {4: 100 + window, 5: 10 + window % 3},
        beneficiaries={4: (0, 1 + window % 2), 5: (1,)}.get,
        weight_of=lambda sid, qid: 1.0 + qid,
        tenant_of=str,
    )


def _full_ledger():
    ledger = AttributionLedger()
    for window in range(WINDOWS):
        _record(ledger, window)
    assert len(ledger.windows) == LEDGER_RING
    assert len(ledger) == ledger.to_dict()["windows"] == WINDOWS
    assert ledger.windows[0][0] == WINDOWS - LEDGER_RING
    assert ledger.window_shares()[0] == WINDOWS - 1
    assert ledger.check_conservation() == []
    return ledger


def test_the_replay_catches_an_edited_ring_entry():
    ledger = _full_ledger()
    ledger.windows[0][1][0] += 1
    assert ledger.check_running_totals() == []
    assert any("query 0" in f for f in ledger.check_conservation())
    assert ledger.to_dict()["conserved"] is False


def test_the_replay_catches_an_edited_carried_prefix():
    ledger = _full_ledger()
    ledger.evicted_totals[2] -= 1
    assert any("query 2" in f for f in ledger.check_conservation())
    assert ledger.to_dict()["conserved"] is False


def test_an_edit_the_ring_later_evicts_stays_caught():
    ledger = _full_ledger()
    ledger.windows[0][1][1] += 1
    for window in range(WINDOWS, WINDOWS + LEDGER_RING):
        _record(ledger, window)
    assert any("query 1" in f for f in ledger.check_conservation())
