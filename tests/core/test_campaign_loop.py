"""The one campaign loop: options reach every unit, faults derive per
unit on every path, and a stalled unit gets a typed verdict."""

import time

import pytest

from repro import Session
from repro.campaign import (
    CampaignService,
    CampaignServiceConfig,
    conservation,
    read_events,
    read_ledger,
)
from repro.core import campaign as campaign_mod
from repro.core import run_campaign
from repro.core.campaign import ZoneVerdict
from repro.core.options import VerifyOptions
from repro.core.pipeline import VerificationResult
from repro.parallel import pool
from repro.resilience import verdicts
from repro.resilience.checkpoint import load

#: Tiny zones keep each unit around a second.
TINY = dict(num_hosts=2, num_wildcards=1, num_delegations=0,
            num_cnames=1, num_mx=0)


@pytest.fixture
def spies(monkeypatch):
    """Record what every unit hands the prover and the smoke test; the
    prover spy answers VERIFIED at once."""
    seen = {"verify": [], "smoke": 0}

    def verify(zone, version, options=None, *, cache=None):
        seen["verify"].append(options)
        return VerificationResult(version, zone.origin.to_text(), True)

    def smoke(*args, **kwargs):
        seen["smoke"] += 1
        raise AssertionError("smoke_first=False must skip the smoke test")

    monkeypatch.setattr(campaign_mod, "verify_engine", verify)
    monkeypatch.setattr(campaign_mod, "differential_test", smoke)
    return seen


def _stall_unit(monkeypatch, stalled_index):
    """Every unit answers VERIFIED at once except ``stalled_index``, which
    wedges; the pool's grace window shrinks to two seconds. Pool workers
    are forked, so they inherit both patches."""
    monkeypatch.setenv("REPRO_MP_START", "fork")
    monkeypatch.setattr(pool, "grace_seconds", lambda options: 2.0)

    def run_unit(index, zone, version, options, cache=None, base_zone=None):
        if index == stalled_index:
            time.sleep(120)
        verdict = ZoneVerdict(index, zone.origin.to_text(), len(zone), True,
                              (), 0.0, 0, 0)
        return verdict, None, None

    monkeypatch.setattr(campaign_mod, "run_unit", run_unit)


class TestOptionsReachEveryUnit:
    @pytest.mark.parametrize("workers", [None, 1])
    def test_unit_sees_the_session_options(self, spies, workers):
        session = Session(analysis=False, smoke_first=False, depth=3)
        report = session.campaign(2, "verified", seed=11, workers=workers,
                                  **TINY)
        assert report.zones_verified == 2
        assert len(spies["verify"]) == 2
        for options in spies["verify"]:
            assert options.analysis is False
            assert options.smoke_first is False
            assert options.depth == 3
            assert options.workers is None  # a unit verifies in-process
        assert spies["smoke"] == 0

    def test_service_generated_units_honour_analysis_off(self, tmp_path,
                                                         spies):
        config = CampaignServiceConfig(
            corpus_dir=str(tmp_path / "corpus"), seed=7,
            versions=("verified",), units=2, batch_tasks=1,
            weights=(1.0, 0.0, 0.0))
        options = VerifyOptions(analysis=False, smoke_first=False)
        report = CampaignService(config, options=options).run()
        assert report.kinds["generated"] == 2
        assert len(spies["verify"]) == 2
        assert all(o.analysis is False for o in spies["verify"])


class TestFaultsPerUnitOnEveryPath:
    def test_faulted_campaign_is_the_same_for_any_workers(self):
        spec = "seed:7:0.5"
        reports = []
        for workers in (None, 1, 2):
            reports.append(run_campaign("verified", num_zones=2, seed=11,
                                        workers=workers, faults=spec, **TINY))
            reports.append(Session(workers=workers, faults=spec).campaign(
                2, "verified", seed=11, **TINY))
        canonical = {report.canonical_json() for report in reports}
        assert len(canonical) == 1
        # The faults fired: at least one unit did not verify.
        assert any(v.verdict != verdicts.VERIFIED
                   for v in reports[0].verdicts)


class TestStalledUnit:
    def test_stalled_campaign_unit_is_typed_and_checkpointed(
            self, tmp_path, monkeypatch):
        _stall_unit(monkeypatch, stalled_index=1)
        ckpt = tmp_path / "stall.jsonl"
        started = time.monotonic()
        report = run_campaign("verified", num_zones=2, seed=11, workers=2,
                              budget_seconds=5.0, checkpoint=str(ckpt),
                              **TINY)
        assert time.monotonic() - started < 60
        stalled = report.verdicts[1]
        assert stalled.verdict == verdicts.UNKNOWN
        assert stalled.unknown_reason == verdicts.REASON_DEADLINE
        assert report.verdicts[0].verdict == verdicts.VERIFIED
        assert report.perf["units_timed_out"] == 1
        _header, units, _corrupt = load(ckpt)
        assert sorted(
            (record["zone_index"], record["verdict"])
            for record in units.values()
        ) == [(0, verdicts.VERIFIED), (1, verdicts.UNKNOWN)]

    def test_stalled_service_unit_drains_conserved(self, tmp_path,
                                                   monkeypatch):
        _stall_unit(monkeypatch, stalled_index=1)
        config = CampaignServiceConfig(
            corpus_dir=str(tmp_path / "corpus"), seed=7,
            versions=("verified", "v2.0"), units=2, batch_tasks=1)
        service = CampaignService(
            config, options=VerifyOptions(budget_seconds=5.0, workers=2))
        report = service.run()
        assert report.reason == "units"
        assert report.units_completed == 2
        totals = conservation(read_events(service.events_path))
        assert totals["scheduled"] == (
            totals["completed"] + totals["requeued"])
        assert totals["in_flight"] == 0
        rows = {row["uid"]: row for row in read_ledger(service.ledger_path)}
        assert rows[1]["verdict"] == verdicts.UNKNOWN
        assert rows[1]["unknown_reason"] == verdicts.REASON_DEADLINE
        assert rows[0]["verdict"] == verdicts.VERIFIED
