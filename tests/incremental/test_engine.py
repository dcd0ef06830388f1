"""IncrementalVerifier behaviour: reuse accounting, persistence, the
acceptance speedup bar, and session-level summary/refinement caching."""

import pytest

from repro.core.pipeline import VerificationSession, verify_engine
from repro.dns.rdata import ARdata
from repro.dns.records import ResourceRecord
from repro.dns.rtypes import RRType
from repro.dns.zonefile import parse_zone_text
from repro.incremental.cache import SummaryCache
from repro.incremental.delta import RecordChange, ZoneDelta
from repro.incremental.engine import IncrementalVerifier

ZONE_TEXT = """\
$ORIGIN shop.example.
@ IN SOA ns1.shop.example. hostmaster.shop.example. 7 3600 600 86400 300
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.80
www IN TXT "storefront"
*.tenants IN A 192.0.2.90
"""


@pytest.fixture()
def zone():
    return parse_zone_text(ZONE_TEXT)


def www_rdata_update(zone, address="192.0.2.99"):
    """A single-record rdata update under ``www`` (universe-preserving)."""
    rec = next(
        r for r in zone.records
        if r.rtype is RRType.A and r.rname.labels[0] == "www"
    )
    return ZoneDelta(
        zone.origin,
        (
            RecordChange("delete", rec),
            RecordChange("add", ResourceRecord(rec.rname, rec.rtype, ARdata(address), rec.ttl)),
        ),
    )


class TestAcceptanceSpeedup:
    def test_single_record_delta_is_5x_cheaper(self, zone):
        """Acceptance bar of the by-label oracle: ≥5× fewer solver checks
        than a from-scratch session after a single-record delta on the
        pinned shop.example. zone."""
        verifier = IncrementalVerifier(zone, "verified", planner="by-label")
        verifier.verify_current()
        outcome = verifier.apply(www_rdata_update(zone))
        scratch = VerificationSession(verifier.zone, "verified").verify()
        assert scratch.solver_checks >= 5 * outcome.result.solver_checks
        assert outcome.reuse.partitions_recomputed == 1
        assert outcome.reuse.recomputed_keys == ("sub:www",)


class TestReuseAccounting:
    def test_cold_run_recomputes_everything(self, zone):
        outcome = IncrementalVerifier(
            zone, "verified", planner="by-label"
        ).verify_current()
        reuse = outcome.reuse
        assert reuse.partitions_reused == 0
        assert reuse.partitions_total == reuse.partitions_recomputed == 6
        assert reuse.fresh_checks == outcome.result.solver_checks > 0
        assert reuse.reused_checks == 0

    def test_identical_rerun_replays_everything(self, zone):
        verifier = IncrementalVerifier(zone, "verified")
        first = verifier.verify_current()
        second = verifier.verify_current()
        assert second.reuse.partitions_reused == second.reuse.partitions_total
        assert second.result.solver_checks == 0
        assert second.reuse.reused_checks == first.result.solver_checks
        assert second.result.verified == first.result.verified

    def test_delta_reuse_statistics(self, zone):
        verifier = IncrementalVerifier(zone, "verified", planner="by-label")
        verifier.verify_current()
        outcome = verifier.apply(www_rdata_update(zone))
        assert outcome.reuse.records_changed == 2  # delete + add
        assert set(outcome.reuse.reused_keys) == {
            "apex", "outside", "miss", "sub:ns1", "sub:tenants",
        }
        assert outcome.result.cache_stats is None  # merged result, engine stats live in reuse
        assert outcome.reuse.cache["hits"] > 0

    def test_persistent_cache_survives_processes(self, zone, tmp_path):
        cache = SummaryCache(cache_dir=tmp_path)
        IncrementalVerifier(zone, "verified", cache=cache).verify_current()
        fresh_cache = SummaryCache(cache_dir=tmp_path)
        outcome = IncrementalVerifier(zone, "verified", cache=fresh_cache).verify_current()
        assert outcome.reuse.partitions_reused == outcome.reuse.partitions_total
        assert outcome.result.solver_checks == 0

    def test_buggy_version_replays_bug_reports(self, zone):
        verifier = IncrementalVerifier(zone, "v1.0")
        first = verifier.verify_current()
        assert first.result.bugs
        second = verifier.verify_current()
        assert second.result.solver_checks == 0
        assert [b.description for b in second.result.bugs] == [
            b.description for b in first.result.bugs
        ]


class TestSessionCache:
    def test_summary_and_refinement_cache_hit(self, zone, tmp_path):
        cache = SummaryCache(cache_dir=tmp_path)
        first = VerificationSession(zone, "verified", cache=cache).verify()
        assert first.cache_stats is not None
        second = VerificationSession(zone, "verified", cache=SummaryCache(cache_dir=tmp_path)).verify()
        assert second.solver_checks == 0
        assert [l.route for l in second.layers] == ["cache"]
        assert second.verified == first.verified

    def test_summary_cache_alone(self, zone, tmp_path):
        """Evicting the refinement entry still leaves summary reuse."""
        cache = SummaryCache(cache_dir=tmp_path)
        VerificationSession(zone, "verified", cache=cache).verify()
        for path in (tmp_path / "refinement").glob("*.json"):
            path.unlink()
        result = VerificationSession(
            zone, "verified", cache=SummaryCache(cache_dir=tmp_path)
        ).verify()
        routes = {l.name: l.route for l in result.layers}
        assert routes["TreeSearch"] == "cache"
        assert routes["Find"] == "cache"
        assert routes["Resolve"] == "toplevel"
        assert result.verified

    def test_restrict_narrows_the_proof(self, zone):
        from repro.incremental.delta import Partition

        session = VerificationSession(zone, "verified")
        session.restrict(Partition("sub:www").preconditions(session.query_encoding))
        restricted = session.verify()
        full = verify_engine(zone, "verified")
        assert restricted.verified
        assert 0 < restricted.solver_checks < full.solver_checks
