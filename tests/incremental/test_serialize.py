"""JSON round-trips for summaries, refinement reports and bug reports."""

import pytest

from repro.core.layers import resolution_layers
from repro.core.pipeline import BugReport, VerificationSession, verify_engine
from repro.dns.zonefile import parse_zone_text
from repro.incremental.serialize import (
    SerializationError,
    bug_from_json,
    bug_to_json,
    report_from_json,
    report_to_json,
    result_from_json,
    result_to_json,
    summary_from_json,
    summary_to_json,
    term_from_json,
    term_to_json,
    value_from_json,
    value_to_json,
)
from repro.solver.terms import (
    and_,
    bfalse,
    btrue,
    bvar,
    eq,
    ge,
    iadd,
    iconst,
    imul,
    isub,
    ivar,
    le,
    ne,
    or_,
)
from repro.summary.effects import NewTag
from repro.symex.values import UNINIT, Pointer

ZONE_TEXT = """\
$ORIGIN shop.example.
@ IN SOA ns1.shop.example. hostmaster.shop.example. 7 3600 600 86400 300
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.80
*.tenants IN A 192.0.2.90
"""


@pytest.fixture(scope="module")
def zone():
    return parse_zone_text(ZONE_TEXT)


class TestTerms:
    @pytest.mark.parametrize(
        "term",
        [
            btrue(),
            bfalse(),
            bvar("flag"),
            eq(ivar("x"), 5),
            ne(ivar("x"), ivar("y")),
            le(ivar("nameLen"), 7),
            and_(ge(ivar("n0"), 1), or_(eq(ivar("qtype"), 1), eq(ivar("qtype"), 28))),
            isub(iadd(ivar("x"), imul(3, ivar("y"))), 7),
            iconst(42),
        ],
    )
    def test_roundtrip(self, term):
        assert term_from_json(term_to_json(term)) == term

    def test_unknown_rejected(self):
        with pytest.raises(SerializationError):
            term_to_json(object())
        with pytest.raises(SerializationError):
            term_from_json({"t": "mystery"})


class TestValues:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            UNINIT,
            True,
            0,
            17,
            "label",
            NewTag(3),
            Pointer(12, (0, 4)),
            Pointer(None),
            (1, NewTag(0), Pointer(2, (1,))),
            ivar("x"),
            bvar("b"),
        ],
    )
    def test_roundtrip(self, value):
        restored = value_from_json(value_to_json(value))
        assert restored == value
        assert type(restored) is type(value) or value is UNINIT

    def test_symbolic_pointer_path_rejected(self):
        with pytest.raises(SerializationError):
            value_to_json(Pointer(1, (ivar("i"),)))


class TestSummaryRoundtrip:
    def test_layer_summaries_roundtrip_and_verify(self, zone):
        """Reloaded summaries drive verification to the same verdict as a
        session that summarized them itself."""
        baseline = VerificationSession(zone, "v1.0").verify()

        donor = VerificationSession(zone, "v1.0")
        payloads = []
        for layer in resolution_layers():
            summary = donor.summarize_layer(layer)
            payloads.append(summary_to_json(summary))

        session = VerificationSession(zone, "v1.0")
        for layer, payload in zip(resolution_layers(), payloads):
            summary = summary_from_json(payload, layer.params(session))
            assert summary.name == layer.function
            assert len(summary.cases) > 0
            session.executor.bindings.bind_summary(layer.function, summary)
        result = session.verify(use_summaries=False)  # layers already bound

        assert result.verified == baseline.verified
        assert sorted(
            (b.categories, b.qname_codes, b.qtype_code) for b in result.bugs
        ) == sorted((b.categories, b.qname_codes, b.qtype_code) for b in baseline.bugs)


class TestReportRoundtrip:
    def test_refinement_report_trims_and_replays(self, zone):
        session = VerificationSession(zone, "v1.0")
        original = session.verify()
        report = original.refinement
        restored = report_from_json(report_to_json(report))
        assert restored.verified == report.verified
        assert restored.code_paths == report.code_paths
        assert len(restored.mismatches) == len(report.mismatches)
        for a, b in zip(restored.mismatches, report.mismatches):
            assert a.kind == b.kind
            assert a.observation == b.observation
            if b.model is None:
                assert a.model is None
            else:
                assert a.model.as_dict() == b.model.as_dict()
            assert a.code_outcome is None  # trimmed by design


class TestBugAndResult:
    def test_bug_roundtrip(self, zone):
        result = verify_engine(zone, "v1.0")
        assert result.bugs, "v1.0 must produce bugs on this zone"
        for bug in result.bugs:
            restored = bug_from_json(bug_to_json(bug))
            assert restored == bug

    def test_result_roundtrip(self, zone):
        result = verify_engine(zone, "v1.0")
        payload = result_to_json(result, cache_stats={"hits": 1, "misses": 2})
        assert payload["cache"] == {"hits": 1, "misses": 2}
        restored = result_from_json(payload)
        assert restored.verified == result.verified
        assert restored.solver_checks == result.solver_checks
        assert restored.bugs == result.bugs
        assert [layer.name for layer in restored.layers] == [
            layer.name for layer in result.layers
        ]
