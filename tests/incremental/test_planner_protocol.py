"""Planner-protocol conformance: every QueryPlanner must satisfy these.

The contract under test (see ``repro.incremental.planner.protocol``):

- ``plan`` is deterministic and its unit ids are unique;
- ``unit_of_name`` is total over concrete names and maps every name into
  a planned unit (coverage: the plan partitions the query space);
- ``affected`` returns at least every unit whose digest changed under a
  delta (no stale cached verdict can survive);
- ``unit_digest`` is stable on unchanged zones and sensitive to content;
- the equivalence-class planner is the only one production paths use:
  ``make_planner(None)`` and ``IncrementalVerifier`` default to it, and
  neither ``VerifyOptions`` nor the CLI can select another.
"""

import dataclasses
import random

import pytest

from repro.core.encoding import QueryEncoding
from repro.core.options import VerifyOptions
from repro.dns.name import DnsName
from repro.engine.encoding import ZoneEncoder
from repro.incremental.delta import Partition, diff_zones, random_delta
from repro.incremental.planner.by_label import ByLabelPlanner
from repro.incremental.planner.ec import ECPlanner
from repro.incremental.planner.protocol import (
    BY_LABEL,
    EQUIVALENCE_CLASS,
    PlanUnit,
    QueryPlanner,
    make_planner,
    unit_preconditions,
)
from repro.zonegen import generate_zone

PLANNER_FACTORIES = [ByLabelPlanner, ECPlanner]


def _zone(seed=3):
    return generate_zone(seed=seed)


def _digest(planner, zone, unit):
    """Effective unit digest: the eager one when the planner computes it
    at plan time (EC), else the protocol's on-demand ``unit_digest``
    (by-label, whose engine keys on partition-closure digests)."""
    return unit.digest or planner.unit_digest(zone, unit)


# ---------------------------------------------------------------------------
# plan()


@pytest.mark.parametrize("factory", PLANNER_FACTORIES)
def test_plan_is_deterministic(factory):
    zone = _zone()
    first = factory().plan(zone)
    second = factory().plan(zone)
    assert [(u.id, u.digest, u.members) for u in first] == [
        (u.id, u.digest, u.members) for u in second
    ]
    assert len({u.id for u in first}) == len(first)


@pytest.mark.parametrize("factory", PLANNER_FACTORIES)
def test_plan_units_carry_digests(factory):
    planner = factory()
    zone = _zone()
    for unit in planner.plan(zone):
        assert _digest(planner, zone, unit), unit.id
        if unit.digest:
            assert planner.unit_digest(zone, unit) == unit.digest


# ---------------------------------------------------------------------------
# unit_of_name() coverage


@pytest.mark.parametrize("factory", PLANNER_FACTORIES)
def test_every_name_maps_into_the_plan(factory):
    planner = factory()
    zone = _zone()
    ids = {u.id for u in planner.plan(zone)}
    probes = [rec.rname for rec in zone.records]
    probes += [
        zone.origin,
        DnsName(("nope",)).concat(zone.origin),       # miss
        DnsName(("*",)).concat(zone.origin),          # literal star
        DnsName.from_text("www.elsewhere.org."),      # out of bailiwick
    ]
    for name in probes:
        unit_id = planner.unit_of_name(zone, name)
        assert unit_id in ids, name.to_text()


def test_planners_agree_on_membership_semantics():
    """Both planners put a name in a unit covering the same query space
    kind: apex->apex, outside->outside, missing->miss/gap, sub->sub."""
    zone = _zone()
    by_label = ByLabelPlanner()
    ec = ECPlanner()
    cases = [
        (zone.origin, "apex", "ec:apex"),
        (DnsName.from_text("www.elsewhere.org."), "outside", "ec:outside"),
        (DnsName(("nope",)).concat(zone.origin), "miss", "ec:miss"),
    ]
    for name, bl_expected, ec_expected in cases:
        assert by_label.unit_of_name(zone, name) == bl_expected
        assert ec.unit_of_name(zone, name) == ec_expected


# ---------------------------------------------------------------------------
# affected() ⊇ digest changes


@pytest.mark.parametrize("factory", PLANNER_FACTORIES)
def test_affected_covers_every_digest_change(factory):
    rng = random.Random(7)
    zone = _zone()
    for _ in range(6):
        planner = factory()
        before = {
            u.id: _digest(planner, zone, u) for u in planner.plan(zone)
        }
        delta = random_delta(zone, rng, ops=2)
        if not delta.changes:
            continue
        new_zone = delta.apply(zone)
        affected = set(planner.affected(delta))
        fresh = factory()
        after = {
            u.id: _digest(fresh, new_zone, u) for u in fresh.plan(new_zone)
        }
        changed = {
            uid for uid in set(before) | set(after)
            if before.get(uid) != after.get(uid)
        }
        assert changed <= affected, (changed - affected, affected)
        zone = new_zone


@pytest.mark.parametrize("factory", PLANNER_FACTORIES)
def test_digest_stable_without_changes_and_sensitive_with(factory):
    zone = _zone()
    planner = factory()
    digests = {
        u.id: _digest(planner, zone, u) for u in planner.plan(zone)
    }
    # Stability: a rebuilt planner over an equal zone yields equal digests.
    rebuilt = factory()
    assert digests == {
        u.id: _digest(rebuilt, zone, u) for u in rebuilt.plan(zone)
    }
    # Sensitivity: mutate one subtree; some covering digest changes.
    rng = random.Random(11)
    delta = random_delta(zone, rng, ops=1)
    while not delta.changes:
        delta = random_delta(zone, rng, ops=1)
    new_zone = delta.apply(zone)
    fresh = factory()
    assert digests != {
        u.id: _digest(fresh, new_zone, u) for u in fresh.plan(new_zone)
    }


# ---------------------------------------------------------------------------
# label-graph delta semantics


def test_label_graph_payload_churn_keeps_environments():
    """Payload-only deltas dirty consumers (their observable content
    changed) but must not rewire anyone's environment — chase edges
    depend on rdata-embedded names, not payload bytes."""
    from repro.dns.rdata import ARdata
    from repro.dns.records import ResourceRecord
    from repro.dns.rtypes import RRType
    from repro.incremental.delta import RecordChange, ZoneDelta
    from repro.incremental.planner.label_graph import LabelGraph

    zone = _zone(seed=3)  # gen3: env(a)={eu,web}, env(eu)={web}
    graph = LabelGraph.build(zone)
    envs_before = {t: graph.env_of(t) for t in graph.tops}
    # us.web A payload churn: web is consumed (transitively) by a and eu.
    rec = next(r for r in zone.records
               if r.rtype is RRType.A and r.rname.labels[1:2] == ("web",))
    delta = ZoneDelta(zone.origin, (
        RecordChange("delete", rec),
        RecordChange("add", ResourceRecord(
            rec.rname, rec.rtype, ARdata("203.0.113.9"), rec.ttl)),
    ))
    dirty, apex_changed = graph.advance(delta)
    assert not apex_changed
    assert dirty == {"web", "a", "eu"}
    assert {t: graph.env_of(t) for t in graph.tops} == envs_before


def test_label_graph_retarget_rewires_environment():
    """A CNAME retarget is a structural edge change: the owning top's
    environment must follow the new target."""
    from repro.dns.rtypes import RRType
    from repro.incremental.delta import RecordChange, ZoneDelta
    from repro.incremental.planner.label_graph import LabelGraph
    from repro.dns.rdata import CNAMERdata
    from repro.dns.records import ResourceRecord

    zone = _zone(seed=3)
    graph = LabelGraph.build(zone)
    assert graph.env_of("a") == frozenset({"eu", "web"})
    rec = next(r for r in zone.records if r.rtype is RRType.CNAME)
    retargeted = ResourceRecord(
        rec.rname, rec.rtype,
        CNAMERdata(DnsName(("mail",)).concat(zone.origin)), rec.ttl)
    delta = ZoneDelta(zone.origin, (
        RecordChange("delete", rec),
        RecordChange("add", retargeted),
    ))
    dirty, _ = graph.advance(delta)
    assert "a" in dirty
    assert graph.env_of("a") == frozenset({"mail"})


# ---------------------------------------------------------------------------
# unit_preconditions


def test_unit_preconditions_full_is_unrestricted():
    assert unit_preconditions("full", None, encoding=None) == []


def test_unit_preconditions_partition_keys_match_partition():
    zone = _zone()
    encoding = QueryEncoding(ZoneEncoder(zone))
    for key in ("apex", "miss", "outside", "sub:mail"):
        ours = unit_preconditions(key, None, encoding)
        legacy = Partition(key).preconditions(encoding)
        assert [repr(c) for c in ours] == [repr(c) for c in legacy]


def test_unit_preconditions_gap_requires_code():
    zone = _zone()
    encoding = QueryEncoding(ZoneEncoder(zone))
    with pytest.raises(ValueError):
        unit_preconditions("gap", None, encoding)
    pinned = unit_preconditions("gap", 3 * 65536 + 32768, encoding)
    star = unit_preconditions("star", None, encoding)
    assert pinned and star
    # Both confine the first below-apex label to one concrete code.
    assert len(pinned) == len(star)


# ---------------------------------------------------------------------------
# factory and defaults


def test_make_planner_resolution():
    assert isinstance(make_planner(None), ECPlanner)
    assert isinstance(make_planner(BY_LABEL), ByLabelPlanner)
    assert isinstance(make_planner(EQUIVALENCE_CLASS), ECPlanner)
    instance = ECPlanner()
    assert make_planner(instance) is instance
    with pytest.raises(ValueError):
        make_planner("quantum")


def test_incremental_verifier_defaults_to_equivalence_class():
    from repro.incremental.engine import IncrementalVerifier

    zone = _zone()
    assert isinstance(IncrementalVerifier(zone).planner, ECPlanner)
    oracle = IncrementalVerifier(zone, planner=BY_LABEL)
    assert isinstance(oracle.planner, ByLabelPlanner)


def test_cli_has_no_planner_flag():
    from repro.cli import build_parser

    assert "planner" not in {f.name for f in dataclasses.fields(VerifyOptions)}
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["verify", "--zone", "minimal", "--planner", "equivalence-class"]
        )


def test_plan_unit_is_frozen_and_describable():
    unit = PlanUnit(id="x", kind="partition", part_key="apex", members=("apex",))
    assert "apex" in unit.describe()
    with pytest.raises(Exception):
        unit.id = "y"
    assert isinstance(ByLabelPlanner(), QueryPlanner)
    assert isinstance(ECPlanner(), QueryPlanner)
