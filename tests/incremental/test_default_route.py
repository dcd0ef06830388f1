"""The one verify route: equivalence-class planning on every default path.

- a label-adding delta — the shape of the commonest zone edit, one host
  added at a fresh label — recomputes at most one unit through the serve
  gate, where the by-label oracle recomputes every unit;
- the default route agrees with a directly built ``VerificationSession``
  (the monolithic oracle) on verdict and bug locations for every engine
  version, on seeded zones with an apex wildcard, a deep name and plain
  names;
- ``elapsed_seconds`` is the wall-clock of the ``verify_engine`` call,
  compile included, and the phases never sum past it, cold or warm.
"""

import time

import pytest

from repro.core.options import VerifyOptions
from repro.core.pipeline import VerificationSession, clear_ir_cache, verify_engine
from repro.dns.rdata import ARdata
from repro.dns.records import ResourceRecord
from repro.dns.rtypes import RRType
from repro.dns.zone import Zone
from repro.engine.control import ENGINE_VERSIONS
from repro.incremental.cache import SummaryCache
from repro.incremental.engine import IncrementalVerifier
from repro.incremental.planner import ECPlanner
from repro.incremental.planner.by_label import ByLabelPlanner
from repro.serve.gate import PublishGate
from repro.serve.snapshot import build_snapshot
from repro.zonegen import GeneratorConfig, ZoneGenerator, evaluation_zone

_oracle = ByLabelPlanner()


def with_host(zone, label):
    """``zone`` plus one A record at the fresh top label ``label``."""
    host = ResourceRecord(zone.origin.prepend(label), RRType.A,
                          ARdata("198.51.100.7"))
    return Zone(zone.origin, tuple(zone) + (host,))


def unit_layers(zone, planner=None):
    units = (planner or ECPlanner()).plan(zone)
    return [f"{unit.id}:{layer}" for unit in units
            for layer in ("TreeSearch", "Find", "Resolve")]


# -- a label-adding delta ------------------------------------------------------


def test_gate_publish_of_a_moved_host_recomputes_at_most_one_unit():
    base = evaluation_zone()
    before, after = with_host(base, "hostone"), with_host(base, "hosttwo")
    gate = PublishGate(build_snapshot(before, "verified"))
    assert isinstance(gate._verifier.planner, ECPlanner)
    assert gate.bootstrap().verdict == "VERIFIED"
    outcomes = []
    diff_to = gate._verifier.diff_to
    gate._verifier.diff_to = lambda zone: outcomes.append(diff_to(zone)) \
        or outcomes[-1]

    result = gate.submit(after)
    assert result.accepted and result.verdict == "VERIFIED"
    assert result.records_changed == 2
    reuse = outcomes[0].reuse
    assert reuse.partitions_total == len(ECPlanner().plan(after))
    assert reuse.partitions_recomputed <= 1
    assert reuse.partitions_reused >= reuse.partitions_total - 1


def test_by_label_oracle_recomputes_every_unit_on_the_same_delta():
    base = evaluation_zone()
    before, after = with_host(base, "hostone"), with_host(base, "hosttwo")
    verifier = IncrementalVerifier(before, "verified", planner="by-label")
    verifier.verify_current()
    reuse = verifier.adopt(after).reuse
    assert reuse.partitions_total == len(_oracle.plan(after))
    assert reuse.partitions_recomputed == reuse.partitions_total


# -- the default route against the monolithic session ------------------------


def _shape(zone):
    if any(record.rname.is_wildcard
           and record.rname.wildcard_parent() == zone.origin
           for record in zone):
        return "apex-wildcard"
    if zone.max_name_depth() - len(zone.origin) >= 3:
        return "deep"
    return "plain"


def _corpus(seed=7):
    """The first seeded zone of each shape (one host, names up to three
    labels below the apex)."""
    generator = ZoneGenerator(GeneratorConfig(seed=seed, num_hosts=1,
                                              max_depth=2))
    zones = {}
    index = 0
    while len(zones) < 3:
        zone = generator.generate(index)
        zones.setdefault(_shape(zone), zone)
        index += 1
    return [zones[shape] for shape in ("apex-wildcard", "deep", "plain")]


CORPUS = _corpus()


def location_tuples(result, zone):
    """What bug, where (by-label location; witnesses may differ)."""
    return sorted({
        (bug.version, tuple(sorted(bug.categories)), bug.validated,
         _oracle.unit_of_name(zone, bug.query.qname)
         if bug.query is not None else None)
        for bug in result.bugs
    })


@pytest.mark.parametrize("version", sorted(ENGINE_VERSIONS))
def test_default_route_matches_a_direct_session(version):
    for zone in CORPUS:
        routed = verify_engine(zone, version)
        direct = VerificationSession(zone, version).verify()
        assert [layer.name for layer in routed.layers] == unit_layers(zone)
        assert routed.verdict == direct.verdict, (version, zone.origin)
        assert location_tuples(routed, zone) == \
            location_tuples(direct, zone), (version, zone.origin)


# -- one timing model ----------------------------------------------------------


def test_elapsed_covers_the_call_and_its_phases_cold_and_warm():
    zone = evaluation_zone()
    cache = SummaryCache(memory_only=True)
    clear_ir_cache()
    runs = []
    for _ in ("cold", "warm"):
        started = time.perf_counter()
        result = verify_engine(zone, "verified", VerifyOptions(), cache=cache)
        runs.append((result, time.perf_counter() - started))
    (cold, cold_wall), (warm, warm_wall) = runs

    for result, wall in runs:
        assert result.verdict == "VERIFIED"
        assert set(result.phase_seconds) == {"compile", "summarize", "solve"}
        assert 0 < result.elapsed_seconds <= wall
        assert sum(result.phase_seconds.values()) <= result.elapsed_seconds
    # Cold: the compile ran inside the call and is counted in it.
    assert cold.phase_seconds["compile"] > 0
    assert cold.elapsed_seconds >= cold.phase_seconds["compile"] + \
        cold.phase_seconds["solve"]
    # Warm: every unit replays from the cache; nothing is recomputed.
    assert warm.solver_checks == 0
    assert all(layer.route == "cache" for layer in warm.layers)
    assert sum(warm.phase_seconds.values()) == 0
