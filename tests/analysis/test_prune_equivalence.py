"""The pruning soundness property: for every engine version, verification
with the panic-pruning pass on and off produces bit-identical canonical
reports — same verdict, same bugs, same layer coverage, same models. Only
solver-check counters (and the analysis telemetry itself) may differ,
because skipping a guard's feasibility queries is the entire point."""

import pytest

from repro.core.pipeline import VerificationSession
from repro.engine.control import ENGINE_VERSIONS
from repro.zonegen import minimal_zone


def canonical(result):
    """Everything deterministic about a verify except solver-check
    accounting and wall-clock timings."""
    return {
        "verdict": result.verdict,
        "verified": result.verified,
        "unknown_reason": result.unknown_reason,
        "spurious_mismatches": result.spurious_mismatches,
        "bugs": [
            (b.version, b.categories, b.qname_codes, b.qtype_code,
             b.description, b.validated)
            for b in result.bugs
        ],
        "layers": [
            (l.name, l.route, l.paths, l.cases, l.verified)
            for l in result.layers
        ],
    }


@pytest.mark.parametrize("version", sorted(ENGINE_VERSIONS))
def test_pruning_never_changes_the_verdict(version):
    zone = minimal_zone()
    off = VerificationSession(zone, version, analysis=False).verify()
    on = VerificationSession(zone, version, analysis=True).verify()
    assert canonical(on) == canonical(off)
    assert on.analysis["enabled"] and not off.analysis["enabled"]
    # The pass must actually do something on every version: guards are
    # pruned statically and the executor cashes them in at run time.
    assert on.analysis["guards_pruned"] > 0
    assert on.analysis["solver_checks_avoided"] > 0
    assert on.solver_checks < off.solver_checks


def test_discharge_ratio_meets_the_bar_on_verified():
    """Acceptance: >= 80% of panic-guard solver queries on the verified
    engine are discharged statically (interprocedural summaries plus the
    label-length relational domain; was 20% with the intraprocedural
    interval pass alone)."""
    zone = minimal_zone()
    off = VerificationSession(zone, "verified", analysis=False).verify()
    on = VerificationSession(zone, "verified", analysis=True).verify()
    baseline = off.analysis["panic_guard_checks"]
    remaining = on.analysis["panic_guard_checks"]
    assert baseline > 0
    discharge = (baseline - remaining) / baseline
    assert discharge >= 0.80, f"discharge ratio {discharge:.1%} below bar"
    assert on.verdict == off.verdict == "VERIFIED"


def test_debug_cross_check_agrees_with_the_proofs():
    """analysis_check mode re-asks the solver at each pruned site; on the
    verified engine every proof must survive the cross-examination."""
    zone = minimal_zone()
    result = VerificationSession(
        zone, "verified", analysis=True, analysis_check=True
    ).verify()
    assert result.verdict == "VERIFIED"
    assert result.analysis["pruned_guard_hits"] > 0


@pytest.mark.parametrize("planner", ["by-label", "equivalence-class"])
@pytest.mark.parametrize("version", ["verified", "v3.0"])
def test_pruning_is_bit_identical_under_both_planners(planner, version):
    """The analysis on/off equivalence must hold on every query-planning
    route — the planner changes how work is unitized, never what is
    proved. (v3.0 rides along as a buggy version: BUG reports must be
    bit-identical too.)"""
    from repro.core import VerifyOptions
    from repro.incremental.engine import IncrementalVerifier

    def verify(analysis):
        return IncrementalVerifier(
            zone, version, planner=planner,
            options=VerifyOptions(analysis=analysis),
        ).verify_current().result

    zone = minimal_zone()
    off = verify(False)
    on = verify(True)
    assert canonical(on) == canonical(off)
