"""Verification campaigns: the paper's continuous operating mode.

Section 6.5/9: each run of the overall verification proves the engine
correct and safe *for one concrete zone snapshot*; the production workflow
runs it over tens of thousands of randomly generated zone configurations
(plus the live ones) on every engine iteration. A :class:`Campaign` is that
loop: a stream of zones, one pipeline run per (zone, version), aggregated
into a coverage/verdict report.

For speed, each zone is first smoke-tested differentially (milliseconds);
zones the differential already refutes can optionally skip the heavier
proof — matching how the production pipeline triages, while keeping the
proof available per zone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.options import VerifyOptions
from repro.core.pipeline import VerificationResult, verify_engine
from repro.dns.zone import Zone
from repro.frontend.errors import GoPyError
from repro.resilience import verdicts as verdicts_mod
from repro.resilience.checkpoint import CheckpointWriter, unit_address
from repro.resilience.faults import InjectedFault
from repro.symex.errors import SymexError
from repro.testing import differential_test
from repro.zonegen import GeneratorConfig, ZoneGenerator


@dataclass
class ZoneVerdict:
    """Typed outcome for one (zone, version) unit.

    ``verdict`` is one of the :mod:`repro.resilience.verdicts` kinds; an
    ERROR unit (compile failure, injected fault, IO) records its taxonomy
    in ``error_class`` and the campaign *continues* — one broken unit
    never aborts the run.
    """

    zone_index: int
    zone_origin: str
    records: int
    verified: bool
    bug_categories: Tuple[str, ...]
    elapsed_seconds: float
    solver_checks: int
    differential_divergences: int
    verdict: str = verdicts_mod.VERIFIED
    unknown_reason: Optional[str] = None
    error_class: Optional[str] = None
    error_detail: str = ""

    def to_json(self) -> Dict:
        return {
            "zone_index": self.zone_index,
            "zone_origin": self.zone_origin,
            "records": self.records,
            "verified": self.verified,
            "bug_categories": list(self.bug_categories),
            "elapsed_seconds": self.elapsed_seconds,
            "solver_checks": self.solver_checks,
            "differential_divergences": self.differential_divergences,
            "verdict": self.verdict,
            "unknown_reason": self.unknown_reason,
            "error_class": self.error_class,
            "error_detail": self.error_detail,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "ZoneVerdict":
        return cls(
            zone_index=data["zone_index"],
            zone_origin=data["zone_origin"],
            records=data["records"],
            verified=data["verified"],
            bug_categories=tuple(data["bug_categories"]),
            elapsed_seconds=data["elapsed_seconds"],
            solver_checks=data["solver_checks"],
            differential_divergences=data["differential_divergences"],
            verdict=data.get("verdict", verdicts_mod.VERIFIED),
            unknown_reason=data.get("unknown_reason"),
            error_class=data.get("error_class"),
            error_detail=data.get("error_detail", ""),
        )


@dataclass
class CampaignReport:
    """Aggregate over all zones for one engine version."""

    version: str
    verdicts: List[ZoneVerdict] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Per-phase perf counters (parallel executor): timings, cache hit
    #: rate, units/sec. Timing-only — excluded from ``canonical_json``.
    perf: Optional[Dict] = None

    @property
    def zones_run(self) -> int:
        return len(self.verdicts)

    @property
    def zones_verified(self) -> int:
        return sum(1 for v in self.verdicts if v.verified)

    @property
    def zones_refuted(self) -> int:
        return self.zones_run - self.zones_verified

    @property
    def zones_unknown(self) -> int:
        return sum(1 for v in self.verdicts if v.verdict == verdicts_mod.UNKNOWN)

    @property
    def zones_errored(self) -> int:
        return sum(1 for v in self.verdicts if v.verdict == verdicts_mod.ERROR)

    def canonical_json(self) -> str:
        """The deterministic identity of this report: everything except
        wall-clock timings. An interrupted-and-resumed campaign must be
        bit-identical to an uninterrupted one under this projection."""
        units = []
        for verdict in self.verdicts:
            unit = verdict.to_json()
            del unit["elapsed_seconds"]
            units.append(unit)
        return json.dumps(
            {"version": self.version, "verdicts": units},
            sort_keys=True,
            separators=(",", ":"),
        )

    def to_json(self) -> Dict:
        """Machine-readable report (the campaign ``--json`` contract):
        the canonical identity fields plus timings and perf counters."""
        return {
            "version": self.version,
            "zones_run": self.zones_run,
            "zones_verified": self.zones_verified,
            "zones_refuted": self.zones_refuted,
            "zones_unknown": self.zones_unknown,
            "zones_errored": self.zones_errored,
            "elapsed_seconds": self.elapsed_seconds,
            "verdicts": [verdict.to_json() for verdict in self.verdicts],
            "category_histogram": self.category_histogram(),
            "perf": None if self.perf is None else dict(self.perf),
        }

    def category_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for verdict in self.verdicts:
            for category in verdict.bug_categories:
                histogram[category] = histogram.get(category, 0) + 1
        return histogram

    def describe(self) -> str:
        lines = [
            f"campaign {self.version}: {self.zones_verified}/{self.zones_run} zones "
            f"verified ({self.elapsed_seconds:.1f}s total)"
        ]
        if self.zones_unknown:
            lines.append(f"  {self.zones_unknown} zone(s) UNKNOWN (budget/solver)")
        for verdict in self.verdicts:
            if verdict.verdict == verdicts_mod.ERROR:
                lines.append(
                    f"  zone #{verdict.zone_index} ERROR "
                    f"({verdict.error_class}): {verdict.error_detail}"
                )
        histogram = self.category_histogram()
        for category in sorted(histogram):
            lines.append(f"  {category}: on {histogram[category]} zone(s)")
        slowest = max(self.verdicts, key=lambda v: v.elapsed_seconds, default=None)
        if slowest is not None:
            lines.append(
                f"  slowest zone: #{slowest.zone_index} ({slowest.records} rrs, "
                f"{slowest.elapsed_seconds:.1f}s, {slowest.solver_checks} checks)"
            )
        return "\n".join(lines)


#: Exceptions a unit may die of without aborting the campaign; the plain
#: RuntimeError of the unsoundness cross-check deliberately is NOT among
#: them.
UNIT_ERRORS = (GoPyError, SymexError, InjectedFault, OSError)


def run_unit(
    index: int,
    zone: Zone,
    version: str,
    smoke_first: bool = True,
    cache=None,
    budget_seconds: Optional[float] = None,
    budget_fuel: Optional[int] = None,
) -> Tuple[ZoneVerdict, Optional[VerificationResult]]:
    """Verify one (zone, version) campaign unit.

    This is THE unit of work — the sequential :class:`Campaign` loop and
    the :mod:`repro.parallel` pool workers both call it, which is what
    makes a parallel campaign's verdicts bit-identical to a sequential
    one's. Returns the typed verdict plus the underlying
    :class:`VerificationResult` (None when the unit died of a typed
    error) so callers can harvest perf/phase statistics.
    """
    options = VerifyOptions(budget_seconds=budget_seconds, fuel=budget_fuel)
    started = time.perf_counter()
    divergences = 0
    try:
        if smoke_first:
            smoke = differential_test(zone, version, check_reference=False)
            divergences = len(smoke.divergences)
        result = verify_engine(zone, version, options, cache=cache)
    except UNIT_ERRORS as exc:
        error_class, detail = verdicts_mod.classify_error(exc)
        return (
            ZoneVerdict(
                zone_index=index,
                zone_origin=zone.origin.to_text(),
                records=len(zone),
                verified=False,
                bug_categories=(),
                elapsed_seconds=time.perf_counter() - started,
                solver_checks=0,
                differential_divergences=divergences,
                verdict=verdicts_mod.ERROR,
                error_class=error_class,
                error_detail=detail,
            ),
            None,
        )
    if (
        divergences
        and result.verified
        and result.verdict == verdicts_mod.VERIFIED
    ):
        raise RuntimeError(
            f"unsound: differential refuted zone {index} but the "
            f"proof passed ({version})"
        )
    return (
        ZoneVerdict(
            zone_index=index,
            zone_origin=zone.origin.to_text(),
            records=len(zone),
            verified=result.verified,
            bug_categories=tuple(result.bug_categories()),
            elapsed_seconds=result.elapsed_seconds,
            solver_checks=result.solver_checks,
            differential_divergences=divergences,
            verdict=result.verdict,
            unknown_reason=result.unknown_reason,
            error_class=result.error_class,
            error_detail=result.error_detail,
        ),
        result,
    )


class Campaign:
    """Run the pipeline over a stream of zones."""

    def __init__(
        self,
        zones: Optional[Iterable[Zone]] = None,
        generator_config: Optional[GeneratorConfig] = None,
        num_zones: int = 10,
    ):
        if zones is not None:
            self._zones = list(zones)
        else:
            config = generator_config or GeneratorConfig(
                num_hosts=4, num_wildcards=1, num_delegations=1,
                num_cnames=1, num_mx=1,
            )
            self._zones = list(ZoneGenerator(config).stream(num_zones))

    @property
    def zones(self) -> List[Zone]:
        return list(self._zones)

    #: Kept as an alias for backward compatibility (see module-level
    #: :data:`UNIT_ERRORS`).
    _UNIT_ERRORS = UNIT_ERRORS

    def run(
        self,
        version: str,
        smoke_first: bool = True,
        max_zone_seconds: Optional[float] = None,
        cache=None,
        budget_seconds: Optional[float] = None,
        budget_fuel: Optional[int] = None,
        checkpoint=None,
        resume: bool = False,
    ) -> CampaignReport:
        """Verify ``version`` on every zone; returns the aggregate report.

        With ``smoke_first`` the differential tester runs before each
        proof (its divergence count is recorded either way — a sanity
        cross-check: the prover must refute every zone the tester does).
        ``cache`` (a :class:`repro.incremental.cache.SummaryCache`) is
        shared across every zone of the campaign, so repeated or related
        snapshots replay their summaries and refinement verdicts.

        ``budget_seconds``/``budget_fuel`` bound each plan unit of each
        zone with a fresh cooperative :class:`~repro.resilience.Budget`;
        exhaustion records an ``UNKNOWN`` verdict and the campaign moves
        on. A unit that dies of a compile/verify error records a typed
        ``ERROR`` verdict instead of aborting the run.

        ``checkpoint`` names a JSONL file that receives one atomic record
        per completed unit; with ``resume=True`` the units already in it
        are replayed bit-identically (verdicts, solver-check counts —
        everything but wall-clock time) instead of re-run, so a SIGKILLed
        campaign restarts where it died.
        """
        report = CampaignReport(version)
        started = time.perf_counter()
        writer, completed = self._open_checkpoint(
            checkpoint, version, smoke_first, resume
        )
        for index, zone in enumerate(self._zones):
            unit_key = self._unit_key(index, zone, version)
            if writer is not None:
                cached = completed.get(unit_address(unit_key))
                if cached is not None:
                    report.verdicts.append(ZoneVerdict.from_json(cached))
                    continue
            verdict = self._run_unit(
                index, zone, version, smoke_first, cache,
                budget_seconds, budget_fuel,
            )
            report.verdicts.append(verdict)
            if writer is not None:
                writer.append(unit_key, verdict.to_json())
            if (
                max_zone_seconds is not None
                and time.perf_counter() - started > max_zone_seconds * len(self._zones)
            ):
                break
        report.elapsed_seconds = time.perf_counter() - started
        return report

    def _run_unit(
        self,
        index: int,
        zone: Zone,
        version: str,
        smoke_first: bool,
        cache,
        budget_seconds: Optional[float],
        budget_fuel: Optional[int],
    ) -> ZoneVerdict:
        verdict, _result = run_unit(
            index, zone, version, smoke_first, cache,
            budget_seconds, budget_fuel,
        )
        return verdict

    # -- checkpoint plumbing ------------------------------------------------

    def _campaign_header(self, version: str, smoke_first: bool) -> Dict:
        from repro.incremental.digest import engine_digest, zone_digest

        return {
            "kind": "campaign",
            "version": version,
            "engine": engine_digest(version),
            "smoke_first": smoke_first,
            "zones": [zone_digest(zone) for zone in self._zones],
        }

    def _unit_key(self, index: int, zone: Zone, version: str) -> Dict:
        from repro.incremental.digest import engine_digest, zone_digest

        return {
            "index": index,
            "zone": zone_digest(zone),
            "engine": engine_digest(version),
        }

    def _open_checkpoint(self, checkpoint, version: str, smoke_first: bool,
                         resume: bool):
        if checkpoint is None:
            return None, {}
        header = self._campaign_header(version, smoke_first)
        return CheckpointWriter.open(checkpoint, header, resume=resume)


def run_campaign(
    version: str,
    num_zones: int = 10,
    seed: int = 2023,
    cache=None,
    budget_seconds: Optional[float] = None,
    budget_fuel: Optional[int] = None,
    checkpoint=None,
    resume: bool = False,
    workers: Optional[int] = None,
    faults: Optional[str] = None,
    **config_overrides,
) -> CampaignReport:
    """Convenience API: generate ``num_zones`` zones and verify ``version``
    on each; ``cache`` is shared by every zone. Budget and checkpoint
    arguments are forwarded to :meth:`Campaign.run`.

    ``workers`` (any integer, including 1) routes the campaign through
    the :mod:`repro.parallel` pooled executor; its canonical report is
    bit-identical across worker counts. ``faults`` (a spec string) is
    only honoured on that path, where it derives one deterministic plan
    per unit id; sequential callers install a plan globally instead.
    """
    if workers is not None:
        from repro.core.options import VerifyOptions
        from repro.parallel import run_campaign_parallel

        cache_dir = None
        if cache is not None and not getattr(cache, "memory_only", False):
            cache_dir = str(cache.cache_dir)
        options = VerifyOptions(
            budget_seconds=budget_seconds,
            fuel=budget_fuel,
            workers=workers,
            faults=faults,
            cache_dir=cache_dir,
        )
        return run_campaign_parallel(
            version,
            num_zones=num_zones,
            seed=seed,
            options=options,
            checkpoint=checkpoint,
            resume=resume,
            **config_overrides,
        )
    config = GeneratorConfig(seed=seed, **config_overrides)
    campaign = Campaign(generator_config=config, num_zones=num_zones)
    return campaign.run(
        version,
        cache=cache,
        budget_seconds=budget_seconds,
        budget_fuel=budget_fuel,
        checkpoint=checkpoint,
        resume=resume,
    )
