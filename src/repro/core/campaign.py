"""Verification campaigns: the paper's continuous operating mode.

Section 6.5/9: each run of the overall verification proves the engine
correct and safe *for one concrete zone snapshot*; the production workflow
runs it over tens of thousands of randomly generated zone configurations
(plus the live ones) on every engine iteration. :func:`run_checkpointed`
is that loop — one :func:`run_unit` per (zone, version), in-process or
through the :mod:`repro.parallel` pool, with a crash-safe checkpoint —
and :func:`run_campaign` aggregates it into a coverage/verdict report.
The campaign service (:mod:`repro.campaign`) drives the same loop.

With ``smoke_first`` each zone is first smoke-tested differentially
(milliseconds); the proof still runs, and must refute every zone the
smoke test refutes.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from functools import partial
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.options import VerifyOptions
from repro.core.pipeline import VerificationResult, verify_engine
from repro.dns.zone import Zone
from repro.frontend.errors import GoPyError
from repro.resilience import faults as faults_mod
from repro.resilience import verdicts as verdicts_mod
from repro.resilience.checkpoint import CheckpointWriter, unit_address
from repro.symex.errors import SymexError
from repro.testing import differential_test
from repro.zonegen import GeneratorConfig, ZoneGenerator

if TYPE_CHECKING:
    from repro.incremental.engine import ReuseStats
    from repro.parallel.counters import PerfCounters


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
UNIT_ERRORS = (GoPyError, SymexError, faults_mod.InjectedFault, OSError)


def _unproven(index: int, zone: Zone, elapsed_seconds: float = 0.0,
              differential_divergences: int = 0, **typed) -> ZoneVerdict:
    """The verdict of a unit that produced no proof result."""
    return ZoneVerdict(
        zone_index=index,
        zone_origin=zone.origin.to_text(),
        records=len(zone),
        verified=False,
        bug_categories=(),
        elapsed_seconds=elapsed_seconds,
        solver_checks=0,
        differential_divergences=differential_divergences,
        **typed,
    )


def run_unit(
    index: int,
    zone: Zone,
    version: str,
    options: VerifyOptions,
    cache=None,
    base_zone: Optional[Zone] = None,
) -> Tuple[ZoneVerdict, Optional[VerificationResult], Optional[ReuseStats]]:
    """Verify one (zone, version) campaign unit under ``options``.

    This is THE unit of work: every campaign path runs it, in-process or
    in a pool worker, which is what makes a pooled campaign's verdicts
    bit-identical to an in-process one's. The unit always verifies
    in-process (``options.workers`` is ignored) under a fresh fault plan
    derived from ``(options.faults, index)``.

    With ``base_zone`` the unit is a *mutation* unit: an
    :class:`~repro.incremental.engine.IncrementalVerifier` is warmed on
    the base and adopts ``zone`` through ``diff_to``, exercising the
    delta-invalidation path the watch daemon and the serve gate rely on.

    Returns the typed verdict, the underlying :class:`VerificationResult`
    (None when the unit died of a typed error) for perf statistics, and
    a mutation unit's reuse statistics (None otherwise).
    """
    options = options.with_(workers=None)
    plan = faults_mod.unit_plan(options.faults, index)
    started = time.perf_counter()
    divergences = 0
    reuse = None
    try:
        with faults_mod.active(plan) if plan is not None else nullcontext():
            if options.smoke_first:
                smoke = differential_test(zone, version, check_reference=False)
                divergences = len(smoke.divergences)
            if base_zone is None:
                result = verify_engine(zone, version, options, cache=cache)
            else:
                from repro.incremental.engine import IncrementalVerifier

                verifier = IncrementalVerifier(
                    base_zone, version,
                    cache=cache if cache is not None else options.make_cache(),
                    options=options, **options.session_kwargs(),
                )
                verifier.verify_current()  # warm the base's unit verdicts
                outcome = verifier.diff_to(zone)
                result, reuse = outcome.result, outcome.reuse
    except UNIT_ERRORS as exc:
        error_class, detail = verdicts_mod.classify_error(exc)
        verdict = _unproven(
            index, zone,
            elapsed_seconds=time.perf_counter() - started,
            differential_divergences=divergences,
            verdict=verdicts_mod.ERROR,
            error_class=error_class,
            error_detail=detail,
        )
        return verdict, None, None
    if (
        divergences
        and result.verified
        and result.verdict == verdicts_mod.VERIFIED
    ):
        raise RuntimeError(
            f"unsound: differential refuted unit {index} but the "
            f"proof passed ({version})"
        )
    verdict = ZoneVerdict(
        zone_index=index,
        zone_origin=zone.origin.to_text(),
        records=len(zone),
        verified=result.verified,
        bug_categories=tuple(result.bug_categories()),
        elapsed_seconds=time.perf_counter() - started,
        solver_checks=result.solver_checks,
        differential_divergences=divergences,
        verdict=result.verdict,
        unknown_reason=result.unknown_reason,
        error_class=result.error_class,
        error_detail=result.error_detail or "",
    )
    return verdict, result, reuse


@dataclass(frozen=True)
class CampaignUnit:
    """One unit as the campaign loop runs it.

    ``index`` is its stable id (it names the verdict and seeds the unit's
    fault plan), ``key`` its checkpoint unit-key material; a
    ``base_zone`` makes it a mutation unit (see :func:`run_unit`).
    """

    index: int
    zone: Zone
    version: str
    key: Dict
    base_zone: Optional[Zone] = None


def unit_value(unit: CampaignUnit, options: VerifyOptions, cache=None) -> Dict:
    """Run one unit; the JSON-safe record the loop collects from it."""
    from repro.parallel.counters import unit_perf

    verdict, result, reuse = run_unit(
        unit.index, unit.zone, unit.version, options,
        cache=cache, base_zone=unit.base_zone,
    )
    return {
        "verdict": verdict.to_json(),
        "perf": unit_perf(result, cache),
        "incremental": reuse.as_dict() if reuse is not None else None,
    }


def run_checkpointed(
    units: Sequence[CampaignUnit],
    options: VerifyOptions,
    perf: PerfCounters,
    cache=None,
    writer: Optional[CheckpointWriter] = None,
    completed: Optional[Dict[str, Dict]] = None,
) -> Iterator[Tuple[CampaignUnit, Dict, Optional[Dict]]]:
    """THE campaign loop; yields ``(unit, verdict, value)`` as units finish.

    Units whose address is in ``completed`` (the checkpoint's records)
    are replayed first, with ``value`` None. The rest run through
    :func:`repro.parallel.pool.run_units`: in-process with the caller's
    live ``cache`` when ``options.workers`` is None, pooled otherwise
    (each worker opens ``options.cache_dir``). A unit whose worker died
    is recomputed in the parent — the unit is deterministic, so that
    yields exactly what the lost worker would have returned. A unit that
    stalls past :func:`~repro.parallel.pool.grace_seconds` is typed
    ``UNKNOWN(wall-clock-deadline)``. Every fresh verdict is appended to
    ``writer`` here, in the parent only; workers never touch the
    checkpoint, and records land in completion order, which the
    address-keyed checkpoint does not care about.
    """
    # Imported here: the verify path imports this module, and the pool
    # pulls in multiprocessing.
    from repro.parallel import pool

    completed = {} if completed is None else completed
    pending: List[CampaignUnit] = []
    for unit in units:
        cached = completed.get(unit_address(unit.key))
        if cached is None:
            pending.append(unit)
            continue
        perf.units_replayed += 1
        yield unit, cached, None
    if options.workers is None:
        worker = partial(unit_value, options=options, cache=cache)
        payloads: List = pending
    else:
        import pickle

        from repro.parallel.worker import campaign_unit_worker

        worker = campaign_unit_worker
        payloads = [
            {"unit": pickle.dumps(unit), "options": options.to_json()}
            for unit in pending
        ]
    for pos, status, value in pool.run_units(
        worker, payloads, options.workers or 1, pool.grace_seconds(options)
    ):
        unit = pending[pos]
        if status == pool.DIED:
            value = worker(payloads[pos])
            perf.units_fallback += 1
            status = pool.OK
        if status == pool.OK:
            perf.absorb(value["perf"])
        else:  # TIMEOUT: the worker wedged outside every budget charge point
            deadline = _unproven(
                unit.index, unit.zone,
                verdict=verdicts_mod.UNKNOWN,
                unknown_reason=verdicts_mod.REASON_DEADLINE,
            )
            value = {"verdict": deadline.to_json(), "perf": None,
                     "incremental": None}
            perf.units_timed_out += 1
        verdict = value["verdict"]
        if writer is not None:
            writer.append(unit.key, verdict)
            completed[unit_address(unit.key)] = verdict
        yield unit, verdict, value


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
    zones: Optional[Sequence[Zone]] = None,
    **overrides,
) -> CampaignReport:
    """Verify ``version`` on every zone; returns the aggregate report.

    Zones are the explicit ``zones`` list, or ``num_zones`` generated
    from ``seed``. Extra keyword arguments split by name:
    :class:`VerifyOptions` fields (``analysis=False``,
    ``smoke_first=False``, ``depth=...``) join the options every unit
    runs with, everything else configures the zone
    :class:`~repro.zonegen.GeneratorConfig`. ``budget_seconds``,
    ``budget_fuel``, ``workers`` and ``faults`` set the options fields of
    the same meaning.

    With ``smoke_first`` (the default) the differential tester runs
    before each proof; the prover must refute every zone the tester
    does, or the campaign aborts as unsound. ``cache`` (a
    :class:`repro.incremental.cache.SummaryCache`) is shared by every
    in-process unit; pooled runs open its directory per worker. Budgets
    bound each plan unit of each zone; exhaustion records ``UNKNOWN``,
    a compile/verify error records a typed ``ERROR``, and the campaign
    moves on. ``faults`` derives one fault plan per unit id, so a faulted
    campaign's canonical report is the same for any ``workers``.

    ``checkpoint`` names a JSONL file that receives one atomic record per
    completed unit; with ``resume=True`` the units already in it are
    replayed bit-identically (everything but wall-clock time), so a
    SIGKILLed campaign restarts where it died, with or without
    ``workers``.
    """
    from repro.incremental.digest import engine_digest, zone_digest
    from repro.parallel.counters import PerfCounters

    option_names = {f.name for f in fields(VerifyOptions)}
    explicit = {"budget_seconds": budget_seconds, "fuel": budget_fuel,
                "workers": workers, "faults": faults}
    options = VerifyOptions(**{
        k: v for k, v in overrides.items() if k in option_names
    }).with_(**{k: v for k, v in explicit.items() if v is not None})
    if options.cache_dir is None and cache is not None and not cache.memory_only:
        options = options.with_(cache_dir=str(cache.cache_dir))
    if zones is None:
        config = GeneratorConfig(seed=seed, **{
            k: v for k, v in overrides.items() if k not in option_names
        })
        zones = ZoneGenerator(config).stream(num_zones)
    zones = list(zones)

    started = time.perf_counter()
    engine = engine_digest(version)
    units = [
        CampaignUnit(index, zone, version,
                     {"index": index, "zone": zone_digest(zone), "engine": engine})
        for index, zone in enumerate(zones)
    ]
    writer, completed = None, {}
    if checkpoint is not None:
        header = {
            "kind": "campaign",
            "version": version,
            "engine": engine,
            "smoke_first": options.smoke_first,
            "zones": [unit.key["zone"] for unit in units],
        }
        writer, completed = CheckpointWriter.open(checkpoint, header,
                                                  resume=resume)
    perf = PerfCounters(workers=options.workers or 1, units_total=len(units))
    verdicts: Dict[int, ZoneVerdict] = {}
    for unit, verdict, _value in run_checkpointed(
        units, options, perf, cache, writer, completed
    ):
        verdicts[unit.index] = ZoneVerdict.from_json(verdict)
    return CampaignReport(
        version,
        verdicts=[verdicts[index] for index in range(len(units))],
        elapsed_seconds=time.perf_counter() - started,
        perf=perf.finish().to_json(),
    )
