"""The parallel campaign executor.

:func:`run_campaign_parallel` fans a campaign's units (zone × engine
version) across worker processes and merges their typed verdicts into a
:class:`~repro.core.campaign.CampaignReport` whose *canonical* projection
is bit-identical to the sequential loop's — for any worker count, under
resume, and under per-unit fault injection. (The plan units of a single
verify fan out through the same pool from
:class:`~repro.incremental.engine.IncrementalVerifier`.)

Determinism is structural, not accidental: units are indexed before
anything runs, every worker executes the exact function the sequential
path runs on plain-data inputs derived only from ``(options, unit id)``,
and the parent assembles results by index — completion order can only
affect timings. The parent is also the **only checkpoint writer**:
workers return verdicts, the parent appends them to the campaign's JSONL
checkpoint as they complete, so ``--resume`` after a SIGKILL (of the
parent or any worker) replays exactly as in sequential mode — the two
modes share header and unit-key material and can resume each other's
checkpoints.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, List, Optional

from repro.core.campaign import Campaign, CampaignReport, ZoneVerdict
from repro.dns.zone import Zone
from repro.parallel.counters import PerfCounters
from repro.parallel.pool import DIED, OK, TIMEOUT, run_units
from repro.parallel.worker import campaign_unit_worker
from repro.resilience import verdicts as verdicts_mod
from repro.resilience.checkpoint import unit_address
from repro.zonegen import GeneratorConfig, ZoneGenerator


def _grace_seconds(options) -> Optional[float]:
    """Pool stall watchdog, sized from the per-unit budget: generous
    enough that a cooperative deadline always fires first, tight enough
    that a wedged worker cannot hang the run. None (no watchdog) when
    the run is unbudgeted — then nothing bounds a unit by design."""
    if options.budget_seconds is None:
        return None
    return 3.0 * options.budget_seconds + 30.0


def _timeout_verdict(index: int, zone: Zone) -> ZoneVerdict:
    """A unit whose worker stalled past the grace period: its coverage is
    lost, typed as UNKNOWN(wall-clock-deadline) — the campaign analogue of
    a cooperative budget expiry, just enforced from outside."""
    return ZoneVerdict(
        zone_index=index,
        zone_origin=zone.origin.to_text(),
        records=len(zone),
        verified=False,
        bug_categories=(),
        elapsed_seconds=0.0,
        solver_checks=0,
        differential_divergences=0,
        verdict=verdicts_mod.UNKNOWN,
        unknown_reason=verdicts_mod.REASON_DEADLINE,
    )


def run_campaign_parallel(
    version: str,
    num_zones: int = 10,
    seed: int = 2023,
    zones: Optional[List[Zone]] = None,
    options=None,
    generator_config: Optional[GeneratorConfig] = None,
    checkpoint=None,
    resume: bool = False,
    **config_overrides,
) -> CampaignReport:
    """Run one campaign across ``options.workers`` processes.

    Zones come from an explicit ``zones`` list or are generated in the
    parent from ``(seed, config)`` — workers always receive pickled
    zones, never re-generate, so both sources behave identically. The
    checkpoint protocol, unit keys and header digests are
    :class:`Campaign`'s own; a parallel run can resume a sequential
    checkpoint and vice versa.
    """
    from repro.core.options import VerifyOptions

    if options is None:
        options = VerifyOptions(workers=1)
    workers = options.workers if options.workers is not None else 1

    if zones is None:
        config = generator_config or GeneratorConfig(seed=seed, **config_overrides)
        zones = list(ZoneGenerator(config).stream(num_zones))
    campaign = Campaign(zones=zones)

    report = CampaignReport(version)
    started = time.perf_counter()
    perf = PerfCounters(workers=workers, units_total=len(zones))
    writer, completed = campaign._open_checkpoint(
        checkpoint, version, options.smoke_first, resume
    )

    unit_keys = [
        campaign._unit_key(index, zone, version)
        for index, zone in enumerate(zones)
    ]
    verdicts: Dict[int, ZoneVerdict] = {}
    pending: List[int] = []
    for index, key in enumerate(unit_keys):
        cached = completed.get(unit_address(key)) if writer is not None else None
        if cached is not None:
            verdicts[index] = ZoneVerdict.from_json(cached)
            perf.units_replayed += 1
        else:
            pending.append(index)

    payloads = [
        {
            "index": index,
            "zone_pickle": pickle.dumps(zones[index]),
            "version": version,
            "options": options.to_json(),
        }
        for index in pending
    ]
    for pos, status, value in run_units(
        campaign_unit_worker, payloads, workers, _grace_seconds(options)
    ):
        index = pending[pos]
        if status == DIED:
            # The worker process vanished mid-unit; the unit itself is
            # deterministic, so recomputing it in the parent yields
            # exactly what the lost worker would have returned.
            value = campaign_unit_worker(payloads[pos])
            perf.units_fallback += 1
            status = OK
        if status == OK:
            verdict = ZoneVerdict.from_json(value["verdict"])
            perf.absorb(value.get("perf"))
        else:  # TIMEOUT
            verdict = _timeout_verdict(index, zones[index])
            perf.units_timed_out += 1
        verdicts[index] = verdict
        if writer is not None:
            # Single-writer funnel: workers never touch the checkpoint.
            # Records land in completion order; the file is a map keyed
            # by unit address, so replay order is irrelevant.
            writer.append(unit_keys[index], verdict.to_json())

    report.verdicts = [verdicts[index] for index in range(len(zones))]
    report.elapsed_seconds = time.perf_counter() - started
    report.perf = perf.finish().to_json()
    return report

