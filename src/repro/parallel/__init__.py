"""Process-pool verification executor.

:func:`run_units` fans units across worker processes: the plan units of
one verify (from :class:`~repro.incremental.engine.IncrementalVerifier`)
and the units of a campaign (from the campaign loop,
:func:`repro.core.campaign.run_checkpointed`). Callers merge results by
stable index, so the canonical report of a pooled run is bit-identical
to the in-process one's for any worker count. See ``docs/api.md`` for
the execution model.
"""

from repro.parallel.counters import PerfCounters, perf_phases, unit_perf
from repro.parallel.pool import DIED, OK, TIMEOUT, run_units
from repro.parallel.worker import campaign_unit_worker, partition_worker

__all__ = [
    "PerfCounters",
    "perf_phases",
    "unit_perf",
    "run_units",
    "campaign_unit_worker",
    "partition_worker",
    "OK",
    "DIED",
    "TIMEOUT",
]
