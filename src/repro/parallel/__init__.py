"""Process-pool verification executor.

Fans campaign units (zone × engine version) and, within one verify, the
query-space partitions across worker processes; merges typed verdicts
deterministically so the canonical report of a pooled run is
bit-identical to the sequential one's for any worker count. See
``docs/api.md`` for the execution model.
"""

from repro.parallel.counters import PerfCounters, perf_phases, unit_perf
from repro.parallel.executor import run_campaign_parallel
from repro.parallel.pool import DIED, OK, TIMEOUT, run_units
from repro.parallel.worker import campaign_unit_worker, partition_worker

__all__ = [
    "PerfCounters",
    "perf_phases",
    "unit_perf",
    "run_campaign_parallel",
    "run_units",
    "campaign_unit_worker",
    "partition_worker",
    "OK",
    "DIED",
    "TIMEOUT",
]
