"""The by-label query planner: one unit per below-apex subtree.

The plan is the query-space partitions of :mod:`repro.incremental.delta`
(``apex``/``outside``/``miss``/``sub:<label>``), unit digests are
:func:`repro.incremental.delta.partition_digest`, and a delta's affected
set is the digest diff. No production path uses it: it is the reference
oracle the equivalence-class planner is bit-identity-tested against,
reached through ``IncrementalVerifier(..., planner="by-label")``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.incremental.planner.protocol import (
    BY_LABEL,
    KIND_PARTITION,
    PlanUnit,
    QueryPlanner,
)


class ByLabelPlanner(QueryPlanner):
    """One verification unit per query-space partition (PR-1 behaviour)."""

    name = BY_LABEL

    def __init__(self) -> None:
        self._zone = None

    # -- protocol ----------------------------------------------------------

    def plan(self, zone) -> List[PlanUnit]:
        from repro.incremental import delta as delta_mod

        self._zone = zone
        return [
            PlanUnit(
                id=part.key,
                kind=KIND_PARTITION,
                part_key=part.key,
                members=(part.key,),
            )
            for part in delta_mod._zone_partitions_impl(zone)
        ]

    def affected(self, delta) -> List[str]:
        from repro.incremental import delta as delta_mod

        if self._zone is None:
            raise ValueError("affected() requires a prior plan() call")
        new_zone = delta.apply(self._zone)
        changed = delta_mod._affected_partitions_impl(self._zone, new_zone)
        self._zone = new_zone
        return changed

    def unit_digest(self, zone, unit: PlanUnit) -> str:
        from repro.incremental import delta as delta_mod

        return delta_mod.partition_digest(zone, unit.part_key)

    def notify_delta(self, delta) -> None:
        # Stateless with respect to verification: the incremental engine
        # re-digests every partition each run, so the only state worth
        # advancing is the snapshot affected() diffs against.
        if self._zone is not None:
            self._zone = delta.apply(self._zone)

    def unit_of_name(self, zone, name) -> Optional[str]:
        from repro.incremental import delta as delta_mod

        return delta_mod._partition_of_name_impl(zone, name)
