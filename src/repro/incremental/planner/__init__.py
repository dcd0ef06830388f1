"""Query planners: how a verification run splits the query space.

See :mod:`repro.incremental.planner.protocol` for the abstraction,
:mod:`~repro.incremental.planner.ec` for the equivalence-class planner
every verification path uses and
:mod:`~repro.incremental.planner.by_label` for the by-label test oracle.
"""

from repro.incremental.planner.by_label import ByLabelPlanner
from repro.incremental.planner.ec import ECPlanner, member_signature, translate_name
from repro.incremental.planner.label_graph import LabelGraph
from repro.incremental.planner.protocol import (
    BY_LABEL,
    EQUIVALENCE_CLASS,
    KIND_APEX,
    KIND_MISS,
    KIND_OUTSIDE,
    KIND_PARTITION,
    KIND_STAR,
    KIND_SUB,
    PLANNERS,
    PlanUnit,
    QueryPlanner,
    make_planner,
    unit_preconditions,
)

__all__ = [
    "BY_LABEL",
    "EQUIVALENCE_CLASS",
    "KIND_APEX",
    "KIND_MISS",
    "KIND_OUTSIDE",
    "KIND_PARTITION",
    "KIND_STAR",
    "KIND_SUB",
    "PLANNERS",
    "ByLabelPlanner",
    "ECPlanner",
    "LabelGraph",
    "PlanUnit",
    "QueryPlanner",
    "make_planner",
    "member_signature",
    "translate_name",
    "unit_preconditions",
]
