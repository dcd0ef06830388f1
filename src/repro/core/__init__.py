"""DNS-V: the verification framework tying every layer together.

Public API:

- :func:`repro.core.pipeline.verify_engine` — verify one engine version
  against the top-level specification on one zone, unit by unit through
  the equivalence-class planner;
  ``VerificationSession`` — one unsplit run with layered summarization
  (paper Figure 6), the building block of every unit and the test oracle.
- :class:`repro.core.encoding.QueryEncoding` — the symbolic query input.
- :mod:`repro.core.layers` — the interface configuration.
- :mod:`repro.core.porting` — the Table-3 porting-cost analysis.
"""

from repro.core.campaign import (
    Campaign,
    CampaignReport,
    UNIT_ERRORS,
    ZoneVerdict,
    run_campaign,
    run_unit,
)
from repro.core.encoding import QueryEncoding
from repro.core.options import VerifyOptions
from repro.core.layers import LayerConfig, library_layers, resolution_layers, toplevel_layer
from repro.core.pipeline import (
    BugReport,
    LayerResult,
    VerificationResult,
    VerificationSession,
    classify_divergence,
    clear_ir_cache,
    compile_engine_modules,
    verify_engine,
    RUNTIME_ERROR,
    WRONG_ADDITIONAL,
    WRONG_ANSWER,
    WRONG_AUTHORITY,
    WRONG_FLAG,
    WRONG_RCODE,
)

__all__ = [
    "Campaign",
    "CampaignReport",
    "UNIT_ERRORS",
    "ZoneVerdict",
    "run_campaign",
    "run_unit",
    "QueryEncoding",
    "VerifyOptions",
    "LayerConfig",
    "library_layers",
    "resolution_layers",
    "toplevel_layer",
    "BugReport",
    "LayerResult",
    "VerificationResult",
    "VerificationSession",
    "classify_divergence",
    "clear_ir_cache",
    "compile_engine_modules",
    "verify_engine",
    "RUNTIME_ERROR",
    "WRONG_ADDITIONAL",
    "WRONG_ANSWER",
    "WRONG_AUTHORITY",
    "WRONG_FLAG",
    "WRONG_RCODE",
]
