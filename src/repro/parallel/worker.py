"""Top-level worker functions the process pool executes.

Both workers take one pickle-safe payload dict and return a JSON-safe
dict — the contract :func:`repro.parallel.pool.run_units` needs for any
start method. They are deliberately thin: each one reconstructs its
inputs, delegates to the *same* code the in-process paths run
(:func:`repro.core.campaign.unit_value` for campaign units, generated,
regression and mutation alike; a restricted
:class:`~repro.core.pipeline.VerificationSession` for plan units), and
serializes the outcome. Determinism across worker counts follows from
that sharing plus three per-unit rules:

- every unit builds a **fresh budget** from the options (the bound is
  per unit, not per run, so completion order cannot move a deadline);
- every unit derives its **own fault plan** from the spec and its stable
  unit id (:func:`repro.resilience.faults.unit_plan`) — global consult
  order would be scheduler-dependent;
- every unit opens its **own cache handle** on the shared directory
  (entry publication is atomic; keys of distinct units are disjoint).
"""

from __future__ import annotations

import pickle
from contextlib import nullcontext
from typing import Dict

from repro.resilience import faults as faults_mod


def _options_of(payload: Dict):
    from repro.core.options import VerifyOptions

    return VerifyOptions.from_json(payload["options"])


def campaign_unit_worker(payload: Dict) -> Dict:
    """Run one campaign unit in a pool worker and ship its record.

    Payload: ``unit`` (a pickled :class:`~repro.core.campaign.CampaignUnit`
    — the parent already generated or loaded its zones, so workers never
    re-generate) and ``options`` (:meth:`VerifyOptions.to_json`). Returns
    :func:`~repro.core.campaign.unit_value`'s record. The unsoundness
    cross-check raises here exactly as in-process; the pool propagates it
    to the parent, which aborts the campaign.
    """
    from repro.core.campaign import unit_value

    options = _options_of(payload)
    return unit_value(pickle.loads(payload["unit"]), options,
                      options.make_cache())


def partition_worker(payload: Dict) -> Dict:
    """Verify one query-plan unit of one zone.

    Payload: ``zone_pickle`` (the full zone for by-label partitions, a
    projected closure zone for equivalence-class units), ``part_key``
    (either a :class:`~repro.incremental.delta.Partition` key string or
    one of the planner-level ``gap``/``star`` keys), the optional
    ``gap_code`` pinning a gap unit's query label, ``version``,
    ``options``, and optionally ``index`` (the unit's stable plan
    position, seeding its per-unit fault plan).

    Returns the unit's cacheable verdict dict (the same shape
    :class:`~repro.incremental.engine.IncrementalVerifier` stores) plus
    perf. ``verdict`` is None when the unit's bugs do not serialize; the
    parent then recomputes that unit in-process to keep the live bug
    objects, exactly as the sequential path would.
    """
    from repro.core.pipeline import VerificationSession
    from repro.incremental.engine import verdict_of
    from repro.incremental.planner.protocol import unit_preconditions
    from repro.parallel.counters import unit_perf

    zone = pickle.loads(payload["zone_pickle"])
    part_key = payload["part_key"]
    options = _options_of(payload)
    cache = options.make_cache()
    if cache is None:
        from repro.incremental.cache import SummaryCache

        cache = SummaryCache(memory_only=True)
    plan = faults_mod.unit_plan(options.faults, payload.get("index", 0))
    scope = faults_mod.active(plan) if plan is not None else nullcontext()
    with scope:
        session = VerificationSession(
            zone,
            payload["version"],
            cache=cache,
            budget=options.make_budget(),
            **options.session_kwargs(),
        )
        pre = unit_preconditions(
            part_key, payload.get("gap_code"), session.query_encoding
        )
        if pre:
            session.restrict(pre)
        result = session.verify(use_summaries=options.use_summaries)
    return {
        "part_key": part_key,
        "verdict": verdict_of(result),
        "solver_checks": result.solver_checks,
        "perf": unit_perf(result, cache),
    }
