"""Unit-wise verification: every verify, and every zone change after it.

:class:`IncrementalVerifier` is the one route every verification takes
(:func:`repro.core.pipeline.verify_engine`, the serve gate, the watch
daemon, the campaign loops). It holds the current zone snapshot and a
content-addressed cache of *unit verdicts*. A run asks its query planner
(the equivalence-class planner; the by-label planner is the test oracle)
for an ordered list of units, verifies each in a restricted session (the
unit's constraints are conjoined onto the global preconditions), and
merges the unit verdicts into one ordinary
:class:`~repro.core.pipeline.VerificationResult`. Verdicts are cached; a
subsequent run — typically after :meth:`IncrementalVerifier.apply` applied
a :class:`~repro.incremental.delta.ZoneDelta` — replays every unit whose
key is unchanged and re-runs only the rest.

Witness stability (why replayed results are bit-identical)
----------------------------------------------------------

A cached verdict stores the *decoded* bug reports of its original run.
Replaying them must reproduce exactly what a fresh run would report, so the
cache key pins everything the restricted run can observe. An
equivalence-class unit runs on its own projected zone, so its key pins the
unit's content digest, its representative and its gap code: adding a host
elsewhere in the zone leaves it untouched. A by-label partition runs on the
full zone, whose interner codes are assigned by global label rank, so its
key also pins **the zone's full label universe plus top-label set**: under
that planner a delta that adds or removes a *label* invalidates every unit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.pipeline import (
    BugReport,
    LayerResult,
    VerificationResult,
    VerificationSession,
)
from repro.dns.zone import Zone
from repro.incremental.cache import SummaryCache
from repro.incremental.delta import ZoneDelta, partition_digest
from repro.incremental.planner.protocol import (
    KIND_PARTITION,
    KIND_SUB,
    PlanUnit,
    make_planner,
    unit_preconditions,
)
from repro.incremental.digest import (
    engine_digest,
    layers_digest,
    top_labels,
    zone_digest,
)
from repro.incremental.serialize import (
    SerializationError,
    bug_from_json,
    bug_to_json,
)
from repro.resilience import verdicts as verdicts_mod
from repro.incremental import delta as delta_mod


def bug_sort_key(bug: BugReport) -> Tuple:
    """Canonical order for merged bug lists (independent of the order in
    which units were computed)."""
    return (
        bug.version,
        bug.categories,
        bug.qname_codes,
        bug.qtype_code,
        bug.description,
    )


# ---------------------------------------------------------------------------
# Partition verdicts: the serializable unit the cache stores and the
# parallel workers ship. Module-level so pool workers can build and the
# parent can merge them without instantiating a verifier.
# ---------------------------------------------------------------------------


def verdict_of(result: VerificationResult,
               with_bugs: bool = True) -> Optional[Dict]:
    """The JSON-safe cacheable form of a partition result, or None when
    its bugs do not serialize (the run stays live, the cache untouched)."""
    verdict = {
        "verified": result.verified,
        "verdict": result.verdict,
        "unknown_reason": result.unknown_reason,
        "solver_checks": result.solver_checks,
        "spurious_mismatches": result.spurious_mismatches,
        "elapsed_seconds": result.elapsed_seconds,
        "analysis": result.analysis,
        "layers": [
            {
                "name": layer.name,
                "route": layer.route,
                "elapsed_seconds": layer.elapsed_seconds,
                "paths": layer.paths,
                "cases": layer.cases,
                "verified": layer.verified,
            }
            for layer in result.layers
        ],
        "bugs": [],
    }
    if with_bugs:
        try:
            verdict["bugs"] = [bug_to_json(b) for b in result.bugs]
        except SerializationError:
            return None
    return verdict


def replay_bugs(verdict: Dict) -> Optional[List[BugReport]]:
    try:
        return [bug_from_json(b) for b in verdict["bugs"]]
    except (SerializationError, KeyError, TypeError, ValueError):
        return None


def merge_partition(merged: VerificationResult, part_key: str, verdict: Dict,
                    bugs: List[BugReport], cached: bool) -> None:
    """Fold one partition verdict into the merged result. Called in the
    stable :meth:`IncrementalVerifier._plan_units` order regardless of
    how (or where) the verdicts were computed."""
    merged.bugs.extend(bugs)
    merged.verified = merged.verified and verdict["verified"]
    if (
        verdict.get("verdict") == verdicts_mod.UNKNOWN
        and merged.unknown_reason is None
    ):
        merged.unknown_reason = verdict.get("unknown_reason")
    merged.spurious_mismatches += verdict.get("spurious_mismatches", 0)
    # Analysis counters are live-execution telemetry: freshly computed
    # partitions contribute theirs; replayed partitions did no symbolic
    # execution this run, so their counters stay out of the merged totals
    # (mirroring how solver_checks is only summed for fresh partitions).
    part_analysis = verdict.get("analysis")
    if not cached and isinstance(part_analysis, dict):
        if merged.analysis is None:
            merged.analysis = dict(part_analysis)
        else:
            merged.analysis["enabled"] = bool(
                merged.analysis.get("enabled") or part_analysis.get("enabled")
            )
            # Execution counters sum across partitions; the prune-pass
            # statics (guards_total/guards_pruned/...) describe the one
            # shared compilation and are identical in every partition, so
            # the first copy stands.
            for key in ("panic_guard_checks", "pruned_guard_hits",
                        "solver_checks_avoided"):
                if key in part_analysis:
                    merged.analysis[key] = (
                        merged.analysis.get(key, 0) + part_analysis[key]
                    )
    for layer in verdict.get("layers", ()):
        merged.layers.append(
            LayerResult(
                f"{part_key}:{layer['name']}",
                "cache" if cached else layer["route"],
                0.0 if cached else layer["elapsed_seconds"],
                layer["paths"],
                layer["cases"],
                layer["verified"],
            )
        )


def finalize_merged(merged: VerificationResult) -> None:
    """Canonical bug order and the overall typed verdict of a merged
    (partitioned) result."""
    merged.bugs.sort(key=bug_sort_key)
    merged.verified = merged.verified and not merged.bugs
    if any(bug.validated for bug in merged.bugs):
        merged.verdict = verdicts_mod.BUG
    elif merged.unknown_reason is not None:
        merged.verdict = verdicts_mod.UNKNOWN
    elif not merged.verified:
        merged.verdict = verdicts_mod.UNKNOWN
        merged.unknown_reason = verdicts_mod.REASON_UNVALIDATED
    else:
        merged.verdict = verdicts_mod.VERIFIED


def deadline_verdict() -> Dict:
    """The synthetic verdict of a partition whose worker stalled past the
    pool's grace period: coverage lost, typed as UNKNOWN — never cached."""
    return {
        "verified": False,
        "verdict": verdicts_mod.UNKNOWN,
        "unknown_reason": verdicts_mod.REASON_DEADLINE,
        "solver_checks": 0,
        "spurious_mismatches": 0,
        "elapsed_seconds": 0.0,
        "layers": [],
        "bugs": [],
    }


@dataclass
class ReuseStats:
    """How much of one incremental run was replayed from the cache."""

    partitions_total: int = 0
    partitions_reused: int = 0
    partitions_recomputed: int = 0
    reused_keys: Tuple[str, ...] = ()
    recomputed_keys: Tuple[str, ...] = ()
    records_changed: int = 0
    reused_checks: int = 0  # solver checks the replayed verdicts originally cost
    fresh_checks: int = 0
    cache: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            "partitions_total": self.partitions_total,
            "partitions_reused": self.partitions_reused,
            "partitions_recomputed": self.partitions_recomputed,
            "reused_keys": list(self.reused_keys),
            "recomputed_keys": list(self.recomputed_keys),
            "records_changed": self.records_changed,
            "reused_checks": self.reused_checks,
            "fresh_checks": self.fresh_checks,
            "cache": dict(self.cache),
        }

    def describe(self) -> str:
        return (
            f"reused {self.partitions_reused}/{self.partitions_total} "
            f"partition(s), recomputed "
            f"[{', '.join(self.recomputed_keys) or '-'}]; "
            f"{self.fresh_checks} fresh solver checks "
            f"(+{self.reused_checks} replayed)"
        )


@dataclass
class IncrementalOutcome:
    """A normal verification result plus reuse statistics."""

    result: VerificationResult
    reuse: ReuseStats

    def describe(self) -> str:
        return self.result.describe() + "\n  " + self.reuse.describe()


class IncrementalVerifier:
    """Verifies one engine version against an evolving zone.

    ``cache`` defaults to an in-memory store; pass a
    :class:`~repro.incremental.cache.SummaryCache` with a directory for
    persistence across processes (the watch daemon does).
    """

    def __init__(
        self,
        zone: Zone,
        version: str = "verified",
        cache: Optional[SummaryCache] = None,
        depth: Optional[int] = None,
        workers: Optional[int] = None,
        options=None,
        planner=None,
        **session_kwargs,
    ) -> None:
        self.zone = zone
        self.version = version
        self.cache = cache if cache is not None else SummaryCache(memory_only=True)
        self.depth = depth
        #: None = recompute misses sequentially with live sessions. Any
        #: integer routes misses through the :mod:`repro.parallel` pool —
        #: including 1, so worker counts are interchangeable (they all run
        #: the same worker code and the same JSON round-trip).
        self.workers = workers
        #: Plain-data knobs shipped to pool workers.
        self.options = options
        #: Session knobs: the options' plain-data ones, overridden by
        #: explicit keywords (live objects such as a custom solver cannot
        #: cross the pool boundary and are only honoured in-process).
        base = options.session_kwargs() if options is not None else {}
        base.pop("depth", None)
        self.session_kwargs = dict(base, **session_kwargs)
        #: The equivalence-class planner, unless a test or benchmark passes
        #: an oracle (``planner="by-label"`` or a planner instance).
        self.planner = make_planner(planner)

    # -- the delta entry point -----------------------------------------------

    def apply(self, delta: ZoneDelta) -> IncrementalOutcome:
        """Apply a delta to the current snapshot and re-verify; only
        units the delta invalidates are recomputed."""
        return self.adopt(delta.apply(self.zone), delta)

    def diff_to(self, new_zone: Zone) -> IncrementalOutcome:
        """Adopt ``new_zone`` (diffing against the current snapshot for the
        change count) and re-verify. The watch daemon's entry point."""
        return self.adopt(new_zone)

    def adopt(self, new_zone: Zone, delta: Optional[ZoneDelta] = None) -> IncrementalOutcome:
        """Adopt a pre-built zone snapshot (with the delta that produced
        it, when the caller has one) and re-verify.

        This is the flat-cost entry point for large zones: when ``delta``
        is given, no O(records) diff runs here, and a delta-maintaining
        planner advances its plan in O(affected) — the benchmark drives
        this path to show per-delta cost independent of zone size."""
        if delta is None:
            delta = delta_mod.diff_zones(self.zone, new_zone)
        self.zone = new_zone
        self.planner.notify_delta(delta)
        return self.verify_current(records_changed=len(delta))

    # -- verification ----------------------------------------------------------

    def verify_current(self, records_changed: int = 0) -> IncrementalOutcome:
        started = time.perf_counter()
        merged = VerificationResult(
            self.version, self.zone.origin.to_text(), True
        )
        stats = ReuseStats(records_changed=records_changed)
        reused: List[str] = []
        recomputed: List[str] = []

        # Plan first: units in stable order, each with its cache verdict
        # (when replayable). Misses are then recomputed — live and in
        # order on the sequential path, pooled when ``workers`` is set —
        # and everything merges back in plan order, so the merged result
        # is independent of where or in what order misses were computed.
        plan = [(unit, self._verdict_key(unit)) for unit in self._plan_units()]
        cached: Dict[int, Tuple[Dict, List[BugReport]]] = {}
        for position, (unit, key) in enumerate(plan):
            verdict = self.cache.get("partition", key)
            if verdict is not None:
                replayed = replay_bugs(verdict)
                if replayed is not None:
                    cached[position] = (verdict, replayed)
        misses = [p for p in range(len(plan)) if p not in cached]
        if self.workers is None:
            fresh = {p: self._recompute_live(*plan[p]) for p in misses}
        else:
            fresh = self._recompute_pooled(plan, misses)

        phase_totals = {"compile": 0.0, "summarize": 0.0, "solve": 0.0}
        for position, (unit, key) in enumerate(plan):
            if position in cached:
                verdict, bugs = cached[position]
                reused.append(unit.id)
                stats.reused_checks += verdict.get("solver_checks", 0)
                verdict, bugs, extra = self._expand_unit(unit, verdict, bugs)
                merged.solver_checks += extra
                merge_partition(merged, unit.id, verdict, bugs, cached=True)
                continue
            verdict, bugs, checks, phases = fresh[position]
            recomputed.append(unit.id)
            merged.solver_checks += checks
            for phase, seconds in (phases or {}).items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
            verdict, bugs, extra = self._expand_unit(unit, verdict, bugs)
            merged.solver_checks += extra
            merge_partition(merged, unit.id, verdict, bugs, cached=False)

        finalize_merged(merged)
        merged.elapsed_seconds = time.perf_counter() - started
        # Each phase summed over the freshly computed units; replayed units
        # add nothing. In-process, every unit runs inside this call, so the
        # sum never exceeds elapsed_seconds; a pool of N workers can sum
        # to up to N times it.
        merged.phase_seconds = {
            phase: round(seconds, 6) for phase, seconds in phase_totals.items()
        }
        stats.partitions_total = len(reused) + len(recomputed)
        stats.partitions_reused = len(reused)
        stats.partitions_recomputed = len(recomputed)
        stats.reused_keys = tuple(reused)
        stats.recomputed_keys = tuple(recomputed)
        stats.fresh_checks = merged.solver_checks
        stats.cache = self.cache.stats()
        return IncrementalOutcome(merged, stats)

    # -- miss recomputation ----------------------------------------------------

    def _recompute_live(
        self, unit: PlanUnit, key: Dict
    ) -> Tuple[Dict, List[BugReport], int, Dict[str, float]]:
        """One cache miss, computed in-process with a live session (the
        sequential path; also the fallback when a pool worker's bugs do
        not serialize — live objects never cross a process boundary)."""
        result = self._verify_unit(unit)
        verdict = verdict_of(result)
        cacheable = verdict is not None and result.verdict in (
            verdicts_mod.VERIFIED, verdicts_mod.BUG
        )
        if cacheable:
            # UNKNOWN/ERROR verdicts reflect a budget or environment,
            # not zone content — never pin them in the cache.
            self.cache.put("partition", key, verdict)
        if verdict is None:
            verdict = verdict_of(result, with_bugs=False)
        return verdict, result.bugs, result.solver_checks, result.phase_seconds

    def _recompute_pooled(
        self, plan: List[Tuple[PlanUnit, Dict]], misses: List[int]
    ) -> Dict[int, Tuple[Dict, List[BugReport], int, Dict[str, float]]]:
        """Cache misses through the process pool (``workers`` set).

        Cache writes stay in the parent (one writer per run; workers only
        write summary/refinement entries through their own handles). A
        worker death falls back to a live in-parent recompute — same
        inputs, same deterministic outcome; a stall degrades the
        unit to ``UNKNOWN(wall-clock-deadline)``.

        Partition units ship the full zone (pickled once, shared);
        equivalence-class units ship their small projected zones — at
        million-record scale the full zone never crosses the pool
        boundary at all.
        """
        import pickle

        from repro.parallel.counters import perf_phases
        from repro.parallel.pool import OK, TIMEOUT, run_units
        from repro.parallel.worker import partition_worker

        options = self._worker_options()
        zone_blob = None
        payloads = []
        for p in misses:
            unit = plan[p][0]
            if unit.kind == KIND_PARTITION:
                if zone_blob is None:
                    zone_blob = pickle.dumps(self.zone)
                blob = zone_blob
                unit_options = options
            else:
                blob = pickle.dumps(self.planner.projected_zone(unit))
                # Pin the projected session to the full zone's encoding
                # depth so gap decoding and witness codes line up with the
                # cache key.
                unit_options = options.with_(depth=self._encoding_depth())
            payloads.append(
                {
                    "index": p,  # stable plan position → deterministic fault plan
                    "zone_pickle": blob,
                    "part_key": unit.part_key,
                    "gap_code": unit.gap_code,
                    "version": self.version,
                    "options": unit_options.to_json(),
                }
            )
        grace = None
        if options.budget_seconds is not None:
            grace = 3.0 * options.budget_seconds + 30.0
        fresh: Dict[int, Tuple[Dict, List[BugReport], int, Dict[str, float]]] = {}
        for pos, status, value in run_units(
            partition_worker, payloads, self.workers, grace
        ):
            position = misses[pos]
            part, key = plan[position]
            if status == OK and value is not None and value["verdict"] is not None:
                verdict = value["verdict"]
                bugs = replay_bugs(verdict)
                if bugs is not None:
                    if verdict.get("verdict") in (
                        verdicts_mod.VERIFIED, verdicts_mod.BUG
                    ):
                        self.cache.put("partition", key, verdict)
                    fresh[position] = (
                        verdict,
                        bugs,
                        verdict.get("solver_checks", 0),
                        perf_phases(value.get("perf")),
                    )
                    continue
            if status == TIMEOUT:
                fresh[position] = (deadline_verdict(), [], 0, {})
                continue
            # Worker died, its bugs did not serialize, or the replay
            # failed: recompute live in the parent.
            fresh[position] = self._recompute_live(part, key)
        return fresh

    def _worker_options(self):
        """The plain-data options shipped to partition workers."""
        from repro.core.options import VerifyOptions

        base = self.options if self.options is not None else VerifyOptions()
        cache_dir = None
        if not self.cache.memory_only:
            cache_dir = str(self.cache.cache_dir)
        changes: Dict[str, object] = {"depth": self.depth, "cache_dir": cache_dir}
        for knob in ("max_paths", "max_steps", "analysis", "analysis_check"):
            if knob in self.session_kwargs:
                changes[knob] = self.session_kwargs[knob]
        return base.with_(**changes)

    def _analysis_enabled(self) -> bool:
        return bool(self.session_kwargs.get("analysis", True))

    # -- internals -------------------------------------------------------------

    def _plan_units(self) -> List[PlanUnit]:
        origin_depth = len(self.zone.origin)
        if origin_depth == 0 or self._encoding_depth() <= origin_depth:
            # The query space cannot be split below this origin; fall back
            # to one unrestricted pseudo-unit regardless of planner.
            return [
                PlanUnit(
                    id="full",
                    kind=KIND_PARTITION,
                    part_key="full",
                    members=("full",),
                )
            ]
        return self.planner.plan(self.zone)

    def _encoding_depth(self) -> int:
        from repro.dns.name import MAX_NAME_DEPTH

        base = self.depth if self.depth is not None else self.zone.max_name_depth() + 2
        return min(base, MAX_NAME_DEPTH)

    def _verdict_key(self, unit: PlanUnit) -> Dict:
        if unit.kind == KIND_PARTITION:
            # A by-label partition (or the unsplit "full" unit) observes
            # the full zone, so the full label universe and top set are
            # pinned (see the module docstring).
            if unit.part_key == "full":
                closure = zone_digest(self.zone)
            else:
                closure = partition_digest(self.zone, unit.part_key)
            return {
                "engine": engine_digest(self.version),
                "layers": layers_digest(),
                "origin": self.zone.origin.to_text(),
                "depth": self._encoding_depth(),
                "universe": self.zone.label_universe(),
                "tops": top_labels(self.zone),
                "partition": unit.part_key,
                "closure": closure,
                # Verdicts are bit-identical with pruning on or off, but the
                # counters a cached verdict replays (solver_checks, analysis
                # telemetry) are not — keep the two populations apart.
                "analysis": self._analysis_enabled(),
            }
        # Equivalence-class keys deliberately omit the zone-wide universe
        # and top set — the whole point of the planner. What they pin
        # instead fully determines the projected session: the unit's
        # α-abstracted content digest, the concrete representative label
        # (α⁻¹), and the concrete gap code the miss unit's witness uses.
        return {
            "planner": self.planner.name,
            "engine": engine_digest(self.version),
            "layers": layers_digest(),
            "origin": self.zone.origin.to_text(),
            "depth": self._encoding_depth(),
            "unit": unit.id,
            "kind": unit.kind,
            "digest": unit.digest,
            "representative": unit.representative,
            "gap_code": unit.gap_code,
            "analysis": self._analysis_enabled(),
        }

    def _session_kwargs_with_budget(self) -> Dict:
        kwargs = dict(self.session_kwargs)
        if self.options is not None and "budget" not in kwargs:
            # Same rule as the pool workers: a fresh budget per unit, so
            # the in-parent fallback is indistinguishable from a worker.
            kwargs["budget"] = self.options.make_budget()
        return kwargs

    def _use_summaries(self) -> bool:
        return self.options.use_summaries if self.options is not None else True

    def _verify_unit(self, unit: PlanUnit) -> VerificationResult:
        if unit.kind == KIND_PARTITION:
            zone, depth = self.zone, self.depth
        else:
            # Equivalence-class units verify against their projected zone
            # — the representative's dependency closure — with the depth
            # pinned to the full zone's so query encodings stay aligned.
            zone, depth = self.planner.projected_zone(unit), self._encoding_depth()
        session = VerificationSession(
            zone,
            self.version,
            depth=depth,
            cache=self.cache,
            **self._session_kwargs_with_budget(),
        )
        pre = unit_preconditions(
            unit.part_key, unit.gap_code, session.query_encoding
        )
        if pre:
            session.restrict(pre)
        return session.verify(use_summaries=self._use_summaries())

    # -- class-member expansion ------------------------------------------------

    def _expand_unit(
        self, unit: PlanUnit, verdict: Dict, bugs: List[BugReport]
    ) -> Tuple[Dict, List[BugReport], int]:
        """Expand a class unit's representative verdict to its members.

        Always live, never cached: the cache stores only the
        representative's verdict, and translation re-validates every
        member natively against its own closure (with symbolic fallback
        when the collapse hypothesis fails). Non-class units pass through
        untouched."""
        if unit.kind != KIND_SUB or len(unit.members) == 0:
            return verdict, bugs, 0
        from repro.incremental import expand

        if verdict.get("verdict") == verdicts_mod.BUG or bugs:
            member_bugs, checks, reason = expand.expand_bugs(
                self.planner, unit, self.version, self.zone.origin, bugs,
                self._member_fallback,
            )
            bugs = []  # superseded by the per-member re-validated reports
        elif verdict.get("verdict") == verdicts_mod.VERIFIED:
            member_bugs, checks, reason = expand.expand_verified(
                self.planner, unit, self.version, self.zone.origin,
                self._member_fallback,
            )
        else:
            # UNKNOWN/ERROR: the unit-level verdict already covers every
            # member; expansion has nothing sound to add.
            return verdict, bugs, 0
        if member_bugs or reason is not None or not bugs:
            verdict = dict(verdict)
            verdict["verified"] = bool(verdict.get("verified")) and not any(
                b.validated for b in member_bugs
            )
            if reason is not None and verdict.get("unknown_reason") is None:
                verdict["verdict"] = verdicts_mod.UNKNOWN
                verdict["unknown_reason"] = reason
            elif any(b.validated for b in member_bugs):
                verdict["verdict"] = verdicts_mod.BUG
        return verdict, bugs + member_bugs, checks

    def _member_fallback(self, member: str) -> VerificationResult:
        """Full symbolic verify of one class member (hypothesis-violation
        escape hatch), restricted to the member's own subtree."""
        session = VerificationSession(
            self.planner.member_zone(member),
            self.version,
            depth=self._encoding_depth(),
            cache=self.cache,
            **self._session_kwargs_with_budget(),
        )
        session.restrict(
            unit_preconditions(
                delta_mod.SUB_PREFIX + member, None, session.query_encoding
            )
        )
        return session.verify(use_summaries=self._use_summaries())
