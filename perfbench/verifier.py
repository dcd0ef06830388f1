"""The verify-corpus worker: one fresh process, set-up, then the corpus.

Run by ``perfbench/run.py``; it prints JSON lines on stdout. The first,
``{"event": "ready"}``, is printed once the engine modules are imported,
compiled and analysed (the parent times the process up to it). With
``--setup-only`` the process exits there. Otherwise it verifies every
(zone, version) pair of the corpus sequentially with ``verify_engine``
at ``VerifyOptions()`` defaults and no persistent cache, checks each
verdict against the differential oracle right after it (outside the
timed region) and prints ``{"event": "result", ...}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

VERSIONS = ("verified", "v2.0")


def emit(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def corpus_zones(seed: int, generated: int):
    """The evaluation zone plus ``generated`` zones from the seeded
    ``ZoneGenerator`` stream, stratified by shape so that every seed's
    corpus has the same mix: the first zone with a wildcard at the apex,
    the first with a name three labels below the apex, then the first
    zones with neither. An apex wildcard about doubles a zone's time to
    verdict and a deep name adds a third, so letting their number vary
    with the seed would make the corpus time vary with it too."""
    from repro.zonegen.corpus import evaluation_zone
    from repro.zonegen.generator import GeneratorConfig, ZoneGenerator

    generator = ZoneGenerator(GeneratorConfig(seed=seed, num_hosts=1,
                                              max_depth=2))
    quota = {"apex-wildcard": 1, "deep": 1, "plain": max(0, generated - 2)}
    zones = [("evaluation", evaluation_zone())]
    index = 0
    while len(zones) < 1 + generated:
        zone = generator.generate(index)
        shape = _shape(zone)
        if quota[shape] > 0:
            quota[shape] -= 1
            zones.append((f"gen-{seed}-{index}-{shape}", zone))
        index += 1
    return zones


def _shape(zone) -> str:
    if any(record.rname.is_wildcard
           and record.rname.wildcard_parent() == zone.origin for record in zone):
        return "apex-wildcard"
    if zone.max_name_depth() - len(zone.origin) >= 3:
        return "deep"
    return "plain"


def check_verdict(version: str, result, divergences: int) -> list:
    """The verdict oracle: problems with one verdict (empty when right).

    ``verified`` must be VERIFIED. A bug-seeded version must be BUG with
    a natively validated witness, unless the differential tester also
    finds nothing on this zone (then VERIFIED is the right answer). Any
    differential divergence requires BUG.
    """
    problems = []
    verdict = result.verdict
    if verdict not in ("VERIFIED", "BUG"):
        problems.append(f"verdict {verdict} ({result.unknown_reason})")
    if version == "verified" and verdict != "VERIFIED":
        problems.append(f"verified engine got {verdict}")
    if divergences and verdict != "BUG":
        problems.append(f"{divergences} differential divergence(s) but {verdict}")
    if version != "verified" and verdict == "VERIFIED" and divergences:
        problems.append("buggy version VERIFIED over a divergence")
    if verdict == "BUG" and not any(b.validated for b in result.bugs):
        problems.append("BUG verdict without a natively validated witness")
    return problems


def verdict_row(name: str, zone, version: str, result, seconds: float) -> dict:
    """One verdict, checked against the differential oracle (untimed)."""
    from repro.testing.differential import differential_test

    divergences = len(differential_test(zone, version).divergences)
    analysis = result.analysis or {}
    return {
        "zone": name,
        "records": len(zone),
        "version": version,
        "verdict": result.verdict,
        "bugs": len(result.bugs),
        "seconds": seconds,
        "solver_checks": result.solver_checks,
        "divergences": divergences,
        "problems": check_verdict(version, result, divergences),
        "guards_total": analysis.get("guards_total", 0),
        "guards_pruned": analysis.get("guards_pruned", 0),
        "prepass_checks": analysis.get("guard_prepass_checks", 0),
        "prepass_unsat": analysis.get("guard_prepass_unsat", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--generated", type=int, default=3)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer, install_verify_layers

        tracer = Tracer()
        install_verify_layers(tracer)
    from repro.core.options import VerifyOptions
    from repro.core.pipeline import compile_engine_modules, verify_engine

    options = VerifyOptions()
    for version in VERSIONS:
        compile_engine_modules(version, analysis=options.analysis)
    emit({"event": "ready"})
    if args.setup_only:
        return 0
    setup_trace = tracer.as_dict() if tracer is not None else None

    zones = corpus_zones(args.seed, args.generated)
    overhead = None
    if tracer is not None:
        # Tracing overhead: the first verdict once untraced, then again
        # traced as part of the corpus below.
        tracer.enabled = False
        started = time.perf_counter()
        verify_engine(zones[0][1], VERSIONS[0], VerifyOptions())
        untraced = time.perf_counter() - started
        tracer.enabled = True
        tracer.reset()

    rows = []
    for name, zone in zones:
        for version in VERSIONS:
            # Each verdict starts from a collected heap and nothing of the
            # previous verdicts stays alive, as in a one-shot verify.
            gc.collect()
            started = time.perf_counter()
            if tracer is None:
                result = verify_engine(zone, version, VerifyOptions())
            else:
                with tracer.span("verdict"):
                    result = verify_engine(zone, version, VerifyOptions())
            seconds = time.perf_counter() - started
            if tracer is not None:
                tracer.enabled = False
            rows.append(verdict_row(name, zone, version, result, seconds))
            del result
            if tracer is not None:
                tracer.enabled = True
    if tracer is not None:
        overhead = rows[0]["seconds"] / untraced - 1.0
    emit({
        "event": "result",
        "corpus_seconds": sum(row["seconds"] for row in rows),
        "verdicts": rows,
        "setup_trace": setup_trace,
        "trace": tracer.as_dict() if tracer is not None else None,
        "trace_overhead": overhead,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
