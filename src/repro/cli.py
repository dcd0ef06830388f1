"""Command-line interface: ``python -m repro <command>``.

Wraps the library the way an operator would use it:

- ``verify``        — run the DNS-V pipeline on a zone file.
- ``campaign``      — verify a version across N generated zones.
- ``differential``  — SCALE-style concrete cross-checking.
- ``summarize``     — print a layer's machine-generated summary spec.
- ``tables``        — regenerate the paper's tables/figures.
- ``zonegen``       — emit random zone files.
- ``serve``         — answer real DNS packets with an engine version.
- ``watch``         — daemon: re-verify a zone file whenever it changes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.engine import control


def _load_zone(args):
    from repro.api import load_zone

    return load_zone(args.zone, origin=getattr(args, "origin", None))


def _add_zone_arguments(parser):
    parser.add_argument(
        "--zone",
        default="evaluation",
        help="zone file path, '-' for stdin, or a builtin name "
        "(evaluation/minimal/paper/chain)",
    )
    parser.add_argument("--origin", default=None, help="origin for relative zone files")


def _runtime_parent() -> argparse.ArgumentParser:
    """The shared runtime flags every long-running subcommand takes
    (``verify``/``campaign``/``watch``), declared once so names, types
    and help text cannot drift between subcommands."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("runtime")
    group.add_argument("--workers", type=int, default=None, metavar="N",
                       help="fan out across N worker processes; the canonical "
                       "report is bit-identical for any N (default: in-process "
                       "sequential)")
    group.add_argument("--budget-seconds", type=float, default=None,
                       help="cooperative wall-clock deadline per unit; "
                       "exhaustion yields an UNKNOWN verdict, not a kill")
    group.add_argument("--fuel", type=int, default=None,
                       help="symbolic step budget per unit; exhaustion "
                       "yields UNKNOWN")
    group.add_argument("--cache", default=None, metavar="DIR",
                       help="persistent summary/refinement cache directory "
                       "(safe to share between concurrent workers)")
    group.add_argument("--json", action="store_true",
                       help="machine-readable output (verdicts, layer/phase "
                       "timings, cache and perf counters)")
    group.add_argument("--faults", default=None, metavar="SPEC",
                       help="fault plan: 'seed:<N>[:<rate>]' or "
                       "'site=count,...' (see repro.resilience.faults)")
    group.add_argument("--no-analysis", action="store_true",
                       help="skip the static panic-pruning pass (ablation: "
                       "every panic guard goes to the solver)")
    group.add_argument("--analysis-check", action="store_true",
                       help="debug: re-ask the solver at each pruned guard "
                       "site that the panic side really is infeasible")
    return parent


def _make_cache(args):
    if getattr(args, "cache", None) is None:
        return None
    from repro.incremental import SummaryCache

    return SummaryCache(cache_dir=args.cache)


def _make_budget(args):
    seconds = getattr(args, "budget_seconds", None)
    fuel = getattr(args, "fuel", None)
    if seconds is None and fuel is None:
        return None
    from repro.resilience import Budget

    return Budget(wall_seconds=seconds, fuel=fuel)


def _parse_faults(spec: Optional[str]):
    if spec is None:
        return None
    from repro.resilience.faults import parse_spec

    return parse_spec(spec)


def _exit_code(verdict: str) -> int:
    """0 VERIFIED, 1 BUG, 2 UNKNOWN/ERROR — scripts can tell 'proved' from
    'refuted' from 'gave up'."""
    from repro.resilience import verdicts

    if verdict == verdicts.VERIFIED:
        return 0
    if verdict == verdicts.BUG:
        return 1
    return 2


def cmd_verify(args) -> int:
    import json

    from repro.core import VerifyOptions, verify_engine
    from repro.resilience import faults, verdicts

    zone = _load_zone(args)
    options = VerifyOptions.from_args(args)
    cache = _make_cache(args)
    # Sequential runs install the fault plan globally; pooled runs
    # (--workers) instead derive one deterministic plan per unit inside
    # each worker, so the parent installs nothing.
    plan = None if options.workers is not None else _parse_faults(args.faults)
    try:
        if plan is not None:
            faults.install(plan)
        try:
            result = verify_engine(zone, args.version, options=options, cache=cache)
        finally:
            if plan is not None:
                faults.clear()
    except (faults.InjectedFault, OSError) as exc:
        error_class, detail = verdicts.classify_error(exc)
        print(f"ERROR ({error_class}): {detail}", file=sys.stderr)
        return 2
    if args.json:
        from repro.incremental.serialize import result_to_json

        print(json.dumps(result_to_json(result, cache_stats=result.cache_stats),
                         indent=2, sort_keys=True))
    else:
        print(result.describe())
        analysis = getattr(result, "analysis", None) or {}
        if args.analysis_check and analysis.get("enabled"):
            pruned = analysis.get("pruned_hits_by_function") or {}
            residual = analysis.get("guard_checks_by_function") or {}
            print("analysis discharge by function:")
            for fn in sorted(set(pruned) | set(residual)):
                print(f"  {fn}: {pruned.get(fn, 0)} guard(s) discharged, "
                      f"{residual.get(fn, 0)} left to the solver")
        if cache is not None:
            print(f"cache: {cache!r}")
    return _exit_code(result.verdict)


def cmd_campaign(args) -> int:
    import json

    from repro.core import run_campaign
    from repro.resilience import faults, verdicts

    if args.status:
        return _campaign_status(args)
    if args.serve:
        return _campaign_serve(args)
    cache = _make_cache(args)
    workers = args.workers
    plan = None if workers is not None else _parse_faults(args.faults)
    if plan is not None:
        faults.install(plan)
    try:
        report = run_campaign(
            args.version,
            num_zones=args.zones,
            seed=args.seed,
            cache=cache,
            budget_seconds=args.budget_seconds,
            budget_fuel=args.fuel,
            checkpoint=args.checkpoint,
            resume=args.resume,
            workers=workers,
            faults=args.faults if workers is not None else None,
        )
    finally:
        if plan is not None:
            faults.clear()
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.describe())
        if cache is not None:
            print(f"cache: {cache!r}")
    if any(v.verdict == verdicts.BUG for v in report.verdicts):
        return 1
    if report.zones_unknown or report.zones_errored:
        return 2
    return 0 if report.zones_refuted == 0 else 1


def _campaign_versions(args) -> tuple:
    raw = args.versions or "verified,v2.0"
    versions = tuple(v.strip() for v in raw.split(",") if v.strip())
    unknown = [v for v in versions if v not in control.ENGINE_VERSIONS]
    if unknown:
        raise SystemExit(
            f"unknown engine version(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(control.ENGINE_VERSIONS))})"
        )
    return versions


def _campaign_serve(args) -> int:
    """``repro campaign --serve``: the continuous campaign service.

    Runs until drained (SIGTERM/SIGINT), ``--duration`` elapses, or
    ``--units`` have been scheduled. Exit 0 on a clean drain (BUG
    findings are the service's product, not a failure), 2 when the
    supervision circuit breaker opened.
    """
    import json
    import signal

    from repro.campaign import CampaignService, CampaignServiceConfig
    from repro.core import VerifyOptions

    config = CampaignServiceConfig(
        corpus_dir=args.corpus_dir,
        seed=args.seed,
        versions=_campaign_versions(args),
        units=args.units,
        duration=args.duration,
        batch_tasks=args.batch_tasks,
        checkpoint=args.checkpoint,
        events=args.events,
        ledger=args.ledger,
        resume=args.resume,
        status_port=args.status_port,
        host=args.host,
        minimize=not args.no_minimize,
        max_failures=args.max_failures,
    )
    options = VerifyOptions.from_args(args)
    service = CampaignService(config, options=options)
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *_: service.request_stop())
        except ValueError:
            pass  # not the main thread
    report = service.run()
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return report.exit_code


def _campaign_status(args) -> int:
    """``repro campaign --status``: one status snapshot, as JSON.

    A running service is discovered through ``<corpus-dir>/service.json``
    and queried over its one-shot status socket; once the service has
    stopped the registry file carries its final snapshot instead.
    """
    import json

    from repro.campaign import SERVICE_FILE, query_status

    registry = Path(args.corpus_dir) / SERVICE_FILE
    if not registry.exists():
        print(f"no campaign service registry at {registry}", file=sys.stderr)
        return 2
    with open(registry, "r", encoding="utf-8") as handle:
        info = json.load(handle)
    status = None
    if info.get("state") == "running" and info.get("status_port"):
        try:
            status = query_status(info.get("host", "127.0.0.1"),
                                  info["status_port"])
        except OSError:
            status = None  # stale registry (SIGKILL): fall through
    if status is None:
        status = info.get("status", info)
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def cmd_watch(args) -> int:
    from repro.core import VerifyOptions
    from repro.incremental import SummaryCache, WatchDaemon

    cache = _make_cache(args)
    options = VerifyOptions.from_args(args)
    daemon = WatchDaemon(
        args.zone,
        version=args.version,
        cache=cache if cache is not None else SummaryCache(memory_only=True),
        interval=args.interval,
        max_failures=args.max_failures,
        workers=options.workers,
        options=options,
    )
    daemon.run(max_updates=args.max_updates)
    return 2 if daemon.breaker.is_open else 0


def cmd_faultdrill(args) -> int:
    from repro.testing import fault_drill

    report = fault_drill(args.version)
    print(report.describe())
    return 0 if report.clean else 1


def cmd_chaosdrill(args) -> int:
    """``repro chaosdrill --serve``: soak the live serving plane under a
    seeded fault storm and assert its invariants (see
    :mod:`repro.testing.chaosdrill`). Exit 1 on any violated invariant.
    """
    import json as json_mod

    from repro.testing.chaosdrill import ChaosDrillConfig, chaos_drill

    if not args.serve:
        print("chaosdrill currently has one mode: pass --serve "
              "(site-by-site drills live under `repro faultdrill`)",
              file=sys.stderr)
        return 2
    config = ChaosDrillConfig(
        seed=args.seed,
        queries=args.queries,
        fault_rate=args.rate,
        deltas=args.deltas,
        version=args.version,
        qps_capacity=args.qps_capacity,
        duration=args.duration,
    )
    report = chaos_drill(config, workdir=args.workdir)
    if args.json:
        print(json_mod.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json_mod.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if report.clean else 1


def _sarif_report(findings, rules):
    """Findings as a SARIF 2.1.0 subset: one run, one result per finding.

    Only the stable core of the schema — tool.driver.rules and
    results[].ruleId/message/locations — so code-scanning UIs ingest it
    without the repo committing to the full spec.
    """
    from repro import __version__ as tool_version

    results = []
    for finding in findings:
        region = {}
        if finding.line is not None:
            region["startLine"] = finding.line
        if finding.col is not None:
            region["startColumn"] = finding.col + 1
        results.append({
            "ruleId": finding.rule,
            "level": "warning",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": region,
                },
                "logicalLocations": [{
                    "fullyQualifiedName":
                        f"{finding.module}:{finding.function}",
                }],
            }],
            "partialFingerprints": {"baselineKey": finding.baseline_key()},
        })
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "version": tool_version,
                    "rules": [
                        {"id": rule,
                         "shortDescription": {"text": text}}
                        for rule, text in sorted(rules.items())
                    ],
                },
            },
            "results": results,
        }],
    }


def cmd_lint(args) -> int:
    """``repro lint``: the GoPy anti-modularity linter.

    Without a baseline this is a report (exit 0). With ``--baseline`` it
    becomes a gate: exit 1 only on findings the baseline does not
    grandfather, so adopting the linter never requires a flag-day cleanup.
    """
    import json as json_mod
    import os

    from repro.analysis import lint as lint_mod
    from repro.analysis import lint_async

    fmt = args.format or ("json" if args.json else "text")
    versions = (
        sorted(control.ENGINE_VERSIONS)
        if args.version == "all"
        else [args.version]
    )
    findings = lint_mod.lint_versions(versions)
    if not args.no_runtime:
        findings = sorted(findings + lint_async.lint_runtime(),
                          key=lint_mod._sort_key)

    if args.update_baseline:
        lint_mod.save_baseline(args.update_baseline, findings)
        print(f"wrote {len(findings)} findings to {args.update_baseline}")
        return 0

    fresh = None
    if args.baseline:
        if not os.path.exists(args.baseline):
            print(f"baseline {args.baseline} not found "
                  f"(create it with --update-baseline)", file=sys.stderr)
            return 2
        fresh = lint_mod.new_findings(findings, lint_mod.load_baseline(args.baseline))

    if fmt == "json":
        payload = {
            "versions": versions,
            "rules": lint_mod.RULES,
            "findings": [f.to_dict() for f in findings],
        }
        if fresh is not None:
            payload["new_findings"] = [f.to_dict() for f in fresh]
        print(json_mod.dumps(payload, indent=2))
    elif fmt == "sarif":
        print(json_mod.dumps(_sarif_report(findings, lint_mod.RULES),
                             indent=2, sort_keys=True))
    else:
        shown = findings if fresh is None else fresh
        for finding in shown:
            print(finding.format())
        if fresh is None:
            print(f"{len(findings)} finding(s)")
        else:
            print(f"{len(findings)} finding(s), "
                  f"{len(fresh)} new vs {args.baseline}")
    return 1 if fresh else 0


def cmd_differential(args) -> int:
    from repro.testing import differential_test

    zone = _load_zone(args)
    result = differential_test(zone, args.version)
    print(result.describe())
    return 0 if result.clean else 1


def cmd_summarize(args) -> int:
    from repro.core.layers import resolution_layers
    from repro.core.pipeline import VerificationSession

    zone = _load_zone(args)
    session = VerificationSession(zone, args.version)
    for layer in resolution_layers():
        summary = session.summarize_layer(layer)
        if layer.function == args.layer or args.layer == "all":
            print(summary.describe())
            print()
        if layer.function == args.layer:
            break
    return 0


def cmd_tables(args) -> int:
    from repro import reporting

    renderers = {
        "table1": reporting.render_table1,
        "table2": reporting.render_table2,
        "table3": reporting.render_table3,
        "fig10": reporting.render_fig10,
        "fig12": reporting.render_fig12,
    }
    targets = renderers if args.which == "all" else {args.which: renderers[args.which]}
    for name, renderer in targets.items():
        print(renderer())
        print()
    return 0


def cmd_zonegen(args) -> int:
    from repro.dns.zonefile import zone_to_text
    from repro.zonegen import GeneratorConfig, ZoneGenerator, tld_zone

    if args.scale is not None:
        zone = tld_zone(args.scale, seed=args.seed)
        text = zone_to_text(zone)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
                if not text.endswith("\n"):
                    handle.write("\n")
            print(f"wrote {len(zone)} records to {args.out}")
        else:
            print(text)
        return 0
    generator = ZoneGenerator(GeneratorConfig(seed=args.seed))
    for index, zone in enumerate(generator.stream(args.count)):
        if args.count > 1:
            print(f"; --- zone {index} ---")
        print(zone_to_text(zone))
    return 0


def cmd_serve(args) -> int:
    """``repro serve``: the verified serving plane (see repro.serve).

    Binds UDP+TCP on ``--port`` and a JSON status channel on
    ``--status-port``; with ``--watch FILE`` zone-file changes funnel
    through the verify-then-publish gate (a delta that fails to re-verify
    is held, the old snapshot keeps answering). ``--journal FILE`` makes
    publishes crash-safe (fsync'd intent records, replayed on boot);
    ``--max-qps`` arms the graceful-degradation ladder. SIGTERM/SIGINT
    drain gracefully: stop accepting, finish in-flight queries, exit 0.
    Exit code 2 when the gate alarm or the reloader's circuit breaker is
    raised at shutdown.
    """
    import asyncio
    import json
    import signal

    from repro.core import VerifyOptions
    from repro.serve import ZoneReloader, ZoneServer

    zone = _load_zone(args)
    options = VerifyOptions.from_args(args)
    server = ZoneServer(
        zone,
        args.version,
        host=args.host,
        port=args.port,
        status_port=args.status_port,
        rate_limit=args.rate_limit,
        selfcheck_every=args.selfcheck_every,
        cache=_make_cache(args),
        options=options,
        workers=options.workers,
        journal=args.journal,
        max_qps=args.max_qps,
    )

    async def serve_main() -> int:
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without loop signal handlers
        if not args.json:
            print(
                f"serving {zone.origin.to_text()} with engine {args.version} "
                f"on {server.host}:{server.port} (udp+tcp), status on "
                f"port {server.status_port}"
            )
            if server.recovered_sequence is not None:
                print(f"journal recovery: resumed at publish "
                      f"#{server.recovered_sequence}")
        if args.verify_boot:
            boot = await server.verify_boot()
            if not args.json:
                print(f"boot verification: {boot.describe()}")
        reloader_task = None
        reloader = None
        if args.watch:
            reloader = ZoneReloader(args.watch, server.gate)
            reloader.prime()
            reloader_task = asyncio.ensure_future(
                reloader.run(interval=args.interval)
            )
            if not args.json:
                print(f"watching {args.watch} (publish gated on re-verification)")
        try:
            await server.run_forever(duration=args.duration,
                                     grace=args.grace)
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            if reloader_task is not None:
                reloader_task.cancel()
                try:
                    await reloader_task
                except asyncio.CancelledError:
                    pass
            await server.stop()
        status = server.status()
        if reloader is not None:
            status["reloader"] = reloader.as_dict()
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        alarmed = status["gate"]["alarm"] is not None
        if reloader is not None and reloader.breaker.is_open:
            alarmed = True
        return 2 if alarmed else 0

    try:
        return asyncio.run(serve_main())
    except KeyboardInterrupt:
        return 0
    except Exception as exc:
        from repro.serve import RecoveryError

        if isinstance(exc, RecoveryError):
            print(f"refusing to start: {exc}", file=sys.stderr)
            return 2
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DNS-V: automated verification of a DNS authoritative engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    versions = sorted(control.ENGINE_VERSIONS)
    runtime = _runtime_parent()

    p = sub.add_parser("verify", help="verify an engine version on a zone",
                       parents=[runtime])
    _add_zone_arguments(p)
    p.add_argument("--version", default="verified", choices=versions)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "campaign",
        help="verify across N random zones, or run the continuous "
        "differential-fuzzing campaign service (--serve)",
        parents=[runtime],
    )
    p.add_argument("--version", default="verified", choices=versions)
    p.add_argument("--zones", type=int, default=5)
    p.add_argument("--seed", type=int, default=2023)
    p.add_argument("--checkpoint", default=None, metavar="FILE",
                   help="JSONL checkpoint: one atomic record per finished zone "
                   "(service default: <corpus-dir>/checkpoint.jsonl)")
    p.add_argument("--resume", action="store_true",
                   help="replay finished units from the checkpoint instead of "
                   "re-running; a resumed service's ledger is bit-identical "
                   "to an uninterrupted run's")
    service_group = p.add_argument_group(
        "campaign service (continuous differential fuzzing)")
    service_group.add_argument(
        "--serve", action="store_true",
        help="run the continuous campaign service: generated + mutated + "
        "regression zones across --versions, with a regression store, "
        "JSONL events and a status socket")
    service_group.add_argument(
        "--status", action="store_true",
        help="print one JSON status snapshot of the service registered "
        "in --corpus-dir and exit")
    service_group.add_argument(
        "--versions", default=None, metavar="V1,V2",
        help="comma-separated engine versions each zone fans across "
        "(default: verified,v2.0)")
    service_group.add_argument(
        "--units", type=int, default=None, metavar="N",
        help="stop once at least N units were scheduled (deterministic "
        "schedule; default: unbounded)")
    service_group.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="stop after S wall-clock seconds (checked between batches)")
    service_group.add_argument(
        "--corpus-dir", default="campaign-corpus", metavar="DIR",
        help="regression store + default checkpoint/events/ledger/registry "
        "location (default: campaign-corpus)")
    service_group.add_argument(
        "--events", default=None, metavar="FILE",
        help="append-only JSONL event stream "
        "(default: <corpus-dir>/events.jsonl)")
    service_group.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="canonical verdict ledger, rewritten per run "
        "(default: <corpus-dir>/ledger.jsonl)")
    service_group.add_argument(
        "--status-port", type=int, default=0, metavar="PORT",
        help="one-shot JSON status socket port (0 picks a free one)")
    service_group.add_argument("--host", default="127.0.0.1")
    service_group.add_argument(
        "--batch-tasks", type=int, default=None, metavar="N",
        help="zone-tasks per scheduling batch (default: worker count)")
    service_group.add_argument(
        "--no-minimize", action="store_true",
        help="store captured regression zones as-is instead of minimizing "
        "them against the differential oracle")
    service_group.add_argument(
        "--max-failures", type=int, default=5,
        help="consecutive batch failures before the supervision circuit "
        "breaker stops the service (exit 2)")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("differential", help="concrete cross-checking on a zone")
    _add_zone_arguments(p)
    p.add_argument("--version", default="verified", choices=versions)
    p.set_defaults(func=cmd_differential)

    p = sub.add_parser("summarize", help="print a layer's summary specification")
    _add_zone_arguments(p)
    p.add_argument("--version", default="verified", choices=versions)
    p.add_argument("--layer", default="tree_search",
                   help="tree_search, find, or all")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("tables", help="regenerate the paper's tables/figures")
    p.add_argument("which", nargs="?", default="all",
                   choices=["all", "table1", "table2", "table3", "fig10", "fig12"])
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("zonegen", help="emit random zone files")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=2023)
    p.add_argument("--scale", type=int, default=None, metavar="N",
                   help="emit one TLD-shaped zone with exactly N records "
                   "(deterministic per seed; up to millions) instead of "
                   "--count random zones")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the zone file to FILE instead of stdout "
                   "(--scale mode)")
    p.set_defaults(func=cmd_zonegen)

    p = sub.add_parser(
        "serve",
        help="authoritative server (UDP+TCP) with a verify-then-publish "
        "gate on zone updates",
        parents=[runtime],
    )
    _add_zone_arguments(p)
    p.add_argument("--version", default="verified", choices=versions)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=5353,
                   help="UDP+TCP port (0 picks a free one)")
    p.add_argument("--status-port", type=int, default=8053,
                   help="JSON status channel port (0 picks a free one)")
    p.add_argument("--rate-limit", type=float, default=None, metavar="QPS",
                   help="per-client token-bucket rate limit")
    p.add_argument("--selfcheck-every", type=int, default=0, metavar="N",
                   help="replay every Nth live query differentially against "
                   "the verified engine (0 disables)")
    p.add_argument("--watch", default=None, metavar="FILE",
                   help="tail FILE; changed zones publish only after their "
                   "delta re-verifies")
    p.add_argument("--interval", type=float, default=1.0,
                   help="zone-file poll interval in seconds")
    p.add_argument("--duration", type=float, default=None,
                   help="serve for N seconds then exit (default: forever)")
    p.add_argument("--verify-boot", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="verify the boot zone before announcing readiness "
                   "(a failure alarms but still serves)")
    p.add_argument("--journal", default=None, metavar="FILE",
                   help="crash-safe publish journal: fsync'd intent records "
                   "appended before every snapshot swap, replayed on boot")
    p.add_argument("--max-qps", type=float, default=None, metavar="QPS",
                   help="arm the graceful-degradation ladder with this "
                   "capacity (shed self-check -> TC=1 -> SERVFAIL -> drop)")
    p.add_argument("--grace", type=float, default=5.0,
                   help="seconds to let in-flight queries finish on "
                   "SIGTERM/SIGINT before closing (default 5)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "watch", help="re-verify a zone file whenever it changes (mtime polling)",
        parents=[runtime],
    )
    p.add_argument("--zone", required=True, help="zone file path to tail")
    p.add_argument("--version", default="verified", choices=versions)
    p.add_argument("--interval", type=float, default=1.0,
                   help="poll interval in seconds")
    p.add_argument("--max-updates", type=int, default=None,
                   help="exit after N processed updates (default: run forever)")
    p.add_argument("--max-failures", type=int, default=5,
                   help="consecutive failing polls before the circuit breaker "
                   "opens and the daemon exits")
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser(
        "faultdrill",
        help="inject a fault at every known site; prove each degrades "
        "to a typed verdict",
    )
    p.add_argument("--version", default="verified", choices=versions)
    p.set_defaults(func=cmd_faultdrill)

    p = sub.add_parser(
        "chaosdrill",
        help="soak the live serving plane under a seeded fault storm; "
        "assert the chaos invariants",
    )
    p.add_argument("--serve", action="store_true",
                   help="soak the serving plane (the only mode today)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the query mix and the fault plan")
    p.add_argument("--queries", type=int, default=400,
                   help="queries to drive through the live sockets")
    p.add_argument("--duration", type=float, default=None, metavar="S",
                   help="wall-clock cap on the drive loop: stop sending "
                   "after S seconds even if --queries remain")
    p.add_argument("--rate", type=float, default=0.02,
                   help="per-consult fault probability across serve.* sites")
    p.add_argument("--deltas", type=int, default=3,
                   help="gated zone deltas landed mid-soak (one is "
                   "bug-triggering and must be held)")
    p.add_argument("--version", default="v2.0", choices=versions,
                   help="engine version to serve (default v2.0: a buggy "
                   "engine the gate must protect)")
    p.add_argument("--qps-capacity", type=float, default=800.0,
                   help="degradation-ladder capacity during the soak")
    p.add_argument("--workdir", default=None, metavar="DIR",
                   help="keep the zone file + journal in DIR "
                   "(default: a temp dir)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write the JSON report to FILE")
    p.set_defaults(func=cmd_chaosdrill)

    p = sub.add_parser(
        "lint",
        help="GoPy linter: subset violations, dead code, use-before-def, "
        "anti-modularity smells (stable GPxxx rule ids)",
    )
    p.add_argument("--version", default="all", choices=versions + ["all"],
                   help="engine version to lint (default: all)")
    p.add_argument("--format", default=None, dest="format",
                   choices=["text", "json", "sarif"],
                   help="output format (default: text; 'sarif' is a stable "
                   "SARIF 2.1.0 subset for code-scanning UIs)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable findings (alias for --format json)")
    p.add_argument("--no-runtime", action="store_true",
                   help="skip the GP4xx async-safety pack over the serving "
                   "and campaign planes; lint only the GoPy engine versions")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="grandfather the findings recorded in FILE; exit 1 "
                   "only on new ones")
    p.add_argument("--update-baseline", default=None, metavar="FILE",
                   help="write the current findings to FILE and exit 0")
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
