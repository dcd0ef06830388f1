"""The three workloads: verify-corpus, serve-mix and publish-under-load.

Each function takes the seed, the measuring time and the trace flag, runs
the system through its public entry points in worker processes, checks
every output against an oracle, and returns a :class:`Run`: the
end-to-end figures (``trace=False``) or the per-layer ones
(``trace=True``), the failures, and details for the report.
"""

from __future__ import annotations

import json
import random
import shutil
import socket
import statistics
import string
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from perfbench.child import Child, ChildError, pid_alive
from perfbench.loadgen import (
    AnswerOracle,
    open_loop,
    percentile,
    query_mix,
    wire_queries,
)

#: Extra fresh processes per run that only set up, for the median set-up.
SETUP_PROBES = 2
#: Open-loop rates (queries per second). serve-mix runs at about half of
#: one core's answering capacity on a 2-CPU host. While the prover thread
#: runs, the event loop gets the interpreter lock about once per switch
#: interval (5 ms), so it answers only ~200 qps: publish-under-load runs
#: at half of that, where no query is lost and the stall shows as latency.
SERVE_RATE = 3000.0
PUBLISH_RATE = 100.0
#: Pause between one publish returning and the next one starting.
PUBLISH_PAUSE = 0.25
#: A phase whose sends left later than this at p90 measured the
#: generator, not the server: it is discarded and run again, up to
#: ATTEMPTS phases in all.
LATENESS_LIMIT_S = 0.001
ATTEMPTS = 3
#: max_qps ladder: a rung passes with p90 under the limit, loss at most
#: 0.1% and no growing backlog (last quarter's p90 under the limit too).
LADDER_P90_LIMIT_S = 0.002
LADDER_LOSS = 0.001
LADDER_STEP = 1.15
LADDER_TRIAL_S = 0.75
#: Share of serve-mix's measuring time spent at the fixed rate; the rest
#: climbs the ladder.
FIXED_SHARE = 0.6
QUERY_POOL = 4096


class InvalidRun(RuntimeError):
    """The load generator fell behind its schedule; no figures."""


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, tuple] = field(default_factory=dict)  # name -> (value, unit)
    details: Dict[str, object] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        """A whole-run invariant: counted as one attempt, failed or not."""
        self.attempted += 1
        if not ok:
            self.fail(problem)


def _median_setup(module: str, args: List[str], scratch: Path, first: float,
                  timeout: float = 120.0) -> tuple:
    """Set-up time of ``first`` plus ``SETUP_PROBES`` fresh set-up-only
    processes; returns (median, all)."""
    times = [first]
    for _ in range(SETUP_PROBES):
        child = Child(module, args, scratch)
        try:
            child.wait_event("ready", timeout)
            times.append(time.perf_counter() - child.started)
        finally:
            code = child.finish()
        if code != 0:
            raise ChildError(f"{module} set-up probe exited {code}")
    return statistics.median(times), times


# -- verify-corpus ---------------------------------------------------------------


def verify_corpus(seed: int, seconds: int, trace: bool, scratch: Path) -> Run:
    run = Run()
    generated = max(3, seconds // 3)
    args = ["--seed", str(seed), "--generated", str(generated),
            "--trace", str(int(trace))]
    child = Child("perfbench.verifier", args, scratch)
    try:
        child.wait_event("ready", 120)
        setup_first = time.perf_counter() - child.started
        result = child.wait_event("result", 170)
    finally:
        code = child.finish()
    run.check(code == 0, f"verifier exited {code}")
    rows = result["verdicts"]
    for row in rows:
        run.attempted += 1
        if row["problems"]:
            run.fail(f"{row['zone']} {row['version']}: " + "; ".join(row["problems"]))
    times = [row["seconds"] for row in rows]
    run.details.update(
        corpus_s=result["corpus_seconds"],
        verdict_p50_s=statistics.median(times),
        verdict_p90_s=percentile(times, 0.9),
        verdicts=[{k: row[k] for k in ("zone", "records", "version", "verdict",
                                       "bugs", "seconds", "solver_checks",
                                       "divergences")} for row in rows],
    )
    if trace:
        run.metrics.update(verify_layer_metrics(result, len(rows)))
        return run
    setup, setups = _median_setup("perfbench.verifier",
                                  ["--seed", str(seed), "--setup-only"],
                                  scratch, setup_first)
    run.details["setup_runs_s"] = setups
    run.metrics.update(
        setup_s=(setup, "s"),
        p50_ms=(statistics.median(times) * 1e3, "ms"),
        work_ms_per_op=(result["corpus_seconds"] / len(rows) * 1e3, "ms"),
    )
    return run


def _spans(trace) -> Dict[str, Dict[str, int]]:
    return (trace or {}).get("spans", {})


def _self_s(spans, *names) -> float:
    return sum(spans.get(name, {}).get("self_ns", 0) for name in names) / 1e9


def _total_s(spans, name) -> float:
    return spans.get(name, {}).get("total_ns", 0) / 1e9


def _calls(spans, name) -> int:
    return spans.get(name, {}).get("count", 0)


def verify_layer_metrics(result, verdicts: int) -> Dict[str, tuple]:
    setup = _spans(result["setup_trace"])
    spans = _spans(result["trace"])
    counters = result["trace"]["counters"]
    rows = result["verdicts"]
    per = 1.0 / verdicts
    root = _total_s(spans, "verdict")
    unattributed = _self_s(spans, "verdict")
    checks = _calls(spans, "solver.check")
    solver_total = _total_s(spans, "solver.check")
    guards = sum(row["guards_total"] for row in rows)
    prepass = sum(row["prepass_checks"] for row in rows)
    violations = (result["trace"]["violations"]
                  + result["setup_trace"]["violations"])
    return {
        "frontend.compile_s": (_self_s(setup, "frontend.compile"), "s"),
        "analysis.prune_s": (_self_s(setup, "analysis.prune"), "s"),
        "analysis.summaries_s": (_self_s(setup, "analysis.summaries"), "s"),
        "analysis.guards_pruned_ratio": (
            sum(row["guards_pruned"] for row in rows) / guards if guards else 0.0,
            "ratio"),
        "summary.treesearch_s": (_self_s(spans, "summary.tree_search") * per, "s"),
        "summary.find_s": (_self_s(spans, "summary.find") * per, "s"),
        "summary.paths": ((counters.get("summary.tree_search.paths", 0)
                           + counters.get("summary.find.paths", 0)) * per,
                          "count"),
        "refine.resolve_self_s": (_self_s(spans, "refine.resolve") * per, "s"),
        "solver.check_s": (_self_s(spans, "solver.check") * per, "s"),
        "solver.theory_s": (_self_s(spans, "solver.theory") * per, "s"),
        "solver.checks": (checks * per, "count"),
        "solver.us_per_check": (solver_total / checks * 1e6 if checks else 0.0,
                                "us"),
        "solver.prepass_unsat_ratio": (
            sum(row["prepass_unsat"] for row in rows) / prepass if prepass else 0.0,
            "ratio"),
        "validate.native_s": (_self_s(spans, "native.engine", "native.spec") * per,
                              "s"),
        "verify.unattributed_s": (unattributed * per, "s"),
        "verify.attributed_ratio": (1.0 - unattributed / root if root else 0.0,
                                    "ratio"),
        "trace.overhead_ratio": (result["trace_overhead"], "ratio"),
        "trace.violations": (violations, "count"),
    }


# -- the serving workloads -------------------------------------------------------


def _connect(port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
    sock.connect(("127.0.0.1", port))
    sock.setblocking(False)
    return sock


def _status(port: int) -> Dict:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        return json.loads(conn.makefile().readline())


def _lateness_p90(load) -> float:
    return percentile(load.lateness, 0.9) if load.lateness else 0.0


def _behind(load) -> bool:
    return _lateness_p90(load) > LATENESS_LIMIT_S


def _invalid(load) -> InvalidRun:
    return InvalidRun(f"generator lateness p90 {_lateness_p90(load) * 1e6:.0f}us "
                      f"at {load.rate:.0f} qps exceeds "
                      f"{LATENESS_LIMIT_S * 1e6:.0f}us in {ATTEMPTS} phases")


def _check_answers(run: Run, oracle: AnswerOracle, zones, load, allowed_of,
                   missing_fails: bool = True) -> None:
    """Every query of ``load`` is one attempt; a missing or wrong reply
    is one failure (a missing one only when ``missing_fails``)."""
    for index in range(load.sent):
        reply = load.replies.get(index)
        if reply is None:
            if missing_fails:
                run.attempted += 1
                run.fail(f"query {index}: no reply")
            continue
        run.attempted += 1
        problem = oracle.check(zones, allowed_of(index), index % len(oracle.queries),
                               reply)
        if problem is not None:
            run.fail(f"query {index}: {problem}")


def _teardown(run: Run, server: Child) -> None:
    """Stop the server and check that it and its children are gone."""
    children = server.descendants()
    try:
        server.send({"cmd": "stop"})
        server.wait_event("stopped", 30)
    except (ChildError, BrokenPipeError) as exc:
        run.fail(f"server stop: {exc}")
    code = server.finish()
    run.check(code == 0, f"server exited {code}")
    deadline = time.monotonic() + 5.0
    while any(pid_alive(pid) for pid in children) and time.monotonic() < deadline:
        time.sleep(0.05)
    leftovers = [pid for pid in children if pid_alive(pid)]
    run.check(not leftovers and not pid_alive(server.pid),
              f"processes left after the server exited: {leftovers}")


def _check_status(run: Run, status: Dict, sent: int) -> None:
    """Server-side conservation: every query left as a reply or a drop,
    and the server saw exactly what the generator sent."""
    metrics = status["metrics"]
    run.check(metrics["conservation"]["conserved"],
              f"queries {metrics['queries']} != responses + drops "
              f"{metrics['conservation']['accounted']}")
    run.check(metrics["queries"] == sent,
              f"server counted {metrics['queries']} queries, generator sent {sent}")


def _boot_server(args: List[str], scratch: Path) -> tuple:
    server = Child("perfbench.server", args, scratch)
    try:
        ready = server.wait_event("ready", 120)
    except ChildError:
        server.kill()
        raise
    return server, ready, time.perf_counter() - server.started


def _mix(seed: int):
    from repro.zonegen.corpus import evaluation_zone

    zone = evaluation_zone()
    queries = query_mix(zone, seed, QUERY_POOL)
    return zone, queries, wire_queries(queries)


def _open_loop_valid(server: Child, sock, packets, rate, seconds):
    """One open-loop phase, repeated while the generator fell behind (at
    most ``ATTEMPTS`` times). Returns the phase, the server's CPU seconds
    during it, and the number of queries the discarded attempts sent (the
    server counted them too)."""
    discarded = 0
    for _attempt in range(ATTEMPTS):
        cpu_before = server.cpu_seconds()
        load = open_loop(sock, packets, rate, seconds)
        cpu = server.cpu_seconds() - cpu_before
        if not _behind(load):
            return load, cpu, discarded
        discarded += load.sent
    raise _invalid(load)


def serve_mix(seed: int, seconds: int, trace: bool, scratch: Path) -> Run:
    run = Run()
    zone, queries, packets = _mix(seed)
    oracle = AnswerOracle(queries)
    server, ready, setup_first = _boot_server(["--trace", str(int(trace))], scratch)
    try:
        run.check(ready["boot_verdict"] == "VERIFIED",
                  f"boot verdict {ready['boot_verdict']}")
        sock = _connect(ready["port"])
        warm = open_loop(sock, packets, SERVE_RATE, 0.5)
        fixed_s = seconds * FIXED_SHARE
        if trace:
            layers, phases, sent = _traced_serve_phases(server, sock, packets,
                                                        fixed_s)
            run.metrics.update(layers)
        else:
            load, cpu, sent = _open_loop_valid(server, sock, packets, SERVE_RATE,
                                               fixed_s)
            phases = [load]
        for load in [warm] + phases:
            sent += load.sent
            _check_answers(run, oracle, [zone], load, lambda _i: (0,))
        _check_status(run, _status(ready["status_port"]), sent)
        if not trace:
            latencies = phases[0].latencies()
            run.metrics.update(
                p50_ms=(statistics.median(latencies) * 1e3, "ms"),
                work_ms_per_op=(cpu / phases[0].received * 1e3, "ms"),
            )
            run.details.update(
                answer_p50_us=statistics.median(latencies) * 1e6,
                answer_p90_us=percentile(latencies, 0.9) * 1e6,
                server_cpu_us_per_answer=cpu / phases[0].received * 1e6,
                generator_lateness_p90_us=_lateness_p90(phases[0]) * 1e6,
            )
            max_qps, trials, rungs = _ladder(sock, packets, phases[0],
                                             seconds - fixed_s)
            run.details.update(max_qps=max_qps, ladder=trials)
            # Overloaded rungs lose queries by design (that is what the
            # ladder measures); the replies that did come must be right.
            for load in rungs:
                _check_answers(run, oracle, [zone], load, lambda _i: (0,),
                               missing_fails=False)
        sock.close()
    finally:
        _teardown(run, server)
    if not trace:
        setup, setups = _median_setup("perfbench.server", ["--boot-only"],
                                      scratch, setup_first)
        run.details["setup_runs_s"] = setups
        run.metrics["setup_s"] = (setup, "s")
    return run


def _traced_serve_phases(server: Child, sock, packets, seconds: float):
    """Half the phase untraced, half traced: per-answer layer figures and
    the tracing overhead on server CPU per answer."""
    cpu_per_answer = []
    phases = []
    discarded = 0
    report = None
    for traced in (False, True):
        server.send({"cmd": "trace", "on": traced})
        server.wait_event("trace", 10)
        load, cpu, extra = _open_loop_valid(server, sock, packets, SERVE_RATE,
                                            seconds / 2)
        discarded += extra
        phases.append(load)
        cpu_per_answer.append(cpu / load.received)
        if traced:
            server.send({"cmd": "report"})
            report = server.wait_event("report", 10)
            server.send({"cmd": "trace", "on": False})
            server.wait_event("trace", 10)
    metrics = serve_layer_metrics(report, cpu_per_answer[1])
    metrics["trace.overhead_ratio"] = (cpu_per_answer[1] / cpu_per_answer[0] - 1.0,
                                       "ratio")
    return metrics, phases, discarded


def serve_layer_metrics(report, cpu_per_answer: Optional[float]) -> Dict[str, tuple]:
    spans = _spans(report["trace"])
    answers = _calls(spans, "server.handle_packet")
    per_us = 1e6 / answers if answers else 0.0
    # CPU the traced spans account for: whole loop iterations minus the
    # time blocked in select() waiting for the next datagram.
    busy = _total_s(spans, "loop.iteration") - _total_s(spans, "loop.select")
    metrics = {
        "wire.parse_us": (_self_s(spans, "wire.parse") * per_us, "us"),
        "wire.build_us": (_self_s(spans, "wire.build") * per_us, "us"),
        "snapshot.encode_qname_us": (_self_s(spans, "snapshot.encode_qname") * per_us,
                                     "us"),
        "engine.run_us": (_self_s(spans, "engine.run") * per_us, "us"),
        "encoding.decode_us": (_self_s(spans, "encoding.decode") * per_us, "us"),
        "server.handle_self_us": (_self_s(spans, "server.handle_packet") * per_us,
                                  "us"),
        "server.loop_us": (_self_s(spans, "loop.iteration", "loop.datagram")
                           * per_us, "us"),
        "gc.pause_us": (report["gc_ns"] / 1e3 / answers if answers else 0.0, "us"),
        "loop.lag_p90_ms": (percentile(report["lags"], 0.9) * 1e3
                            if report["lags"] else 0.0, "ms"),
        "trace.violations": (report["trace"]["violations"], "count"),
    }
    if cpu_per_answer is not None and answers:
        attributed = busy * per_us
        metrics["server.unattributed_us"] = (cpu_per_answer * 1e6 - attributed, "us")
        metrics["server.attributed_ratio"] = (attributed / (cpu_per_answer * 1e6),
                                              "ratio")
    return metrics


def _ladder(sock, packets, fixed, budget_s: float):
    """Climb a geometric rate ladder from the fixed-rate phase ``fixed``
    (its first rung); the highest rung that passes twice in a row is
    ``max_qps``. Returns it, the trials, and the trial phases."""
    ok, why = _rung_passes(fixed)
    trials = [{"qps": round(fixed.rate), "pass": ok, "why": why}]
    rungs = []
    if not ok:
        return None, trials, rungs
    rate = fixed.rate * LADDER_STEP
    best = fixed.rate
    deadline = time.perf_counter() + budget_s
    while time.perf_counter() + 2 * LADDER_TRIAL_S < deadline:
        outcomes = []
        for _ in range(2):
            load = open_loop(sock, packets, rate, LADDER_TRIAL_S, drain=0.2)
            rungs.append(load)
            ok, why = _rung_passes(load)
            trials.append({"qps": round(rate), "pass": ok, "why": why})
            outcomes.append(ok)
            if not ok:
                break
        if not all(outcomes):
            break
        best = rate
        rate *= LADDER_STEP
    return round(best), trials, rungs


def _rung_passes(load) -> tuple:
    if _behind(load):
        return False, "generator behind"
    loss = 1.0 - load.received / max(1, load.sent)
    if loss > LADDER_LOSS:
        return False, f"loss {loss:.4f}"
    p90 = percentile(load.latencies(), 0.9)
    if p90 > LADDER_P90_LIMIT_S:
        return False, f"p90 {p90 * 1e3:.2f}ms"
    tail = percentile(load.latencies(0.75, 1.0), 0.9)
    if tail > LADDER_P90_LIMIT_S:
        return False, f"backlog: last-quarter p90 {tail * 1e3:.2f}ms"
    return True, ""


# -- publish-under-load ------------------------------------------------------


def publish_stream(zone, seed: int, count: int):
    """``count`` seeded variants of ``zone``, each with one extra host (an
    A record at a fresh label). Publishing them in turn moves the host:
    every delta removes one record and adds one, and changes the label
    universe, which is the most common zone edit and one that every
    publish pays in full (see the README's findings)."""
    from repro.dns.name import DnsName
    from repro.dns.rdata import ARdata
    from repro.dns.records import ResourceRecord
    from repro.dns.rtypes import RRType
    from repro.dns.zone import Zone

    rng = random.Random(f"perfbench-publish:{seed}")
    taken = set(zone.label_universe())
    variants = []
    while len(variants) < count:
        label = "h" + "".join(rng.choice(string.ascii_lowercase)
                              for _ in range(rng.randint(4, 8)))
        if label in taken:
            continue
        taken.add(label)
        host = ResourceRecord(zone.origin.prepend(label), RRType.A,
                              ARdata(f"198.51.100.{rng.randint(1, 254)}"))
        variants.append(Zone(zone.origin, tuple(zone) + (host,)))
    return variants


class Publisher:
    """Closed-loop publisher hooked into the open-loop generator: one
    publish in flight at a time, a fixed pause after each."""

    def __init__(self, server: Child, texts: List[str], pause: float):
        self.server = server
        self.texts = texts
        self.pause = pause
        self.started: List[float] = []  # parent clock at each publish call
        self.done: List[float] = []  # parent clock at each completion
        self.results: List[Dict] = []
        self.next_at = 0.0
        self.stop_at = float("inf")

    @property
    def in_flight(self) -> bool:
        return len(self.started) > len(self.done)

    def tick(self, now: float) -> None:
        if self.in_flight:
            event = self.server.poll_event()
            if event is not None and event.get("event") == "published":
                self.done.append(time.perf_counter())
                self.results.append(event)
                self.next_at = self.done[-1] + self.pause
            return
        if now >= self.next_at and now < self.stop_at and \
                len(self.started) < len(self.texts):
            index = len(self.started)
            self.started.append(time.perf_counter())
            self.server.send({"cmd": "publish", "id": index,
                              "zone": self.texts[index]})

    def finish(self, timeout: float) -> None:
        if self.in_flight:
            event = self.server.wait_event("published", timeout)
            self.done.append(time.perf_counter())
            self.results.append(event)


def publish_under_load(seed: int, seconds: int, trace: bool, scratch: Path) -> Run:
    from repro.dns.zonefile import parse_zone_text, zone_to_text
    from repro.incremental.digest import zone_digest

    run = Run()
    zone, queries, packets = _mix(seed)
    oracle = AnswerOracle(queries)
    variants = publish_stream(zone, seed, 64)
    texts = [zone_to_text(variant) for variant in variants]
    for variant, text in zip(variants, texts):
        if zone_digest(parse_zone_text(text)) != zone_digest(variant):
            raise RuntimeError("zone text does not round-trip; cannot publish it")
    zones = [zone] + variants

    journal_dir = scratch / f"journal-{time.monotonic_ns()}"
    journal_dir.mkdir()
    args = ["--journal", str(journal_dir / "publish.journal"),
            "--trace", str(int(trace)), "--publish-layers"]
    server, ready, setup_first = _boot_server(args, scratch)
    publisher = Publisher(server, texts, PUBLISH_PAUSE)
    sent = 0
    try:
        run.check(ready["boot_verdict"] == "VERIFIED",
                  f"boot verdict {ready['boot_verdict']}")
        sock = _connect(ready["port"])
        warm = open_loop(sock, packets, PUBLISH_RATE, 0.5)
        sent += warm.sent
        _check_answers(run, oracle, zones, warm, lambda _i: (0,))
        if trace:
            server.send({"cmd": "trace", "on": True})
            server.wait_event("trace", 10)
        # Like _open_loop_valid, but a phase the generator fell behind in
        # is followed by a fresh one: the publishes carry on from where
        # the discarded phase left the zone.
        phases = []
        for _attempt in range(ATTEMPTS):
            first_publish = len(publisher.results)
            publisher.next_at = time.perf_counter() + 0.25
            publisher.stop_at = time.perf_counter() + seconds
            load = open_loop(sock, packets, PUBLISH_RATE, seconds,
                             on_tick=publisher.tick, tick_fds=[server.stdout_fd])
            sent += load.sent
            publisher.finish(120)
            phases.append(load)
            if not _behind(load):
                break
        sock.close()
        report = None
        if trace:
            server.send({"cmd": "report"})
            report = server.wait_event("report", 10)
        for result in publisher.results:
            run.attempted += 1
            if not result["accepted"] or result["verdict"] != "VERIFIED":
                run.fail(f"publish {result['id']}: {result['verdict']}")
        # Which zones may answer query i: every publish completed before
        # it was sent has to show; one started before its reply arrived
        # may show.
        starts, dones = publisher.started, publisher.done

        def allowed_in(phase):
            def allowed(index: int) -> tuple:
                sent_at = phase.sent_at[index]
                arrived = phase.scheduled[index] + (phase.latency[index] or 0.0)
                low = sum(1 for done in dones if done <= sent_at)
                high = sum(1 for start in starts if start <= arrived)
                return tuple(range(low, high + 1))
            return allowed

        for phase in phases:
            _check_answers(run, oracle, zones, phase, allowed_in(phase))
        _check_status(run, _status(ready["status_port"]), sent)
    finally:
        _teardown(run, server)
        shutil.rmtree(journal_dir, ignore_errors=True)

    if _behind(load):
        raise _invalid(load)
    publish_s = [result["seconds"] for result in publisher.results[first_publish:]]
    if not publish_s:
        raise InvalidRun(f"no publish completed within {seconds}s")
    latencies = load.latencies()
    run.details.update(
        publishes=len(publish_s),
        publish_p50_s=statistics.median(publish_s),
        publish_s=publish_s,
        answer_p50_us=statistics.median(latencies) * 1e6,
        answer_p90_us=percentile(latencies, 0.9) * 1e6,
        generator_lateness_p90_us=_lateness_p90(load) * 1e6,
    )
    if trace:
        run.metrics.update(publish_layer_metrics(report, len(publisher.results)))
        return run
    setup, setups = _median_setup(
        "perfbench.server", ["--boot-only", "--journal",
                             str(scratch / f"probe-{time.monotonic_ns()}.journal")],
        scratch, setup_first)
    run.details["setup_runs_s"] = setups
    run.metrics.update(
        setup_s=(setup, "s"),
        p50_ms=(statistics.median(latencies) * 1e3, "ms"),
        work_ms_per_op=(statistics.median(publish_s) * 1e3, "ms"),
    )
    return run


def publish_layer_metrics(report, publishes: int) -> Dict[str, tuple]:
    spans = _spans(report["trace"])
    counters = report["trace"]["counters"]
    per = 1.0 / publishes
    total_units = counters.get("incremental.units_total", 0)
    lookups = counters.get("cache.gets", 0)
    checks = _calls(spans, "solver.check")
    metrics = serve_layer_metrics(report, None)
    metrics.update({
        "gate.verify_s": (_total_s(spans, "gate.verify") * per, "s"),
        "gate.journal_s": (_total_s(spans, "gate.journal") * per, "s"),
        "gate.snapshot_build_s": (_total_s(spans, "gate.snapshot_build") * per, "s"),
        "gate.unattributed_s": (_self_s(spans, "gate.submit", "gate.verify") * per,
                                "s"),
        "planner.plan_s": (_self_s(spans, "planner.plan") * per, "s"),
        "planner.units": (counters.get("planner.units", 0) * per, "count"),
        "incremental.reuse_ratio": (
            counters.get("incremental.units_reused", 0) / total_units
            if total_units else 0.0, "ratio"),
        "cache.hit_ratio": (counters.get("cache.hits", 0) / lookups
                            if lookups else 0.0, "ratio"),
        "summary.treesearch_s": (_self_s(spans, "summary.tree_search") * per, "s"),
        "summary.find_s": (_self_s(spans, "summary.find") * per, "s"),
        "refine.resolve_self_s": (_self_s(spans, "refine.resolve") * per, "s"),
        "solver.check_s": (_self_s(spans, "solver.check") * per, "s"),
        "solver.theory_s": (_self_s(spans, "solver.theory") * per, "s"),
        "solver.checks": (checks * per, "count"),
        "solver.us_per_check": (_total_s(spans, "solver.check") / checks * 1e6
                                if checks else 0.0, "us"),
    })
    return metrics


WORKLOADS = {
    "verify-corpus": verify_corpus,
    "serve-mix": serve_mix,
    "publish-under-load": publish_under_load,
}
