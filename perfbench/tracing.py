"""Span tracing from outside the program: wrap public functions, sum self times.

A :class:`Tracer` replaces a function or method attribute with a wrapper
that times each call on a monotonic clock and keeps a per-thread stack of
open spans, so each span knows how much of its interval its children
covered. Per span name it accumulates the call count, the total time and
the *self* time (total minus children). Nothing inside the program's
source changes; the wrappers live only in the benchmark's worker
processes, and ``Tracer.enabled`` switches recording off and on.

Conservation is checked per span instance: the children's durations must
not exceed their parent's. A violation is counted, never clamped.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

_now = time.perf_counter_ns


class SpanStats:
    __slots__ = ("count", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Self-time accounting over wrapped call sites (thread-aware)."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {}
        self.counters: Dict[str, float] = {}
        self.violations = 0
        self.enabled = True
        self._local = threading.local()

    # -- accounting ---------------------------------------------------------

    def _stack(self) -> List[List[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, duration: int, frame: List[int],
               stack: List[List[int]]) -> None:
        child = frame[0]
        if child > duration:
            self.violations += 1
        if stack:
            stack[-1][0] += duration
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.count += 1
        stats.total_ns += duration
        stats.self_ns += duration - child

    @contextmanager
    def span(self, name: str):
        """An explicit span around a block (the harness's root spans)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        frame = [0]
        stack.append(frame)
        started = _now()
        try:
            yield
        finally:
            duration = _now() - started
            stack.pop()
            self._close(name, duration, frame, stack)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name, on_result: Optional[Callable] = None
             ) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``name`` is a span name, or a callable taking the call's arguments
        and returning one (per-layer names for ``summarize``).
        ``on_result(tracer, result, *args)`` sees each return value, for
        counters such as plan units or cache reuse.
        """
        original = getattr(owner, attr)
        tracer = self
        name_of = name if callable(name) else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            frame = [0]
            stack.append(frame)
            started = _now()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = _now() - started
                stack.pop()
                tracer._close(name_of(*args, **kwargs) if name_of else name,
                              duration, frame, stack)
            if on_result is not None:
                on_result(tracer, result, *args)
            return result

        setattr(owner, attr, traced)

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()
        self.violations = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "spans": {
                name: {"count": s.count, "total_ns": s.total_ns,
                       "self_ns": s.self_ns}
                for name, s in sorted(self.stats.items())
            },
            "counters": dict(self.counters),
            "violations": self.violations,
        }


# -- the layer tables ----------------------------------------------------------


def _count_units(tracer: Tracer, units, *_args) -> None:
    tracer.count("planner.units", len(units))


def install_verify_layers(tracer: Tracer, native: bool = True) -> None:
    """Spans for the verify layers: compile, analysis, planner, summary,
    refine, solver and (``native``) the native re-execution that
    validates counterexamples."""
    import repro.analysis
    import repro.analysis.interproc
    import repro.core.pipeline as pipeline
    import repro.solver.theory as theory
    from repro.engine import control
    from repro.incremental.planner.by_label import ByLabelPlanner
    from repro.incremental.planner.ec import ECPlanner
    from repro.solver.solver import Solver
    from repro.spec import toplevel

    tracer.wrap(pipeline, "compile_module", "frontend.compile")
    # Both are imported at call time inside the pipeline's compile step,
    # so the package attributes are the call sites.
    tracer.wrap(repro.analysis, "prune_module", "analysis.prune")
    tracer.wrap(repro.analysis.interproc, "compute_summaries",
                "analysis.summaries")
    tracer.wrap(ByLabelPlanner, "plan", "planner.plan", _count_units)
    tracer.wrap(ECPlanner, "plan", "planner.plan", _count_units)
    tracer.wrap(pipeline, "summarize",
                lambda executor, function, *a, **k: f"summary.{function}",
                _count_paths)
    tracer.wrap(pipeline, "check_refinement_nested", "refine.resolve")
    tracer.wrap(Solver, "check", "solver.check")
    tracer.wrap(theory, "check_conjunction", "solver.theory")
    if native:
        tracer.wrap(control, "run_engine_concrete", "native.engine")
        tracer.wrap(toplevel, "rrlookup", "native.spec")


def _count_paths(tracer: Tracer, summary, executor, function, *_a) -> None:
    tracer.count(f"summary.{function}.paths", summary.paths_explored)


def install_serve_layers(tracer: Tracer) -> None:
    """Spans for the answer path: the event-loop iteration, the wait in
    ``select`` (idle, not work), datagram dispatch, ``handle_packet`` and
    the wire, snapshot, engine and decoding stages under it."""
    import asyncio.base_events as base_events
    import asyncio.selector_events as selector_events
    import selectors

    import repro.serve.server as server
    import repro.serve.snapshot as snapshot
    from repro.engine import control
    from repro.engine.encoding import ZoneEncoder

    tracer.wrap(base_events.BaseEventLoop, "_run_once", "loop.iteration")
    tracer.wrap(selectors.DefaultSelector, "select", "loop.select")
    tracer.wrap(selector_events._SelectorDatagramTransport, "_read_ready",
                "loop.datagram")
    tracer.wrap(server.ZoneServer, "handle_packet", "server.handle_packet")
    tracer.wrap(server, "parse_query", "wire.parse")
    tracer.wrap(server, "build_response", "wire.build")
    tracer.wrap(snapshot, "encode_query_name", "snapshot.encode_qname")
    tracer.wrap(control, "run_engine_concrete", "engine.run")
    tracer.wrap(ZoneEncoder, "decode_response", "encoding.decode")


def _count_reuse(tracer: Tracer, outcome, *_args) -> None:
    tracer.count("incremental.units_total", outcome.reuse.partitions_total)
    tracer.count("incremental.units_reused", outcome.reuse.partitions_reused)


def _count_cache(tracer: Tracer, payload, *_args) -> None:
    tracer.count("cache.gets")
    if payload is not None:
        tracer.count("cache.hits")


def install_publish_layers(tracer: Tracer) -> None:
    """Spans for the publish path: the gate, the incremental verifier, the
    journal and the snapshot build, on top of the verify layers (the
    solver and planner spans are shared)."""
    import repro.serve.gate as gate
    from repro.incremental.cache import SummaryCache
    from repro.incremental.engine import IncrementalVerifier
    from repro.serve.journal import PublishJournal

    tracer.wrap(gate.PublishGate, "submit", "gate.submit")
    tracer.wrap(IncrementalVerifier, "diff_to", "gate.verify", _count_reuse)
    tracer.wrap(SummaryCache, "get", "cache.get", _count_cache)
    tracer.wrap(PublishJournal, "append", "gate.journal")
    tracer.wrap(gate, "build_snapshot", "gate.snapshot_build")
