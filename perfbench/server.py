"""The server worker: a ``ZoneServer`` in its own process, driven over stdin.

Run by ``perfbench/run.py``. It boots the evaluation zone the way
``repro serve`` does at its defaults (engine ``verified``, boot
verification on, no rate limit, no degradation ladder, an in-memory
summary cache), optionally with a publish journal, and prints
``{"event": "ready", ...}`` once the boot verdict is in. Then it reads
one JSON command per line on stdin:

- ``{"cmd": "publish", "id": k, "zone": "<zone text>"}`` gates the zone
  through ``ZoneServer.publish`` and answers ``{"event": "published"}``
  with the verdict and the seconds from the call to the new snapshot
  serving;
- ``{"cmd": "trace", "on": bool}`` switches span recording and resets
  what was recorded;
- ``{"cmd": "report"}`` answers with the recorded spans, GC pauses and
  event-loop lag;
- ``{"cmd": "stop"}`` drains the server and exits.

With ``--boot-only`` it exits right after the ready line.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time


def emit(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


class Probes:
    """GC pauses (``gc.callbacks``) and event-loop lag (a 1 ms ticker)."""

    def __init__(self) -> None:
        self.gc_ns = 0
        self.gc_runs = 0
        self.lags = []
        self._gc_started = 0
        self.recording = False

    def on_gc(self, phase, _info) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        elif self.recording and self._gc_started:
            self.gc_ns += time.perf_counter_ns() - self._gc_started
            self.gc_runs += 1

    async def ticker(self) -> None:
        while True:
            started = time.perf_counter()
            await asyncio.sleep(0.001)
            if self.recording:
                self.lags.append(time.perf_counter() - started - 0.001)

    def reset(self) -> None:
        self.gc_ns = 0
        self.gc_runs = 0
        self.lags = []


async def serve(args, tracer, probes) -> int:
    from repro.dns.zonefile import parse_zone_text
    from repro.serve import ZoneServer
    from repro.zonegen.corpus import evaluation_zone

    server = ZoneServer(evaluation_zone(), "verified", port=0, status_port=0,
                        journal=args.journal)
    await server.start()
    boot = await server.verify_boot()
    emit({"event": "ready", "port": server.port,
          "status_port": server.status_port, "boot_verdict": boot.verdict,
          "pid": os.getpid()})
    if args.boot_only:
        await server.stop()
        return 0

    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    ticker = asyncio.ensure_future(probes.ticker()) if tracer else None
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            command = json.loads(line)
            kind = command["cmd"]
            if kind == "publish":
                zone = parse_zone_text(command["zone"])
                started = time.perf_counter()
                result = await server.publish(zone)
                emit({"event": "published", "id": command["id"],
                      "seconds": time.perf_counter() - started,
                      "accepted": result.accepted, "verdict": result.verdict,
                      "sequence": result.sequence})
            elif kind == "trace":
                if tracer is not None:
                    tracer.reset()
                    tracer.enabled = command["on"]
                probes.reset()
                probes.recording = command["on"]
                emit({"event": "trace", "on": command["on"]})
            elif kind == "report":
                emit({"event": "report",
                      "trace": tracer.as_dict() if tracer else None,
                      "gc_ns": probes.gc_ns, "gc_runs": probes.gc_runs,
                      "lags": probes.lags})
            elif kind == "stop":
                break
    finally:
        if ticker is not None:
            ticker.cancel()
            try:
                await ticker
            except asyncio.CancelledError:
                pass
        await server.drain(grace=1.0)
    emit({"event": "stopped"})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--journal", default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--publish-layers", action="store_true")
    parser.add_argument("--boot-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    probes = Probes()
    if args.trace:
        from perfbench.tracing import (
            Tracer,
            install_publish_layers,
            install_serve_layers,
            install_verify_layers,
        )

        tracer = Tracer()
        tracer.enabled = False  # switched on by the "trace" command
        install_serve_layers(tracer)
        if args.publish_layers:
            install_verify_layers(tracer, native=False)
            install_publish_layers(tracer)
        gc.callbacks.append(probes.on_gc)
    return asyncio.run(serve(args, tracer, probes))


if __name__ == "__main__":
    sys.exit(main())
