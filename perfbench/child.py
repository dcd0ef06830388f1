"""Child processes of the benchmark: spawn, read JSON events, reap.

Every worker (``perfbench.verifier``, ``perfbench.server``) runs as
``python -m`` from the checkout root with ``src`` on ``PYTHONPATH`` and
talks JSON lines over its stdin and stdout; stderr goes to a file that is
shown when the worker dies.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ChildError(RuntimeError):
    """A worker died, timed out or said something unexpected."""


class Child:
    """One worker process; ``started`` is taken just before the spawn."""

    def __init__(self, module: str, args: List[str], scratch: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.module = module
        self.stderr_path = scratch / f"{module.rsplit('.', 1)[-1]}-{time.monotonic_ns()}.err"
        self._stderr = open(self.stderr_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", module] + args,
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        self._buffer = b""

    @property
    def pid(self) -> int:
        return self.proc.pid

    @property
    def stdout_fd(self) -> int:
        return self.proc.stdout.fileno()

    def send(self, payload: Dict) -> None:
        self.proc.stdin.write(json.dumps(payload).encode() + b"\n")
        self.proc.stdin.flush()

    def poll_event(self) -> Optional[Dict]:
        """The next event if a whole line is already readable, else None."""
        while b"\n" not in self._buffer:
            ready, _, _ = select.select([self.stdout_fd], [], [], 0)
            if not ready:
                return None
            chunk = os.read(self.stdout_fd, 65536)
            if not chunk:
                raise ChildError(f"{self.module} exited early:\n{self.stderr_tail()}")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def wait_event(self, event: str, timeout: float) -> Dict:
        """Block until an event named ``event`` arrives."""
        deadline = time.perf_counter() + timeout
        while True:
            payload = self.poll_event()
            if payload is not None:
                if payload.get("event") == event:
                    return payload
                continue
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ChildError(f"{self.module}: no {event!r} within {timeout}s")
            select.select([self.stdout_fd], [], [], min(remaining, 1.0))

    def stderr_tail(self, lines: int = 20) -> str:
        self._stderr.flush()
        text = self.stderr_path.read_text(errors="replace").splitlines()
        return "\n".join(text[-lines:])

    def descendants(self) -> List[int]:
        """Live processes whose parent is this worker (from ``/proc``)."""
        found = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == self.pid:
                found.append(int(entry))
        return found

    def cpu_seconds(self) -> float:
        """CPU time of the worker's live threads so far, in nanosecond
        resolution (``/proc/<pid>/task/*/schedstat``; ``/proc/<pid>/stat``
        counts in 10 ms ticks)."""
        total = 0
        for task in os.listdir(f"/proc/{self.pid}/task"):
            try:
                with open(f"/proc/{self.pid}/task/{task}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except OSError:
                continue  # the thread ended between listing and reading
        return total / 1e9

    def finish(self, timeout: float = 30.0) -> int:
        """Close stdin, wait for exit (killing on timeout), return the code."""
        try:
            if self.proc.stdin and not self.proc.stdin.closed:
                self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = -9
        self.proc.stdout.close()
        self._stderr.close()
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.finish(timeout=10.0)


def pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"
