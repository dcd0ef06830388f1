"""Determinism contract: a pooled campaign's canonical report is
bit-identical to the sequential one's — across worker counts, under
injected faults, and through SIGKILL-and-resume."""

import os
import subprocess
import sys
import time

import pytest

import repro
from repro.core import run_campaign
from repro.resilience.checkpoint import load

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Tiny zones keep each unit around a second.
TINY = dict(num_hosts=2, num_wildcards=1, num_delegations=0,
            num_cnames=1, num_mx=0)


def _proc_stat(pid):
    """``(state, ppid, starttime)`` of a live process from ``/proc``, or
    None when it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1]), fields[19]


def _children(pid):
    """``{child pid: starttime}`` for every live child of ``pid``."""
    children = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[1] == pid:
                children[int(entry)] = stat[2]
    return children


def _survivors(processes):
    """The processes of ``processes`` (pid -> starttime) still running;
    a zombie or a recycled pid does not count."""
    alive = []
    for pid, started in processes.items():
        stat = _proc_stat(pid)
        if stat is not None and stat[0] not in "ZX" and stat[2] == started:
            alive.append(pid)
    return alive


class TestWorkerCountIdentity:
    def test_sequential_equals_pooled(self):
        seq = run_campaign("verified", num_zones=3, seed=11, **TINY)
        one = run_campaign("verified", num_zones=3, seed=11, workers=1, **TINY)
        four = run_campaign("verified", num_zones=3, seed=11, workers=4, **TINY)
        assert seq.canonical_json() == one.canonical_json()
        assert one.canonical_json() == four.canonical_json()

    def test_buggy_version_identical_across_workers(self):
        one = run_campaign("v1.0", num_zones=2, seed=11, workers=1, **TINY)
        two = run_campaign("v1.0", num_zones=2, seed=11, workers=2, **TINY)
        assert one.canonical_json() == two.canonical_json()
        assert any(v.bug_categories for v in two.verdicts)

    def test_pooled_report_carries_perf_counters(self):
        report = run_campaign("verified", num_zones=2, seed=11, workers=2,
                              **TINY)
        perf = report.perf
        assert perf["workers"] == 2
        assert perf["units_total"] == 2
        assert perf["units_completed"] == 2
        assert perf["wall_seconds"] > 0
        assert perf["units_per_second"] > 0
        assert perf["solve_seconds"] > 0
        # Canonical identity never includes perf/timing.
        assert "perf" not in report.canonical_json()

    def test_injected_worker_faults_identical_across_workers(self):
        # A seeded per-unit plan: each unit derives its plan from
        # (spec, unit id), so worker count cannot change what fires.
        spec = "seed:7:0.7"
        one = run_campaign("verified", num_zones=3, seed=11, workers=1,
                           faults=spec, **TINY)
        two = run_campaign("verified", num_zones=3, seed=11, workers=2,
                           faults=spec, **TINY)
        assert one.canonical_json() == two.canonical_json()

    def test_scripted_fault_degrades_unit_to_typed_error(self):
        # compile=1 fires in every unit (scripted plans are re-instantiated
        # per unit id) — all units degrade to ERROR, none aborts the run.
        report = run_campaign("verified", num_zones=2, seed=11, workers=2,
                              faults="compile=1", **TINY)
        assert all(v.verdict == "ERROR" for v in report.verdicts)
        assert all(v.error_class == "compile" for v in report.verdicts)


class TestResume:
    def test_truncated_checkpoint_resume_matches_sequential(self, tmp_path):
        ckpt = tmp_path / "par.jsonl"
        baseline = run_campaign("verified", num_zones=3, seed=11, workers=2,
                                checkpoint=str(ckpt), **TINY)
        lines = ckpt.read_text().splitlines()
        assert len(lines) == 4  # header + 3 units
        ckpt.write_text("\n".join(lines[:2]) + "\n")
        resumed = run_campaign("verified", num_zones=3, seed=11, workers=2,
                               checkpoint=str(ckpt), resume=True, **TINY)
        assert resumed.canonical_json() == baseline.canonical_json()
        assert resumed.perf["units_replayed"] == 1

    def test_parallel_resumes_sequential_checkpoint(self, tmp_path):
        """Header and unit keys are shared: the two modes can resume each
        other's checkpoints."""
        ckpt = tmp_path / "seq.jsonl"
        baseline = run_campaign("verified", num_zones=2, seed=11,
                                checkpoint=str(ckpt), **TINY)
        resumed = run_campaign("verified", num_zones=2, seed=11, workers=2,
                               checkpoint=str(ckpt), resume=True, **TINY)
        assert resumed.canonical_json() == baseline.canonical_json()
        assert resumed.perf["units_replayed"] == 2

    def test_sigkill_mid_parallel_campaign_then_resume(self, tmp_path):
        """Kill the parallel campaign's parent process mid-run; the
        funneled checkpoint must be loadable, the resumed pooled run
        bit-identical to an uninterrupted sequential run, and no pool
        worker of the killed run may outlive it."""
        ckpt = tmp_path / "killed.jsonl"
        script = (
            "import sys\n"
            "from repro.core import run_campaign\n"
            "run_campaign('verified', num_zones=4, seed=11, workers=2, "
            "checkpoint=sys.argv[1], num_hosts=2, num_wildcards=1, "
            "num_delegations=0, num_cnames=1, num_mx=0)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(ckpt)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 120
        units_at_kill = 0
        workers = {}
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                if ckpt.exists():
                    lines = [l for l in ckpt.read_text().splitlines() if l.strip()]
                    units_at_kill = max(0, len(lines) - 1)
                break
            if ckpt.exists():
                lines = [l for l in ckpt.read_text().splitlines() if l.strip()]
                if len(lines) >= 2:  # header + >= 1 unit
                    units_at_kill = len(lines) - 1
                    workers = _children(proc.pid)
                    proc.kill()
                    proc.wait()
                    break
            time.sleep(0.01)
        else:
            proc.kill()
            proc.wait()
            pytest.fail("parallel campaign never checkpointed a unit")
        assert units_at_kill >= 1
        if os.path.isdir("/proc"):
            # Orphaned workers would block on the pool's call queue forever.
            gone_by = time.monotonic() + 5
            while _survivors(workers) and time.monotonic() < gone_by:
                time.sleep(0.05)
            assert _survivors(workers) == []

        header, units, _corrupt = load(ckpt)
        assert header is not None
        assert len(units) >= 1

        resumed = run_campaign("verified", num_zones=4, seed=11, workers=2,
                               checkpoint=str(ckpt), resume=True, **TINY)
        fresh = run_campaign("verified", num_zones=4, seed=11, **TINY)
        assert resumed.canonical_json() == fresh.canonical_json()
        _, final_units, _ = load(ckpt)
        assert len(final_units) == 4
