"""Crash-safe checkpoints: atomic appends, tolerant loads, bit-identical resume."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.core import campaign as campaign_mod
from repro.core import run_campaign
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointWriter,
    load,
    unit_address,
)

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = CheckpointWriter(path, {"kind": "campaign", "id": "x"})
        writer.append({"index": 0}, {"verdict": "VERIFIED"})
        writer.append({"index": 1}, {"verdict": "BUG"})
        header, units, corrupt = load(path)
        assert header["kind"] == "campaign"
        assert corrupt == 0
        assert units[unit_address({"index": 0})] == {"verdict": "VERIFIED"}
        assert units[unit_address({"index": 1})] == {"verdict": "BUG"}

    def test_missing_file_is_empty(self, tmp_path):
        assert load(tmp_path / "absent.jsonl") == (None, {}, 0)

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = CheckpointWriter(path, {"id": "x"})
        writer.append({"index": 0}, {"verdict": "VERIFIED"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"unit": {"index": 1}, "payl')  # torn write
        header, units, corrupt = load(path)
        assert header is not None
        assert len(units) == 1
        assert corrupt == 1

    def test_resume_header_mismatch_refuses(self, tmp_path):
        path = tmp_path / "run.jsonl"
        CheckpointWriter(path, {"id": "campaign-a"})
        with pytest.raises(CheckpointError):
            CheckpointWriter.open(path, {"id": "campaign-b"}, resume=True)

    def test_resume_replays_units(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = CheckpointWriter(path, {"id": "x"})
        writer.append({"index": 0}, {"verdict": "VERIFIED"})
        resumed, units = CheckpointWriter.open(path, {"id": "x"}, resume=True)
        assert units == {unit_address({"index": 0}): {"verdict": "VERIFIED"}}
        resumed.append({"index": 1}, {"verdict": "BUG"})
        _, units, _ = load(path)
        assert len(units) == 2

    def test_without_resume_discards_existing(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = CheckpointWriter(path, {"id": "x"})
        writer.append({"index": 0}, {"verdict": "VERIFIED"})
        _, units = CheckpointWriter.open(path, {"id": "x"}, resume=False)
        assert units == {}
        _, on_disk, _ = load(path)
        assert on_disk == {}


class TestCampaignResume:
    def test_interrupted_resume_is_bit_identical(self, tmp_path):
        """Simulated crash: truncate the checkpoint to header + first unit
        + a torn line, resume, and demand the same canonical report."""
        ckpt = tmp_path / "campaign.jsonl"
        baseline = run_campaign("verified", num_zones=3, seed=11,
                                checkpoint=str(ckpt))
        lines = ckpt.read_text().splitlines()
        assert len(lines) == 4  # header + 3 units
        ckpt.write_text("\n".join(lines[:2]) + '\n{"unit": {"ind\n')
        resumed = run_campaign("verified", num_zones=3, seed=11,
                               checkpoint=str(ckpt), resume=True)
        assert resumed.canonical_json() == baseline.canonical_json()

    def test_resume_skips_completed_units(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "campaign.jsonl"
        run_campaign("verified", num_zones=2, seed=11, checkpoint=str(ckpt))

        calls = []
        original = campaign_mod.run_unit

        def counting(index, *args, **kwargs):
            calls.append(index)
            return original(index, *args, **kwargs)

        monkeypatch.setattr(campaign_mod, "run_unit", counting)
        run_campaign("verified", num_zones=2, seed=11,
                     checkpoint=str(ckpt), resume=True)
        assert calls == []  # everything replayed from the checkpoint

    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        """The acceptance scenario: SIGKILL a running campaign mid-unit,
        resume from its checkpoint, and compare against an uninterrupted
        run under the canonical (timing-free) projection."""
        ckpt = tmp_path / "killed.jsonl"
        script = (
            "import sys\n"
            "from repro.core import run_campaign\n"
            "run_campaign('verified', num_zones=4, seed=11, "
            "checkpoint=sys.argv[1])\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(ckpt)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Kill as soon as at least one unit has been checkpointed but
        # (almost certainly) before the campaign finishes.
        deadline = time.monotonic() + 120
        units_at_kill = 0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                # Raced to completion before we could kill it: the resume
                # below then degenerates to a full replay, still valid.
                if ckpt.exists():
                    lines = [
                        line
                        for line in ckpt.read_text().splitlines()
                        if line.strip()
                    ]
                    units_at_kill = max(0, len(lines) - 1)
                break
            if ckpt.exists():
                lines = [
                    line
                    for line in ckpt.read_text().splitlines()
                    if line.strip()
                ]
                if len(lines) >= 2:  # header + >= 1 unit
                    units_at_kill = len(lines) - 1
                    proc.kill()
                    proc.wait()
                    break
            time.sleep(0.01)
        else:
            proc.kill()
            proc.wait()
            pytest.fail("campaign subprocess never checkpointed a unit")
        assert units_at_kill >= 1

        # Whatever survived the kill must be a loadable checkpoint.
        header, units, _corrupt = load(ckpt)
        assert header is not None
        assert len(units) >= 1

        resumed = run_campaign("verified", num_zones=4, seed=11,
                               checkpoint=str(ckpt), resume=True)
        fresh = run_campaign("verified", num_zones=4, seed=11)
        assert resumed.canonical_json() == fresh.canonical_json()
        # The final checkpoint holds all four units.
        _, final_units, _ = load(ckpt)
        assert len(final_units) == 4
        payloads = [json.loads(json.dumps(p)) for p in final_units.values()]
        assert all("verdict" in p for p in payloads)
