"""WatchDaemon: mtime polling, per-update logging, failure resilience."""

import json
import os

import pytest

from repro.incremental.cache import SummaryCache
from repro.incremental.watch import WatchDaemon

ZONE_TEXT = """\
$ORIGIN shop.example.
@ IN SOA ns1.shop.example. hostmaster.shop.example. 7 3600 600 86400 300
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.80
"""


@pytest.fixture()
def zone_file(tmp_path):
    path = tmp_path / "zone.db"
    path.write_text(ZONE_TEXT)
    return path


def bump_mtime(path, offset=2.0):
    st = os.stat(path)
    os.utime(path, (st.st_atime, st.st_mtime + offset))


def make_daemon(zone_file, lines, version="verified"):
    return WatchDaemon(
        zone_file,
        version=version,
        cache=SummaryCache(memory_only=True),
        interval=0.01,
        log=lines.append,
    )


class TestWatchDaemon:
    def test_initial_verification(self, zone_file):
        lines = []
        daemon = make_daemon(zone_file, lines)
        event = daemon.poll_once()
        assert event.reason == "initial"
        assert event.outcome.result.verified
        payload = json.loads(lines[0])
        assert payload["sequence"] == 1
        assert payload["verified"] is True
        assert payload["latency_seconds"] > 0
        assert payload["reuse"]["partitions_recomputed"] > 0

    def test_unchanged_file_is_quiet(self, zone_file):
        daemon = make_daemon(zone_file, [])
        daemon.poll_once()
        assert daemon.poll_once() is None
        assert daemon.poll_once() is None

    def test_change_triggers_incremental_reverify(self, zone_file):
        lines = []
        daemon = make_daemon(zone_file, lines)
        daemon.poll_once()
        zone_file.write_text(ZONE_TEXT.replace("192.0.2.80", "192.0.2.81"))
        bump_mtime(zone_file)
        event = daemon.poll_once()
        assert event.reason == "change"
        payload = json.loads(lines[-1])
        # An rdata-only change leaves every equivalence class's content
        # digest alone (members are re-validated natively on expansion),
        # so no unit is recomputed.
        assert payload["reuse"]["recomputed_keys"] == []
        assert payload["reuse"]["partitions_reused"] == \
            payload["reuse"]["partitions_total"] > 0
        assert payload["reuse"]["records_changed"] == 2

    def test_buggy_update_reports_bugs(self, zone_file):
        lines = []
        daemon = make_daemon(zone_file, lines, version="v1.0")
        event = daemon.poll_once()
        assert event.outcome.result.verified is False
        payload = json.loads(lines[-1])
        assert payload["bugs"] > 0
        assert payload["bug_categories"]

    def test_parse_error_event_and_recovery(self, zone_file):
        lines = []
        daemon = make_daemon(zone_file, lines)
        daemon.poll_once()
        zone_file.write_text("not a zone {{{")
        bump_mtime(zone_file)
        event = daemon.poll_once()
        assert event.error is not None
        assert "error" in json.loads(lines[-1])
        # Restore a valid file: the daemon picks it back up.
        zone_file.write_text(ZONE_TEXT)
        bump_mtime(zone_file, 4.0)
        event = daemon.poll_once()
        assert event.error is None
        assert event.outcome.result.verified

    def test_missing_file_event_reported_once(self, tmp_path):
        lines = []
        daemon = make_daemon(tmp_path / "gone.db", lines)
        event = daemon.poll_once()
        assert event.error is not None and "stat failed" in event.error
        assert daemon.poll_once() is None  # absence is not re-reported
        # The file appearing clears the suppressed error and verifies.
        (tmp_path / "gone.db").write_text(ZONE_TEXT)
        event = daemon.poll_once()
        assert event.error is None
        assert event.outcome.result.verified

    def test_run_with_max_updates(self, zone_file):
        lines = []
        daemon = make_daemon(zone_file, lines)
        processed = daemon.run(max_updates=1)
        assert processed == 1
        assert len(lines) == 1


class TestWatchSupervision:
    def make_supervised(self, zone_file, lines, max_attempts=2, max_failures=3):
        from repro.resilience.supervise import RetryPolicy

        return WatchDaemon(
            zone_file,
            cache=SummaryCache(memory_only=True),
            interval=0.01,
            log=lines.append,
            retry=RetryPolicy(max_attempts=max_attempts, base_delay=0.0,
                              max_delay=0.0),
            max_failures=max_failures,
            sleep=lambda _delay: None,
        )

    def test_transient_stat_fault_is_retried_to_success(self, zone_file):
        from repro.resilience import FaultPlan, faults

        lines = []
        daemon = self.make_supervised(zone_file, lines)
        plan = FaultPlan.scripted({faults.SITE_WATCH_STAT: 1})
        with faults.active(plan):
            event = daemon.poll_once()
        assert event.error is None
        assert event.outcome.result.verified
        assert event.health["attempts"] == 2
        assert event.health["breaker"] == "closed"
        assert json.loads(lines[-1])["health"]["attempts"] == 2

    def test_transient_read_fault_is_retried_to_success(self, zone_file):
        from repro.resilience import FaultPlan, faults

        lines = []
        daemon = self.make_supervised(zone_file, lines)
        plan = FaultPlan.scripted({faults.SITE_WATCH_READ: 1})
        with faults.active(plan):
            event = daemon.poll_once()
        assert event.error is None
        assert event.outcome.result.verified

    def test_exhausted_retries_become_failure_event(self, zone_file):
        from repro.resilience import FaultPlan, faults

        lines = []
        daemon = self.make_supervised(zone_file, lines)
        plan = FaultPlan.scripted({faults.SITE_WATCH_STAT: 2})
        with faults.active(plan):
            event = daemon.poll_once()
        assert event.error is not None and "stat failed" in event.error
        assert daemon.breaker.consecutive_failures == 1
        # The next clean poll closes the loop again.
        event = daemon.poll_once()
        assert event.error is None
        assert daemon.breaker.consecutive_failures == 0

    def test_breaker_opens_and_stops_polling(self, tmp_path):
        lines = []
        daemon = self.make_supervised(tmp_path / "gone.db", lines,
                                      max_failures=3)
        first = daemon.poll_once()
        assert first is not None and first.error is not None
        assert daemon.poll_once() is None  # deduped, still counted
        event = daemon.poll_once()  # third failure trips the breaker
        assert daemon.breaker.is_open
        assert event is not None  # the trip itself is reported
        assert event.health["breaker"] == "open"
        assert daemon.poll_once() is None  # open breaker: no more work
        # run() must exit instead of spinning on a dead input.
        assert daemon.run(max_updates=10) == 0

    def test_jitter_schedule_is_deterministic(self):
        from repro.resilience.supervise import RetryPolicy

        a = list(RetryPolicy(max_attempts=4, jitter_seed=3).delays())
        b = list(RetryPolicy(max_attempts=4, jitter_seed=3).delays())
        c = list(RetryPolicy(max_attempts=4, jitter_seed=4).delays())
        assert a == b
        assert a != c
        assert len(a) == 3
        assert all(delay >= 0 for delay in a)
