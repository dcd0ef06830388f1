"""Incremental verification: delta size vs reuse (Janus-style curve).

The incremental subsystem re-verifies only the query-space partitions whose
dependency closure a zone delta touched.  This benchmark warms an
:class:`IncrementalVerifier` with the by-label planner (one unit per
subtree; under the default equivalence-class planner an rdata update
recomputes nothing, so there is no curve to draw) on a flat zone, then
applies batches of
k ∈ {1, 4, 16} record-level rdata updates and compares the incremental
re-verification against a from-scratch monolithic run on the same zone —
wall time and solver checks.  Expected shape: speedup is largest for k=1
(one subtree invalidated) and decays toward 1× as the delta sweeps most
subtrees.

Run under pytest (``pytest benchmarks/bench_incremental.py``) for the
pytest-benchmark harness, or standalone for machine-readable output::

    PYTHONPATH=src python benchmarks/bench_incremental.py [--hosts N] [--ks 1,4]

The standalone mode prints a single JSON document with one row per k.
"""

import argparse
import json
import sys
import time

from repro.core.pipeline import VerificationSession
from repro.dns.rdata import ARdata
from repro.dns.records import ResourceRecord
from repro.dns.rtypes import RRType
from repro.dns.zonefile import parse_zone_text
from repro.incremental.cache import SummaryCache
from repro.incremental.delta import RecordChange, ZoneDelta
from repro.incremental.engine import IncrementalVerifier

DEFAULT_HOSTS = 16
DEFAULT_KS = (1, 4, 16)
VERSION = "verified"


def bench_zone(num_hosts=DEFAULT_HOSTS):
    """A flat zone with ``num_hosts`` independent host subtrees plus a
    wildcard, a delegation and a CNAME, so single-host deltas leave most
    partitions untouched."""
    hosts = "\n".join(
        f"h{i:02d} IN A 192.0.2.{i + 10}" for i in range(1, num_hosts + 1)
    )
    text = f"""\
$ORIGIN bench.example.
@ IN SOA ns1.bench.example. hostmaster.bench.example. 7 3600 600 86400 300
@ IN NS ns1
ns1 IN A 192.0.2.1
{hosts}
*.tenants IN A 192.0.2.90
sub IN NS ns1.sub
ns1.sub IN A 192.0.2.100
www IN CNAME h01.bench.example.
"""
    return parse_zone_text(text)


def rdata_update_delta(zone, k, round_no):
    """k universe-preserving rdata updates on the first k host A records."""
    hosts = sorted(
        (
            rec for rec in zone.records
            if rec.rtype is RRType.A and rec.rname.labels[0].startswith("h")
        ),
        key=lambda rec: rec.rname.to_text(),
    )
    if k > len(hosts):
        raise ValueError(f"zone has only {len(hosts)} host records, need {k}")
    changes = []
    for i, rec in enumerate(hosts[:k]):
        fresh = ARdata(f"198.51.100.{(round_no * 37 + i) % 200 + 1}")
        changes.append(RecordChange("delete", rec))
        changes.append(RecordChange("add", ResourceRecord(rec.rname, rec.rtype, fresh, rec.ttl)))
    return ZoneDelta(zone.origin, tuple(changes))


def run_curve(num_hosts=DEFAULT_HOSTS, ks=DEFAULT_KS, version=VERSION):
    """Warm once, then one row per k: incremental apply vs scratch."""
    zone = bench_zone(num_hosts)
    verifier = IncrementalVerifier(zone, version, planner="by-label",
                                   cache=SummaryCache(memory_only=True))
    t0 = time.perf_counter()
    warm = verifier.verify_current()
    warm_seconds = time.perf_counter() - t0
    assert warm.result.verified, warm.result.describe()

    rows = []
    for round_no, k in enumerate(ks, start=1):
        delta = rdata_update_delta(verifier.zone, k, round_no)

        t0 = time.perf_counter()
        outcome = verifier.apply(delta)
        inc_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        scratch = VerificationSession(verifier.zone, version).verify()
        scratch_seconds = time.perf_counter() - t0

        assert outcome.result.verified == scratch.verified
        inc_checks = outcome.result.solver_checks
        rows.append({
            "k": k,
            "incremental_seconds": round(inc_seconds, 3),
            "scratch_seconds": round(scratch_seconds, 3),
            "incremental_checks": inc_checks,
            "scratch_checks": scratch.solver_checks,
            "speedup_time": round(scratch_seconds / inc_seconds, 2) if inc_seconds else None,
            "speedup_checks": round(scratch.solver_checks / inc_checks, 2) if inc_checks else None,
            "partitions_reused": outcome.reuse.partitions_reused,
            "partitions_total": outcome.reuse.partitions_total,
        })
    return {
        "benchmark": "bench_incremental",
        "version": version,
        "zone_origin": str(verifier.zone.origin.to_text()),
        "records": len(verifier.zone),
        "warm_seconds": round(warm_seconds, 3),
        "warm_checks": warm.result.solver_checks,
        "rows": rows,
    }


_REPORT = {}


def test_incremental_curve(benchmark):
    report = benchmark.pedantic(run_curve, rounds=1, iterations=1)
    _REPORT.update(report)
    for row in report["rows"]:
        # Small deltas must show real reuse; the curve may flatten at k=16.
        assert row["partitions_reused"] > 0 or row["k"] >= report["records"]
        assert row["incremental_checks"] <= row["scratch_checks"]
    assert report["rows"][0]["speedup_checks"] >= 5.0


def test_incremental_report(benchmark):
    if not _REPORT:
        _REPORT.update(run_curve())
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print()
    print("Incremental vs from-scratch (k rdata updates per delta):")
    header = (f"{'k':>4} {'inc s':>8} {'scratch s':>10} {'inc checks':>11} "
              f"{'scratch checks':>15} {'speedup':>8} {'reused':>7}")
    print(header)
    for row in _REPORT["rows"]:
        print(
            f"{row['k']:>4} {row['incremental_seconds']:>8.2f} "
            f"{row['scratch_seconds']:>10.2f} {row['incremental_checks']:>11} "
            f"{row['scratch_checks']:>15} {row['speedup_checks']:>7.1f}x "
            f"{row['partitions_reused']:>3}/{row['partitions_total']}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hosts", type=int, default=DEFAULT_HOSTS,
                        help="number of host subtrees in the bench zone")
    parser.add_argument("--ks", default=",".join(str(k) for k in DEFAULT_KS),
                        help="comma-separated delta sizes (default 1,4,16)")
    parser.add_argument("--version", default=VERSION, help="engine version")
    args = parser.parse_args(argv)
    ks = tuple(int(part) for part in args.ks.split(",") if part)
    report = run_curve(num_hosts=args.hosts, ks=ks, version=args.version)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
