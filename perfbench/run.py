"""One command for the repository's benchmark.

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 18 --trace 0

Runs one seeded workload (``verify-corpus``, ``serve-mix`` or
``publish-under-load``, see ``perfbench/README.md``) against the system's
public entry points from the root of a source checkout, checks every
verdict and answer against its oracle, and prints a human-readable report
followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones named in
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, from a traced
run. The exit code is 0 when every output matched its oracle, 1 when one
did not, and 2 when the run could not be made (no ``src/`` to run, a
worker died, or the load generator fell behind its schedule).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def source_id() -> str:
    """The git commit when the checkout is a repository, else a digest of
    the ``src`` tree (the benchmark also runs from exported checkouts)."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def host_facts(seed: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "source": source_id(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model,
        "loadavg": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src'}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    from perfbench.child import ChildError
    from perfbench.workloads import WORKLOADS, InvalidRun

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    facts = host_facts(args.seed)
    sys.path.insert(0, str(ROOT / "src"))

    scratch = ROOT / ".perfbench_tmp" / f"{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        run = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace),
                                       scratch)
    except InvalidRun as exc:
        print(f"perfbench: invalid run, no figures: {exc}", file=sys.stderr)
        return 2
    except ChildError as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        violations = run.metrics.get("trace.violations", (0, "count"))[0]
        run.check(violations == 0,
                  f"{violations} span(s) shorter than their children")
    metrics = {}
    for entry in wanted:
        value, unit = run.metrics.get(entry["name"], (0.0, entry["unit"]))
        metrics[entry["name"]] = {"value": value, "unit": unit}

    record = {"workload": args.workload, "trace": args.trace,
              "host": facts, "wall_s": time.perf_counter() - started,
              "failed_ratio": run.failed / run.attempted if run.attempted else 0.0,
              "details": run.details, "problems": run.problems}
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} on {facts['nproc']} CPU(s), Python "
          f"{facts['python']}, {facts['cpu_model']}, load {facts['loadavg']}")
    for key in ("corpus_s", "verdict_p50_s", "verdict_p90_s", "answer_p50_us",
                "answer_p90_us",
                "server_cpu_us_per_answer", "max_qps", "publish_p50_s",
                "publishes", "generator_lateness_p90_us"):
        if key in run.details:
            print(f"  {key:<28} {run.details[key]}")
    print(f"  {'failed_ratio':<28} {record['failed_ratio']}")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:.6g} {entry['unit']}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    print("record " + json.dumps(record, default=str))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
