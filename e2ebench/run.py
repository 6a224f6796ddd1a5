"""End-to-end serving benchmark on both clocks.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload ssb-flights --seed 1 --seconds 20 --trace 0

Sets the workload up ``SETUP_REPEATS`` times (reporting the median set-up
time), then drives the last set-up's ``QueryServer`` in a closed loop for
``--seconds`` of host time with tracing off.  With ``--trace 1`` a second
timed phase of the same length follows with every layer's public entry
points wrapped in spans; it reports the per-layer metrics and writes a
Chrome trace-event file under ``.e2ebench_out/``.

Every answer is then checked against the numpy oracle (queries) or the raw
column (lookups).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit codes: 0 on
success, 1 on a wrong answer, 2 when the repository's sources are missing,
3 when a workload did not exercise what it is for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ORACLE = os.path.join(ROOT, "tests", "query_oracle.py")
OUT_DIR = os.path.join(ROOT, ".e2ebench_out")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ssb-flights", "dashboard-refresh", "ingest-refresh"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (os.path.isdir(os.path.join(SRC, "repro")) and os.path.isfile(ORACLE)):
        print("e2ebench: needs src/repro and tests/query_oracle.py of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from bench_checks import check_answers, engagement
    from bench_metrics import (device_ledger, end_to_end, per_layer,
                               series_counts)
    from bench_trace import Instrumentation, Tracer, write_chrome_trace
    from bench_workloads import Client, build_repeated, load_oracle

    repeats = 1 if args.trace else SETUP_REPEATS
    setup, setup_times = build_repeated(args.workload, args.seed, repeats)
    server = setup.server
    client = Client(setup)

    before = server.metrics_snapshot()
    records, elapsed = client.run_for(args.seconds)
    after = server.metrics_snapshot()
    failures = engagement(args.workload, server, before, after, records)
    e2e = end_to_end(setup, records, elapsed, setup_times)
    metrics = e2e
    checked = list(records)

    if args.trace:
        tracer = Tracer()
        tracer.current_rid = client.current_rid
        client.tracer = tracer
        before, ledger_before = server.metrics_snapshot(), device_ledger(server)
        series_before = series_counts(server)
        instrumentation = Instrumentation(tracer).install()
        try:
            traced, _ = client.run_for(args.seconds)
        finally:
            instrumentation.remove()
        after, ledger_after = server.metrics_snapshot(), device_ledger(server)
        metrics = per_layer(server, tracer.spans, traced, before, after,
                            ledger_before, ledger_after, series_before,
                            e2e["host_p50_ms"][0])
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        write_chrome_trace(tracer.spans, path)
        print(f"chrome trace: {os.path.relpath(path, ROOT)} ({len(tracer.spans)} spans)")
        checked += traced

    t0 = time.perf_counter()
    wrong = check_answers(setup, checked, load_oracle())
    print(f"checked {len(checked)} answers in {time.perf_counter() - t0:.1f} s: "
          f"{len(wrong)} wrong")
    for line in wrong[:20]:
        print("  " + line, file=sys.stderr)
    for line in failures:
        print(f"engagement check failed: {line}", file=sys.stderr)
    if failures and not wrong:
        return 3

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(checked),
        "failed": sum(1 for r in checked if not r.ok),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
