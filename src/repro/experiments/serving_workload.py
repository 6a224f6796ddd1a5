"""Serving-layer workload driver: a mixed query/lookup mix through
:class:`~repro.serving.QueryServer` under a constrained device budget.

The scenario the ROADMAP's north star implies: many clients, one GPU,
a device budget deliberately smaller than the decoded working set, so
the :class:`~repro.serving.ColumnPool` must evict — compressed columns,
zone-map metadata and the streaming decode arena's scratch — while
queries stream through.  The driver reports throughput against the
*simulated* serving clock, latency percentiles, and the pool's hit and
eviction counters — the numbers ``BENCH_serving.json`` pins as the
perf baseline for future PRs.
"""

from __future__ import annotations

import numpy as np

from repro.engine.ssb_queries import QUERIES
from repro.serving.metrics import metrics_rows
from repro.serving.scheduler import QueryServer, ServeRequest
from repro.ssb.dbgen import SSBDatabase, generate
from repro.ssb.loader import load_lineorder

#: Queries the mixed workload draws from (one per SSB flight shape).
QUERY_MIX = ("q1.1", "q2.1", "q3.1", "q4.1", "q1.3", "q3.4")
#: Columns point lookups target.
LOOKUP_COLUMNS = ("lo_revenue", "lo_extendedprice", "lo_quantity")


def build_workload(
    num_requests: int,
    num_rows: int,
    seed: int = 0,
    lookup_fraction: float = 0.25,
    lookup_points: int = 64,
) -> list[ServeRequest]:
    """A reproducible mixed stream of SSB queries and point lookups."""
    rng = np.random.default_rng(seed)
    requests: list[ServeRequest] = []
    for _ in range(num_requests):
        if rng.random() < lookup_fraction:
            column = str(rng.choice(LOOKUP_COLUMNS))
            indices = rng.integers(0, num_rows, size=lookup_points)
            requests.append(ServeRequest("lookup", column, indices=indices))
        else:
            requests.append(ServeRequest("query", str(rng.choice(QUERY_MIX))))
    return requests


def decoded_working_set_bytes(db: SSBDatabase) -> int:
    """Bytes of one int64 image of every column the query mix touches
    (the yardstick the budget is sized against; streaming execution
    never holds these images)."""
    columns = {c for name in QUERY_MIX for c in QUERIES[name].columns}
    return len(columns) * db.num_lineorder_rows * 8


def run(
    db: SSBDatabase | None = None,
    scale_factor: float = 0.01,
    num_requests: int = 80,
    budget_fraction: float = 0.4,
    seed: int = 0,
    batch_window: int = 8,
    max_queue: int = 32,
) -> dict:
    """Serve the mixed workload; returns a summary dict.

    ``budget_fraction`` sizes the pool at the compressed store plus that
    fraction of the decoded working set — below 1.0 the pool *must*
    evict to complete the workload.
    """
    if db is None:
        db = generate(scale_factor=scale_factor, seed=7)
    store = load_lineorder(db, "gpu-star")
    decoded_ws = decoded_working_set_bytes(db)
    budget = store.total_bytes + int(decoded_ws * budget_fraction)

    server = QueryServer(
        db, store, budget_bytes=budget,
        max_queue=max_queue, batch_window=batch_window,
    )
    requests = build_workload(num_requests, db.num_lineorder_rows, seed=seed)
    results = server.serve(requests)

    snapshot = server.metrics_snapshot()
    ok = [r for r in results if r.ok]
    clock_ms = server.clock_ms
    hits = snapshot.get("pool_hits", 0)
    misses = snapshot.get("pool_misses", 0)
    return {
        "num_requests": num_requests,
        "served": len(ok),
        "timeouts": sum(1 for r in results if r.status == "timeout"),
        "rejected": sum(1 for r in results if r.status == "rejected"),
        "budget_bytes": budget,
        "decoded_working_set_bytes": decoded_ws,
        "compressed_bytes": store.total_bytes,
        "simulated_ms": clock_ms,
        "throughput_qps": len(ok) / (clock_ms / 1000.0) if clock_ms else 0.0,
        "latency_p50_ms": snapshot.get("latency_ms_p50", 0.0),
        "latency_p99_ms": snapshot.get("latency_ms_p99", 0.0),
        "latency_mean_ms": snapshot.get("latency_ms_mean", 0.0),
        "pool_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "pool_evictions": snapshot.get("pool_evictions", 0),
        "pool_peak_resident_bytes": snapshot.get("pool_peak_resident_bytes", 0.0),
        "batches": snapshot.get("server_batches", 0),
        "batched_requests": snapshot.get("server_batched_requests", 0),
        "metrics": snapshot,
    }


def summary_rows(summary: dict) -> list[dict]:
    """The one-line report row the serving section renders."""
    return [
        {
            "requests": summary["num_requests"],
            "served": summary["served"],
            "budget_MB": summary["budget_bytes"] / 1e6,
            "throughput_qps": summary["throughput_qps"],
            "p50_ms": summary["latency_p50_ms"],
            "p99_ms": summary["latency_p99_ms"],
            "hit_rate": summary["pool_hit_rate"],
            "evictions": summary["pool_evictions"],
            "peak_resident_MB": summary["pool_peak_resident_bytes"] / 1e6,
        }
    ]


def main() -> None:  # pragma: no cover - CLI convenience
    summary = run()
    for row in summary_rows(summary):
        print(row)
    for row in metrics_rows(summary["metrics"]):
        print(f"  {row['metric']}: {row['value']}")


if __name__ == "__main__":  # pragma: no cover
    main()
