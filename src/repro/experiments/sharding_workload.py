"""Sharded serving workload: tile-range shards, routing skew, SF=20.

The paper's evaluation runs SSB at SF=20 (120M lineorder rows) — a
working set that motivates §1's "shard between multiple GPUs".  This
driver pushes a scan-heavy workload through the serving layer's
:class:`~repro.serving.sharding.ShardRouter` at 1/2/4 shards and reports

* simulated wall-clock and speedup per shard count (slowest routed shard
  per query plus the interconnect all-gather of partials),
* the same walls projected to the paper's SF=20 (per-query kernel launch
  overhead held fixed, data-proportional time scaled by rows),
* routing skew: the workload mixes broad flight-1 scans (fan out to all
  shards) with key-range scans over the *sorted* ``lo_orderkey`` column
  concentrated on a hot key region — zone maps route those to a subset
  of shards, so shard 0 ends up busier than the tail shards,
* per-shard occupancy (queries routed, busy ms, resident bytes,
  evictions under a deliberately tight per-shard pool budget).

Answers stay bit-identical to single-device execution at every shard
count — asserted here on every query, not just in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.engine.crystal import CrystalEngine, SSBQuery
from repro.engine.predicates import And, Range
from repro.engine.ssb_queries import make_flight1
from repro.experiments.common import DEFAULT_SF, PAPER_SF, print_experiment
from repro.serving.metrics import MetricsRegistry
from repro.serving.sharding import ShardRouter
from repro.ssb.dbgen import SSBDatabase, generate
from repro.ssb.loader import load_lineorder

#: Shard counts the experiment sweeps (the headline claim is at 4).
SHARD_COUNTS = (1, 2, 4)


def make_key_scan(name: str, key_lo: int, key_hi: int) -> SSBQuery:
    """A revenue scan keyed on the sorted ``lo_orderkey`` column.

    ``lo_orderkey`` is monotone in the generated lineorder table, so a
    key range maps to a contiguous row range — exactly the shape whose
    zone maps let the router prune whole shards.  (``make_scan`` only
    accepts the classic flight-1 filter columns, so this query is built
    directly.)
    """
    pred = And((Range("lo_orderkey", key_lo, key_hi),))
    key_pred = pred.predicates[0]

    def fn(engine: CrystalEngine) -> dict[int, int]:
        p = engine.pipeline(name)
        p.filter_pushdown(pred)
        orderkey = p.load("lo_orderkey")
        p.filter_predicate(key_pred, orderkey)
        discount = p.load("lo_discount")
        extendedprice = p.load("lo_extendedprice")
        result = p.total_sum_product(extendedprice, discount)
        p.finish()
        return result

    return SSBQuery(
        name,
        ("lo_orderkey", "lo_discount", "lo_extendedprice"),
        fn,
        plan_key=("scan", "key-revenue"),
        predicate=pred,
    )


def build_workload(
    db: SSBDatabase,
    num_queries: int = 24,
    seed: int = 11,
    hot_fraction: float = 0.6,
    hot_span: float = 0.25,
) -> list[SSBQuery]:
    """A scan-heavy mix: broad flight-1 scans plus skewed key scans.

    Half the stream are flight-1 revenue scans (no key predicate — they
    fan out to every shard); the rest are ``lo_orderkey`` range scans,
    ``hot_fraction`` of which land inside the first ``hot_span`` of the
    key space.  On a tile-range-sharded store that hot region lives on
    the low shards, so routing is measurably skewed.
    """
    rng = np.random.default_rng(seed)
    keys = db.lineorder["lo_orderkey"]
    broad = [
        make_flight1("shard-scan-93", 19930101, 19931231, 1, 3, 0, 24),
        make_flight1("shard-scan-94", 19940101, 19941231, 4, 6, 26, 35),
        make_flight1("shard-scan-95", 19950101, 19951231, 5, 7, 26, 35),
        make_flight1("shard-scan-all", 19930101, 19971231, 1, 7, 0, 50),
    ]
    queries: list[SSBQuery] = []
    for i in range(num_queries):
        if i % 2 == 0:
            queries.append(broad[(i // 2) % len(broad)])
            continue
        if rng.random() < hot_fraction:
            lo_frac = rng.uniform(0.0, hot_span * 0.5)
            hi_frac = lo_frac + rng.uniform(0.02, hot_span * 0.5)
        else:
            lo_frac = rng.uniform(0.0, 0.8)
            hi_frac = lo_frac + rng.uniform(0.05, 0.2)
        lo = int(keys[int(lo_frac * (keys.size - 1))])
        hi = int(keys[min(int(hi_frac * (keys.size - 1)), keys.size - 1)])
        queries.append(make_key_scan(f"shard-key-{i}", lo, hi))
    return queries


def _project_sf20(wall_ms: float, num_queries: int, scale_factor: float,
                  launch_ms: float) -> float:
    """Project a measured wall to SF=20: the per-query fused-kernel
    launch overhead is row-count independent; everything else (decode,
    filter, transfer, merge) is data-proportional."""
    fixed = num_queries * launch_ms
    variable = max(0.0, wall_ms - fixed)
    return fixed + variable * (PAPER_SF / scale_factor)


def run(
    db: SSBDatabase | None = None,
    scale_factor: float = DEFAULT_SF,
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
    num_queries: int = 24,
    seed: int = 11,
    budget_headroom: float = 1.03,
) -> dict:
    """Serve the skewed scan mix at each shard count; returns a summary.

    Each shard's pool budget is the largest single query's compressed
    share times ``budget_headroom`` — every query fits pinned, but the
    union of the flight-1 and key-scan column sets does not, so
    alternating between the families forces evictions on every shard.
    """
    if db is None:
        db = generate(scale_factor=scale_factor, seed=7)
    else:
        scale_factor = db.num_lineorder_rows / 6_000_000
    store = load_lineorder(db, "gpu-star")
    workload = build_workload(db, num_queries=num_queries, seed=seed)
    max_query_bytes = max(
        sum(store[c].nbytes for c in q.columns) for q in workload
    )
    reference = CrystalEngine(db, store)
    expected = {}
    for query in workload:
        if query.name not in expected:
            expected[query.name] = reference.run(query).groups

    rows: list[dict] = []
    shard_rows: list[dict] = []
    single_wall = None
    launch_ms = None
    for num_shards in shard_counts:
        metrics = MetricsRegistry()
        budget = max(1, int(max_query_bytes * budget_headroom) // num_shards)
        router = ShardRouter(
            db, store, num_shards, budget_bytes=budget, metrics=metrics
        )
        if launch_ms is None:
            launch_ms = router.sharded.spec.kernel_launch_us / 1000.0
        wall = 0.0
        for query in workload:
            with router.pinned(query.columns) as place_ms:
                groups, execute_ms = router.execute(query)
            wall += place_ms + execute_ms
            assert groups == expected[query.name], (num_shards, query.name)
        snap = metrics.snapshot()
        if single_wall is None:
            single_wall = wall
        wall_sf20 = _project_sf20(wall, len(workload), scale_factor, launch_ms)
        rows.append(
            {
                "shards": num_shards,
                "wall_ms": wall,
                "speedup": single_wall / wall,
                "wall_ms_sf20": wall_sf20,
                "skew": snap.get("router_routing_skew", 1.0),
                "merge_ms": snap.get("router_merge_ms_count", 0)
                and snap.get("router_merge_ms_mean", 0.0)
                * snap.get("router_merge_ms_count", 0),
                "evictions": sum(
                    metrics.counter("pool_evictions", labels={"shard": i})
                    for i in range(num_shards)
                ),
            }
        )
        if num_shards == shard_counts[-1]:
            for entry in router.shard_summary():
                entry["p99_ms"] = metrics.series_percentile(
                    "shard_execute_ms", 99.0, labels={"shard": entry["shard"]}
                )
                shard_rows.append(entry)
        router.close()

    base_sf20 = rows[0]["wall_ms_sf20"]
    for row in rows:
        row["speedup_sf20"] = base_sf20 / row["wall_ms_sf20"]
    return {
        "rows": rows,
        "shard_rows": shard_rows,
        "num_queries": len(workload),
        "scale_factor": scale_factor,
        "num_rows": int(db.num_lineorder_rows),
        "compressed_bytes": int(store.total_bytes),
    }


def summary_rows(result: dict) -> list[dict]:
    """The per-shard-count sweep as report-table rows."""
    return [
        {
            "shards": r["shards"],
            "wall_ms": r["wall_ms"],
            "speedup": r["speedup"],
            "sf20_wall_ms": r["wall_ms_sf20"],
            "sf20_speedup": r["speedup_sf20"],
            "routing_skew": r["skew"],
            "evictions": r["evictions"],
        }
        for r in result["rows"]
    ]


def shard_rows(result: dict) -> list[dict]:
    """Per-shard occupancy of the largest sweep point."""
    return [
        {
            "shard": s["shard"],
            "tiles": s["tiles"],
            "routed": s["routed"],
            "busy_ms": s["busy_ms"],
            "p99_ms": s["p99_ms"],
            "resident_MB": s["resident_bytes"] / 1e6,
            "evictions": s["evictions"],
        }
        for s in result["shard_rows"]
    ]


def main() -> None:
    result = run()
    print_experiment(
        "Extension — sharded serving: scan-heavy mix, zone-map routing "
        f"({result['num_queries']} queries, SF={result['scale_factor']:g})",
        summary_rows(result),
    )
    print_experiment(
        "Per-shard occupancy at the largest shard count",
        shard_rows(result),
    )


if __name__ == "__main__":
    main()
