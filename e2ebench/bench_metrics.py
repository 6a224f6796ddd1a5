"""End-to-end and per-layer metrics of one run.

End-to-end metrics come from an untraced timed phase.  Per-layer metrics
come from a separate traced phase: times from span self times, counts and
ratios from the server's metrics registry and the streaming executor, and
simulated time from the devices' ledgers read at the phase boundaries.
Per-layer times are reported in milliseconds per op of the traced phase.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from repro.serving.tiering import HOT_CODECS

from bench_checks import counter
from bench_trace import self_times_ns
from bench_workloads import NUM_COLUMNS

#: Codecs with per-codec decode metrics: the planner's three and every
#: tile codec the tiering manager may install for hot columns.
DECODE_CODECS = tuple(dict.fromkeys(("gpu-for", "gpu-dfor", "gpu-rfor") + HOT_CODECS))


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(setup, records, elapsed_s: float, setup_times: list[float]) -> dict:
    host = [r.host_ms for r in records]
    served = [r.result for r in records if r.op.kind != "flush" and r.ok]
    sim = [s.latency_ms for s in served]
    raw_bytes = setup.db.num_lineorder_rows * NUM_COLUMNS * 4
    ok = sum(1 for r in records if r.ok)
    return {
        "host_p50_ms": (_pct(host, 50), "ms"),
        "host_p90_ms": (_pct(host, 90), "ms"),
        "host_ops_per_s": (len(records) / elapsed_s, "ops/s"),
        "sim_p50_ms": (_pct(sim, 50), "ms"),
        "sim_mean_ms": (float(np.mean(sim)) if sim else 0.0, "ms"),
        "bytes_stored_per_byte": (setup.store.total_bytes / raw_bytes, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_fraction": (ok / len(records), "ratio"),
    }


def devices(server) -> list:
    if server.router is not None:
        return list(server.router.sharded.devices)
    return [server.device]


def device_ledger(server) -> dict:
    devs = devices(server)
    return {
        "kernel_ms": sum(d.kernel_ms for d in devs),
        "transfer_ms": sum(d.transfer_ms for d in devs),
        "global_bytes": sum(d.global_bytes_moved for d in devs),
    }


def _series_tail(server, name: str, count_before: int) -> list[float]:
    return server.metrics.series(name)[count_before:]


def series_counts(server) -> dict:
    return {name: len(server.metrics.series(name))
            for name in ("router_merge_ms", "streaming_morsel_ms", "tiering_reencode_ms")}


def per_layer(server, spans, records, before: dict, after: dict,
              ledger_before: dict, ledger_after: dict, series_before: dict,
              untraced_p50_ms: float) -> dict:
    ops = max(1, len(records))
    self_ns = self_times_ns(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def spans_of(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def self_ms(*names) -> float:
        return sum(self_ns[s.id] for s in spans_of(*names)) / 1e6 / ops

    def delta(name: str) -> float:
        return counter(after, name) - counter(before, name)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}

    # query.compiler
    compiles = len(by_name.get("query.compile", ()))
    requests = len(by_name.get("query.server_compile", ()))
    out["query.compile_calls"] = (compiles, "count")
    out["query.compile_self_ms"] = (self_ms("query.server_compile", "query.compile"), "ms")
    out["query.compile_cache_hit_ratio"] = (ratio(requests - compiles, requests), "ratio")

    # serving.scheduler
    served = [r.result for r in records if r.op.kind != "flush" and r.ok]
    waits = [(r.group_start_ns - r.submitted_ns) / 1e6 for r in records
             if r.op.kind != "flush" and r.ok]
    out["scheduler.self_ms"] = (self_ms("scheduler.submit", "scheduler.drain"), "ms")
    out["scheduler.host_wait_ms"] = (float(np.mean(waits)) if waits else 0.0, "ms")
    out["scheduler.sim_queue_wait_ms"] = (
        float(np.mean([s.queue_wait_ms for s in served])) if served else 0.0, "ms")
    out["scheduler.batch_ratio"] = (ratio(delta("server_served"), delta("server_batches")),
                                    "ratio")

    # serving.semcache
    covered, fresh = delta("semcache_covered_morsels"), delta("semcache_fresh_morsels")
    out["semcache.self_ms"] = (self_ms("semcache.execute"), "ms")
    out["semcache.hit_ratio"] = (ratio(delta("semcache_hits"), delta("semcache_queries")),
                                 "ratio")
    out["semcache.covered_morsel_ratio"] = (ratio(covered, covered + fresh), "ratio")
    out["semcache.invalidated_partials"] = (delta("semcache_invalidated_partials"), "count")

    # serving.sharding
    merges = _series_tail(server, "router_merge_ms", series_before["router_merge_ms"])
    out["sharding.execute_self_ms"] = (self_ms("sharding.execute"), "ms")
    out["sharding.lookup_self_ms"] = (self_ms("sharding.lookup"), "ms")
    out["sharding.shards_per_query"] = (
        ratio(delta("router_shards_selected"), delta("router_queries")), "ratio")
    out["sharding.routing_skew"] = (float(after.get("router_routing_skew", 0.0)), "ratio")
    out["sharding.merge_sim_ms"] = (sum(merges) / ops, "ms")

    # serving.pool + ssb.loader
    hits, misses = delta("pool_hits"), delta("pool_misses")
    flush_transfer = sum(s.attrs.get("transfer_sim_ms", 0.0)
                         for s in by_name.get("updates.flush", ()))
    peak = [v for k, v in after.items()
            if k == "pool_peak_resident_bytes" or k.startswith("pool_peak_resident_bytes{")]
    out["pool.place_self_ms"] = (
        self_ms("pool.place_on_device", "sharding.place_columns", "pool.admit"), "ms")
    out["pool.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    out["pool.evictions"] = (delta("pool_evictions"), "count")
    out["pool.peak_resident_bytes"] = (float(max(peak, default=0)), "bytes")
    out["pool.transfer_sim_ms"] = (
        (ledger_after["transfer_ms"] - ledger_before["transfer_ms"] - flush_transfer) / ops,
        "ms")

    # serving.tiering
    reencode = _series_tail(server, "tiering_reencode_ms", series_before["tiering_reencode_ms"])
    out["tiering.run_self_ms"] = (self_ms("tiering.run_once"), "ms")
    out["tiering.swaps"] = (delta("tiering_swaps"), "count")
    out["tiering.reencode_ms"] = (sum(reencode) / ops, "ms")
    out["tiering.hot_columns"] = (float(after.get("tiering_hot_columns", 0)), "count")
    out["tiering.cold_columns"] = (float(after.get("tiering_cold_columns", 0)), "count")

    # core.updates
    flushes = by_name.get("updates.flush", ())
    out["updates.flush_self_ms"] = (self_ms("updates.flush"), "ms")
    out["updates.flush_transfer_sim_ms"] = (flush_transfer / ops, "ms")
    out["updates.bytes_rewritten"] = (sum(s.attrs.get("bytes", 0) for s in flushes), "bytes")

    # engine.crystal
    runs = by_name.get("engine.run", ())
    out["engine.run_self_ms"] = (self_ms("engine.run"), "ms")
    out["engine.kernels_per_query"] = (
        float(np.mean([s.attrs["kernels"] for s in runs])) if runs else 0.0, "count")

    # engine.streaming
    plans = by_name.get("streaming.plan", ())
    morsel_runs = by_name.get("streaming.run_morsels", ())
    busy = sum(_series_tail(server, "streaming_morsel_ms",
                            series_before["streaming_morsel_ms"]))
    capacity = sum(s.attrs["workers"] * s.duration_ns / 1e6 for s in morsel_runs)
    out["streaming.plan_self_ms"] = (self_ms("streaming.plan"), "ms")
    out["streaming.run_morsels_ms"] = (
        sum(s.duration_ns for s in morsel_runs) / 1e6 / ops, "ms")
    out["streaming.morsel_busy_ms"] = (busy / ops, "ms")
    out["streaming.parallel_efficiency"] = (ratio(busy, capacity), "ratio")
    out["streaming.merge_self_ms"] = (self_ms("streaming.merge_parts"), "ms")
    out["streaming.tiles_active_ratio"] = (
        ratio(sum(s.attrs["tiles_active"] for s in plans),
              sum(s.attrs["tiles"] for s in plans)), "ratio")
    out["streaming.morsels_per_query"] = (
        ratio(sum(s.attrs["morsels"] for s in plans), len(plans)), "count")
    out["streaming.peak_decoded_bytes"] = (
        float(after.get("streaming_peak_decoded_bytes", 0)), "bytes")

    # formats: only outermost decode spans count values (codec methods
    # call each other; nested calls are the same values).
    span_by_id = {s.id: s for s in spans}

    def outermost(s) -> bool:
        parent = span_by_id.get(s.parent)
        return parent is None or not parent.name.startswith("decode.")

    all_values = fused_values = 0
    for codec in DECODE_CODECS:
        decodes = by_name.get(f"decode.{codec}", ())
        values = sum(s.attrs["values"] for s in decodes if outermost(s))
        fused_values += sum(s.attrs["values"] for s in decodes
                            if outermost(s) and s.attrs["fused"])
        all_values += values
        ns = sum(self_ns[s.id] for s in decodes)
        out[f"decode.{codec}.self_ms"] = (ns / 1e6 / ops, "ms")
        out[f"decode.{codec}.values"] = (values, "count")
        out[f"decode.{codec}.ns_per_value"] = (ratio(ns, values), "ns")
    out["decode.fused_filter_ratio"] = (ratio(fused_values, all_values), "ratio")

    # core.random_access
    gathers = by_name.get("gather", ())
    indices = sum(s.attrs["indices"] for s in gathers)
    gather_ns = sum(self_ns[s.id] for s in gathers)
    out["gather.self_ms"] = (gather_ns / 1e6 / ops, "ms")
    out["gather.indices"] = (indices, "count")
    out["gather.ns_per_index"] = (ratio(gather_ns, indices), "ns")

    # gpusim ledgers, per op
    for key, unit in (("kernel_ms", "ms"), ("transfer_ms", "ms"), ("global_bytes", "bytes")):
        out[f"sim.{key}"] = ((ledger_after[key] - ledger_before[key]) / ops, unit)

    traced_p50 = _pct([r.host_ms for r in records], 50)
    out["trace.overhead_ratio"] = (ratio(traced_p50, untraced_p50_ms), "ratio")
    return out
