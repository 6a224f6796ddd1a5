"""Sharded multi-GPU serving: routing, bit-identity, staleness, faults.

The contract under test is the tentpole one: a :class:`ShardRouter`
partitions each compressed column tile-range-wise over N simulated
devices, routes queries only to shards whose tile ranges survive
zone-map pushdown, and scatter-gathers per-shard partials — and the
merged answer is **bit-identical** to single-device execution at every
shard count, for every GPU tile codec, with or without batching,
replication, semantic caching, mid-flight flushes or injected faults.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.updates import UpdatableColumn
from repro.engine.crystal import TILE, CrystalEngine
from repro.engine.predicates import And, Range
from repro.engine.ssb_queries import QUERIES, make_flight1, make_scan
from repro.formats import set_checksums, set_verify_mode
from repro.serving import (
    FaultInjector,
    MetricsRegistry,
    QueryServer,
    ServeRequest,
    ShardRouter,
    codec_tile_alignment,
    labeled,
)
from repro.ssb.loader import load_lineorder
from tests.test_streaming import (
    GPU_CODECS,
    MATRIX_QUERIES,
    _columns_for,
    _encoded_store,
)

SHARD_COUNTS = (1, 2, 4, 7)


@pytest.fixture
def hardened():
    """Checksummed encodings + lazy verification, so injected corruption
    is detectable (same contract as the fault-serving tests)."""
    prev_checks = set_checksums(True)
    prev_mode = set_verify_mode("lazy")
    yield
    set_checksums(prev_checks)
    set_verify_mode(prev_mode)


# ---------------------------------------------------------------------------
# Labeled metrics (satellite: per-shard counters without breaking scrapes)
# ---------------------------------------------------------------------------


class TestLabeledMetrics:
    def test_labeled_key_format(self):
        assert labeled("shard_queue_depth") == "shard_queue_depth"
        assert labeled("shard_queue_depth", {"shard": 2}) == (
            "shard_queue_depth{shard=2}"
        )
        # Labels sort by key, so the flat name is canonical.
        assert labeled("m", {"b": 1, "a": 2}) == "m{a=2,b=1}"

    def test_labeled_and_unlabeled_coexist(self):
        metrics = MetricsRegistry()
        metrics.inc("hits", 3)
        metrics.inc("hits", 5, labels={"shard": 0})
        metrics.inc("hits", 7, labels={"shard": 1})
        assert metrics.counter("hits") == 3
        assert metrics.counter("hits", labels={"shard": 0}) == 5
        snap = metrics.snapshot()
        assert snap["hits"] == 3
        assert snap["hits{shard=0}"] == 5
        assert snap["hits{shard=1}"] == 7

    def test_labeled_series_percentiles(self):
        metrics = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            metrics.observe("lat", v, labels={"shard": 2})
        assert metrics.series("lat", labels={"shard": 2}) == [1.0, 2.0, 3.0]
        assert metrics.series_percentile("lat", 50, labels={"shard": 2}) == 2.0
        snap = metrics.snapshot()
        assert snap["lat{shard=2}_count"] == 3
        assert snap["lat{shard=2}_p50"] == 2.0


# ---------------------------------------------------------------------------
# Alignment and shard geometry
# ---------------------------------------------------------------------------


class TestAlignment:
    def test_alignment_is_codec_tile_lcm(self, ssb_db):
        cols = _columns_for(("q1.1",))
        store128 = _encoded_store(ssb_db, "gpu-simdbp128", cols)
        assert codec_tile_alignment(store128) == 4096
        store_for = _encoded_store(ssb_db, "gpu-for", cols)
        assert codec_tile_alignment(store_for) % TILE == 0

    def test_shard_spans_tile_aligned_and_cover(self, ssb_db):
        store = _encoded_store(ssb_db, "gpu-simdbp128", _columns_for(("q1.1",)))
        router = ShardRouter(ssb_db, store, 4)
        assert router.alignment == 4096
        assert router.shards[0].row_lo == 0
        assert router.shards[-1].row_hi == ssb_db.num_lineorder_rows
        for shard, nxt in zip(router.shards, router.shards[1:]):
            assert shard.row_hi == nxt.row_lo
            if shard.row_hi < ssb_db.num_lineorder_rows:
                assert shard.row_hi % 4096 == 0
        router.close()


# ---------------------------------------------------------------------------
# Bit-identity: shard counts x codecs x queries
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=GPU_CODECS)
def sharding_codec_store(request, ssb_db):
    return request.param, _encoded_store(
        ssb_db, request.param, _columns_for(("q1.1", "q1.3", "q3.1"))
    )


class TestShardedBitIdentity:
    @pytest.mark.parametrize("qname", ("q1.1", "q1.3", "q3.1"))
    def test_matches_single_device_every_shard_count(
        self, sharding_codec_store, ssb_db, qname
    ):
        codec_name, store = sharding_codec_store
        query = QUERIES[qname]
        ref = CrystalEngine(ssb_db, store).run(query).groups
        for num_shards in SHARD_COUNTS:
            router = ShardRouter(ssb_db, store, num_shards)
            groups, wall_ms = router.execute(query)
            assert groups == ref, (codec_name, qname, num_shards)
            assert wall_ms > 0
            router.close()

    def test_full_matrix_at_four_shards(self, ssb_db):
        """Every matrix query, gpu-star store, 4 shards — one pass."""
        store = load_lineorder(ssb_db, "gpu-star")
        router = ShardRouter(ssb_db, store, 4)
        for qname in MATRIX_QUERIES:
            query = QUERIES[qname]
            ref = CrystalEngine(ssb_db, store).run(query).groups
            groups, _ = router.execute(query)
            assert groups == ref, qname
        router.close()

    def test_pruned_to_zero_still_answers_identity(self, ssb_db):
        """A predicate no tile satisfies: the fallback shard still
        produces the aggregate identity single-device returns."""
        store = load_lineorder(ssb_db, "gpu-star")
        dead = make_scan("dead", And((Range("lo_quantity", 10_000, 20_000),)))
        ref = CrystalEngine(ssb_db, store).run(dead).groups
        router = ShardRouter(ssb_db, store, 4)
        groups, _ = router.execute(dead)
        assert groups == ref
        assert len(router.last_execution["shards"]) == 1
        router.close()

    def test_replicated_columns_identical_answers(self, ssb_db):
        store = load_lineorder(ssb_db, "gpu-star")
        query = QUERIES["q1.1"]
        ref = CrystalEngine(ssb_db, store).run(query).groups
        router = ShardRouter(
            ssb_db, store, 4, replicate_columns=("lo_discount",)
        )
        groups, _ = router.execute(query)
        assert groups == ref
        # The replica is pinned in full on every shard.
        nbytes = store["lo_discount"].nbytes
        for shard in router.shards:
            resident = shard.pool.get("compressed/lo_discount")
            assert resident is not None and resident.nbytes == nbytes
            assert resident.pin_count > 0
        router.close()


# ---------------------------------------------------------------------------
# Zone-map routing
# ---------------------------------------------------------------------------


def _key_scan(name: str, key_lo: int, key_hi: int):
    """An ad-hoc revenue scan keyed on the *sorted* lo_orderkey column,
    so zone maps genuinely prune whole shards."""
    pred = And((Range("lo_orderkey", key_lo, key_hi),))
    key_pred = pred.predicates[0]

    def fn(engine):
        p = engine.pipeline(name)
        p.filter_pushdown(pred)
        orderkey = p.load("lo_orderkey")
        p.filter_predicate(key_pred, orderkey)
        discount = p.load("lo_discount")
        extendedprice = p.load("lo_extendedprice")
        result = p.total_sum_product(extendedprice, discount)
        p.finish()
        return result

    from repro.engine.crystal import SSBQuery

    return SSBQuery(
        name,
        ("lo_orderkey", "lo_discount", "lo_extendedprice"),
        fn,
        plan_key=("scan", "key-revenue"),
        predicate=pred,
    )


class TestRouting:
    def test_selective_key_range_routes_subset(self, ssb_db):
        store = load_lineorder(
            ssb_db, "gpu-star"
        )
        keys = ssb_db.lineorder["lo_orderkey"]
        assert np.all(np.diff(keys) >= 0), "lo_orderkey must be sorted"
        router = ShardRouter(ssb_db, store, 4)
        first = router.shards[0]
        # A range entirely inside shard 0's rows.
        hi_key = int(keys[first.row_hi - 1])
        lo_q = _key_scan("first-shard", int(keys[0]), max(int(keys[0]), hi_key - 1))
        selected = router.route(lo_q)
        assert [s.index for s in selected] == [0]
        # An unkeyed scan fans out everywhere.
        broad = make_scan("broad", And((Range("lo_discount", 0, 10),)))
        assert len(router.route(broad)) == 4
        snap = router.metrics.snapshot()
        assert snap["shard_queries{shard=0}"] == 2
        assert snap["router_routing_skew"] > 1.0
        router.close()

    def test_skewed_answers_still_identical(self, ssb_db):
        store = load_lineorder(ssb_db, "gpu-star")
        keys = ssb_db.lineorder["lo_orderkey"]
        router = ShardRouter(ssb_db, store, 4)
        ref_engine = CrystalEngine(ssb_db, store)
        for lo_frac, hi_frac in ((0.0, 0.2), (0.4, 0.6), (0.1, 0.9)):
            lo = int(keys[int(lo_frac * (keys.size - 1))])
            hi = int(keys[int(hi_frac * (keys.size - 1))])
            q = _key_scan(f"skew-{lo_frac}", lo, hi)
            assert router.execute(q)[0] == ref_engine.run(q).groups
        router.close()


# ---------------------------------------------------------------------------
# Scatter-gather point lookups
# ---------------------------------------------------------------------------


class TestShardedLookup:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_lookup_reassembles_original_order(self, ssb_db, num_shards):
        store = load_lineorder(ssb_db, "gpu-star")
        router = ShardRouter(ssb_db, store, num_shards)
        rng = np.random.default_rng(17)
        indices = rng.integers(0, ssb_db.num_lineorder_rows, 513)
        values, wall_ms = router.lookup("lo_extendedprice", indices)
        assert np.array_equal(
            values, ssb_db.lineorder["lo_extendedprice"][indices]
        )
        assert wall_ms > 0
        router.close()

    def test_replicated_lookup_uses_one_shard(self, ssb_db):
        store = load_lineorder(ssb_db, "gpu-star")
        router = ShardRouter(
            ssb_db, store, 4, replicate_columns=("lo_extendedprice",)
        )
        indices = np.arange(0, ssb_db.num_lineorder_rows, 97)
        values, _ = router.lookup("lo_extendedprice", indices)
        assert np.array_equal(
            values, ssb_db.lineorder["lo_extendedprice"][indices]
        )
        # Exactly one device did gather work for the lookup.
        busy = [s for s in router.shards if s.busy_ms > 0]
        assert len(busy) == 1
        router.close()


# ---------------------------------------------------------------------------
# Through the QueryServer
# ---------------------------------------------------------------------------


class TestShardedServer:
    @pytest.mark.parametrize("num_shards", (2, 4))
    def test_server_answers_match_single_device(
        self, ssb_db, gpu_star_store, num_shards
    ):
        requests = [
            ServeRequest("query", "q1.1"),
            ServeRequest("query", "q3.1"),
            ServeRequest(
                "lookup", "lo_extendedprice", indices=np.arange(100, 400)
            ),
        ]
        ref_srv = QueryServer(ssb_db, gpu_star_store)
        ref = ref_srv.serve([ServeRequest(r.kind, r.name, indices=r.indices)
                             for r in requests])
        ref_srv.stop()
        server = QueryServer(
            ssb_db, gpu_star_store, num_shards=num_shards
        )
        got = server.serve(requests)
        for a, b in zip(ref, got):
            assert b.ok, b.error
            if a.groups is not None:
                assert b.groups == a.groups
            else:
                assert np.array_equal(b.values, a.values)
        snap = server.metrics_snapshot()
        assert snap["server_served"] == 3
        for i in range(num_shards):
            assert f"pool_budget_bytes{{shard={i}}}" in snap
        assert snap["router_queries"] >= 2
        server.stop()

    def test_semantic_cache_per_shard(self, ssb_db, gpu_star_store):
        server = QueryServer(
            ssb_db,
            gpu_star_store,
            num_shards=4,
            semantic_cache=True,
            batch_window=1,
        )
        ref = CrystalEngine(ssb_db, gpu_star_store).run(QUERIES["q1.1"]).groups
        r1 = server.serve([ServeRequest("query", "q1.1")])[0]
        r2 = server.serve([ServeRequest("query", "q1.1")])[0]
        assert r1.groups == r2.groups == ref
        snap = server.metrics_snapshot()
        assert snap.get("semcache_covered_morsels", 0) > 0
        server.stop()

    def test_flush_during_sharded_serving_never_stale(self, ssb_db):
        """An UpdatableColumn flush must invalidate *every* shard: the
        next sharded answer reflects the post-update bytes exactly."""
        store = load_lineorder(ssb_db, "gpu-star")
        router = ShardRouter(ssb_db, store, 4)
        ucol = UpdatableColumn(ssb_db.lineorder["lo_extendedprice"])
        router.bind_updatable("lo_extendedprice", ucol)
        query = QUERIES["q1.1"]
        before, _ = router.execute(query)

        rows = np.arange(0, ssb_db.num_lineorder_rows, 7)
        ucol.update_many(rows, np.ones(rows.size, dtype=np.int64))
        ucol.flush(router.shards[0].device)
        after, _ = router.execute(query)

        fresh = load_lineorder(ssb_db, "gpu-star")
        fresh["lo_extendedprice"].values = ucol.values.copy()
        fresh["lo_extendedprice"].payload = ucol.encoded
        fresh["lo_extendedprice"].codec_name = ucol.codec_name
        expect = CrystalEngine(ssb_db, fresh).run(query).groups
        assert expect != before, "update must be visible in the aggregate"
        assert after == expect, "a shard served stale pre-flush bytes"
        router.close()

    def test_quarantined_column_degrades_structurally(self, ssb_db, hardened):
        """Persistent corruption on one column: sharded serving answers
        with a structured quarantine error, and queries not touching the
        corrupt column keep working."""
        store = load_lineorder(ssb_db, "gpu-star")
        injector = FaultInjector(seed=7)
        injector.corrupt(store["lo_discount"].payload, "payload-bit")
        server = QueryServer(
            ssb_db, store, num_shards=4, batch_window=1
        )
        bad = server.serve([ServeRequest("query", "q1.1")])[0]
        assert bad.status == "error"
        assert "quarantined" in bad.error or "corrupt" in bad.error.lower()
        assert server.quarantined_columns()
        # q3.1 never reads lo_discount: it must still be served.
        good = server.serve([ServeRequest("query", "q3.1")])[0]
        assert good.ok, good.error
        snap = server.metrics_snapshot()
        assert snap.get("server_quarantines", 0) == 1
        server.stop()

    def test_transient_shard_fault_retried(self, ssb_db):
        store = load_lineorder(ssb_db, "gpu-star")
        server = QueryServer(
            ssb_db, store, num_shards=2, max_retries=2
        )
        injector = FaultInjector(seed=3)
        hook = injector.transient_faults(columns=["lo_discount"], times=1)
        for shard in server.router.shards:
            shard.engine.fault_hook = hook
        result = server.serve([ServeRequest("query", "q1.1")])[0]
        assert result.ok, result.error
        assert server.metrics_snapshot().get("server_transient_retries", 0) >= 1
        server.stop()


# ---------------------------------------------------------------------------
# Flight-1 correctness under batching (many distinct ad-hoc scans)
# ---------------------------------------------------------------------------


class TestShardedWorkload:
    def test_mixed_scan_workload_identical(self, ssb_db, gpu_star_store):
        mix = [
            make_flight1("w-a", 19930101, 19931231, 1, 3, 0, 24),
            make_flight1("w-b", 19940101, 19941231, 4, 6, 26, 35),
            make_flight1("w-c", 19940204, 19940210, 5, 7, 26, 35),
        ]
        ref_engine = CrystalEngine(ssb_db, gpu_star_store)
        expected = {q.name: ref_engine.run(q).groups for q in mix}
        server = QueryServer(ssb_db, gpu_star_store, num_shards=4)
        results = server.serve(
            [ServeRequest("query", q.name, query=q) for q in mix * 2]
        )
        for result in results:
            assert result.ok, result.error
            assert result.groups == expected[result.request.name]
        server.stop()
