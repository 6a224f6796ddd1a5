"""ColumnPool: admission, cost-aware eviction, pins, capacity enforcement."""

import numpy as np
import pytest

from repro.formats.registry import get_codec
from repro.gpusim import GPUDevice
from repro.serving import (
    ColumnPool,
    MetricsRegistry,
    PoolAdmissionError,
    estimate_decode_cost_ms,
)
from repro.ssb.dbgen import generate
from repro.ssb.loader import load_lineorder


class TestAdmission:
    def test_admit_and_get(self):
        pool = ColumnPool(1000)
        pool.admit("a", 400, kind="decoded", payload="payload-a")
        resident = pool.get("a")
        assert resident is not None and resident.payload == "payload-a"
        assert pool.resident_bytes == 400

    def test_miss_counts(self):
        pool = ColumnPool(1000)
        assert pool.get("nope") is None
        assert pool.metrics.counter("pool_misses") == 1

    def test_oversized_payload_rejected(self):
        pool = ColumnPool(100)
        with pytest.raises(PoolAdmissionError):
            pool.admit("huge", 101, kind="compressed")
        assert pool.metrics.counter("pool_rejections") == 1

    def test_readmission_refreshes_in_place(self):
        pool = ColumnPool(1000)
        pool.admit("a", 400, kind="decoded", payload="old")
        pool.admit("a", 400, kind="decoded", payload="new")
        assert pool.get("a").payload == "new"
        assert pool.resident_bytes == 400

    def test_readmission_with_new_size_reaccounts(self):
        pool = ColumnPool(1000)
        pool.admit("a", 400, kind="decoded")
        pool.admit("a", 600, kind="decoded")
        assert pool.resident_bytes == 600


class TestEviction:
    def test_decoded_evicted_before_compressed(self):
        pool = ColumnPool(1000)
        pool.admit("compressed/a", 400, kind="compressed", reconstruct_cost_ms=0.01)
        pool.admit("decoded/a", 400, kind="decoded", reconstruct_cost_ms=100.0)
        pool.admit("compressed/b", 400, kind="compressed", reconstruct_cost_ms=0.01)
        # The decoded image goes first even though it is far costlier to
        # rebuild and more recent than compressed/a: it is reconstructible.
        assert "decoded/a" not in pool
        assert "compressed/a" in pool and "compressed/b" in pool

    def test_cheap_stale_decoded_evicted_first(self):
        pool = ColumnPool(1000)
        pool.admit("cheap", 300, kind="decoded", reconstruct_cost_ms=0.001)
        pool.admit("costly", 300, kind="decoded", reconstruct_cost_ms=10.0)
        pool.get("costly")  # costly is also the more recently used
        pool.admit("new", 500, kind="decoded", reconstruct_cost_ms=1.0)
        assert "cheap" not in pool and "costly" in pool

    def test_recency_discounts_cost(self):
        pool = ColumnPool(1000)
        pool.admit("old-costly", 400, kind="decoded", reconstruct_cost_ms=1.0)
        pool.admit("hot-cheap", 400, kind="decoded", reconstruct_cost_ms=0.9)
        for _ in range(50):  # age old-costly far beyond its cost edge
            pool.get("hot-cheap")
        pool.admit("new", 400, kind="decoded", reconstruct_cost_ms=1.0)
        assert "old-costly" not in pool and "hot-cheap" in pool

    def test_pinned_residents_never_evicted(self):
        pool = ColumnPool(1000)
        pool.admit("pinned", 600, kind="decoded", pin=True)
        with pytest.raises(PoolAdmissionError):
            pool.admit("other", 600, kind="decoded")
        assert "pinned" in pool
        pool.unpin("pinned")
        pool.admit("other", 600, kind="decoded")
        assert "pinned" not in pool

    def test_pinned_context_manager(self):
        pool = ColumnPool(1000)
        pool.admit("a", 600, kind="decoded")
        with pool.pinned("a", "not-resident"):
            with pytest.raises(PoolAdmissionError):
                pool.admit("b", 600, kind="decoded")
        pool.admit("b", 600, kind="decoded")  # unpinned on exit
        assert "a" not in pool

    def test_budget_never_exceeded(self):
        pool = ColumnPool(1000)
        rng = np.random.default_rng(0)
        for i in range(200):
            pool.admit(f"r{i}", int(rng.integers(50, 400)), kind="decoded",
                       reconstruct_cost_ms=float(rng.random()))
            assert pool.resident_bytes <= 1000
        snap = pool.metrics_snapshot()
        assert snap["pool_peak_resident_bytes"] <= 1000
        assert snap["pool_evictions"] > 0


class TestInvalidation:
    def test_invalidate_drops_even_pinned(self):
        pool = ColumnPool(1000)
        pool.admit("a", 400, kind="decoded", pin=True)
        assert pool.invalidate("a")
        assert "a" not in pool
        pool.unpin("a")  # balanced release after invalidation is a no-op

    def test_invalidate_prefix(self):
        pool = ColumnPool(1000)
        pool.admit("decoded/x", 100, kind="decoded")
        pool.admit("tilemeta/x", 100, kind="meta")
        pool.admit("decoded/y", 100, kind="decoded")
        assert pool.invalidate_prefix("decoded/") == 2
        assert pool.resident_keys == ["tilemeta/x"]


class TestDecodeCostEstimate:
    def test_tile_codec_cost_positive_and_scales(self):
        device = GPUDevice()
        values = np.arange(200_000, dtype=np.int64)
        small = get_codec("gpu-for").encode(values[:20_000])
        large = get_codec("gpu-for").encode(values)
        assert estimate_decode_cost_ms(small, device) > 0
        assert estimate_decode_cost_ms(large, device) > estimate_decode_cost_ms(
            small, device
        )

    def test_non_encoded_payload_is_free(self):
        assert estimate_decode_cost_ms(None, GPUDevice()) == 0.0


class TestStorePlacement:
    """Satellite: loading past ``capacity_bytes`` must raise, not succeed."""

    @pytest.fixture(scope="class")
    def db(self):
        return generate(scale_factor=0.002, seed=7)

    def test_placement_charges_transfer_once(self, db):
        store = load_lineorder(db, "gpu-star")
        pool = ColumnPool(store.total_bytes + 1)
        device = GPUDevice()
        first = store.place_on_device(pool, device)
        again = store.place_on_device(pool, device)
        assert first > 0.0 and again == 0.0
        assert pool.resident_bytes == store.total_bytes

    def test_column_over_budget_raises(self, db):
        store = load_lineorder(db, "gpu-star")
        largest = max(c.nbytes for c in store.columns.values())
        pool = ColumnPool(largest - 1)
        with pytest.raises(PoolAdmissionError):
            store.place_on_device(pool, GPUDevice())

    def test_tiny_budget_evicts_to_fit(self, db):
        store = load_lineorder(db, "gpu-star")
        sizes = sorted(c.nbytes for c in store.columns.values())
        budget = sizes[-1] + sizes[-2]  # room for the two largest only
        pool = ColumnPool(budget, metrics=MetricsRegistry())
        store.place_on_device(pool, GPUDevice())
        snap = pool.metrics_snapshot()
        assert snap["pool_peak_resident_bytes"] <= budget
        assert snap["pool_evictions"] > 0


class TestDecodeArenaTrim:
    def test_trim_releases_largest_first(self):
        from repro.formats.base import DecodeArena

        arena = DecodeArena()
        arena.scratch("small", 100)           # 800 B
        arena.scratch("large", 10_000)        # 80 kB
        arena.scratch("mask", 10_000, dtype=np.bool_)  # 10 kB
        total = arena.resident_bytes
        assert total == 800 + 80_000 + 10_000
        released = arena.trim(12_000)
        # Largest-first: the 80 kB buffer goes, the rest fits.
        assert released == 80_000
        assert arena.resident_bytes == 10_800
        assert arena.trim(0) == 10_800
        assert arena.resident_bytes == 0

    def test_trim_zero_clears_everything(self):
        from repro.formats.base import DecodeArena

        arena = DecodeArena()
        buf = arena.scratch("col", 500)
        buf[:] = 7  # borrowed buffer stays valid after trim
        assert arena.trim(0) == 4000
        assert buf[0] == 7
        # The arena reallocates on next use instead of serving stale refs.
        fresh = arena.scratch("col", 500)
        assert fresh is not buf

    def test_dtype_mismatch_reallocates(self):
        from repro.formats.base import DecodeArena

        arena = DecodeArena()
        a = arena.scratch("k", 64)
        b = arena.scratch("k", 64, dtype=np.bool_)
        assert a.dtype == np.int64 and b.dtype == np.bool_


class TestReleaseHook:
    def test_eviction_fires_release(self):
        released = []
        pool = ColumnPool(1000)
        pool.admit(
            "scratch/arenas", 600, kind="scratch", payload=None,
            release=lambda: released.append(True),
        )
        pool.admit("decoded/a", 600, kind="decoded")
        assert "scratch/arenas" not in pool
        assert released == [True]

    def test_invalidate_does_not_fire_release(self):
        released = []
        pool = ColumnPool(1000)
        pool.admit("scratch/arenas", 600, kind="scratch",
                   release=lambda: released.append(True))
        pool.invalidate("scratch/arenas")
        assert released == []

    def test_release_errors_counted_not_raised(self):
        def boom():
            raise RuntimeError("release failed")

        pool = ColumnPool(1000, metrics=MetricsRegistry())
        pool.admit("scratch/arenas", 600, kind="scratch", release=boom)
        pool.admit("decoded/a", 600, kind="decoded")
        assert pool.metrics.counter("pool_release_errors") == 1
        assert "decoded/a" in pool


class TestStreamArenaAccounting:
    @pytest.fixture(scope="class")
    def db(self):
        return generate(scale_factor=0.002, seed=7)

    def test_streaming_scratch_accounted_and_evictable(self, db):
        from repro.engine.crystal import CrystalEngine
        from repro.engine.ssb_queries import QUERIES

        store = load_lineorder(db, "gpu-star")
        pool = ColumnPool(64 * 1024 * 1024)
        engine = CrystalEngine(db, store, pool=pool)
        engine.run(QUERIES["q1.1"])
        resident = pool.lookup("scratch/stream-arenas")
        assert resident is not None
        assert resident.kind == "scratch" and resident.payload is None
        assert resident.nbytes == engine._stream_executor.peak_decoded_bytes > 0
        # Trimming through the engine releases the memory and drops the
        # accounting entry.
        released = engine.trim_stream_arenas(0)
        assert released > 0
        assert engine._stream_executor.peak_decoded_bytes == 0
        assert pool.lookup("scratch/stream-arenas") is None
        # The next streaming query re-grows and re-accounts.
        engine.run(QUERIES["q1.1"])
        assert pool.lookup("scratch/stream-arenas") is not None


class TestServerIdleTrim:
    @pytest.fixture(scope="class")
    def db(self):
        return generate(scale_factor=0.002, seed=7)

    def test_trim_idle_releases_after_burst(self, db):
        from repro.serving import QueryServer

        store = load_lineorder(db, "gpu-star")
        server = QueryServer(db, store)
        results = server.serve([__import__("repro.serving.scheduler",
                                           fromlist=["ServeRequest"])
                                .ServeRequest("query", "q1.1")])
        assert results[0].ok
        held = server.engine._stream_executor.peak_decoded_bytes
        assert held > 0
        released = server.trim_idle()
        assert released == held
        assert server.metrics.counter("arena_trim_releases") == 1
        assert server.metrics.counter("arena_trimmed_bytes") == held

    def test_scheduler_thread_trims_when_idle(self, db):
        import time as _time

        from repro.serving import QueryServer

        store = load_lineorder(db, "gpu-star")
        server = QueryServer(db, store)
        server.start()
        try:
            from repro.serving.scheduler import ServeRequest

            fut = server.submit(ServeRequest("query", "q1.1"))
            assert fut.result(timeout=60).ok
            deadline = _time.monotonic() + 5.0
            while _time.monotonic() < deadline:
                if server.metrics.counter("arena_trim_releases") >= 1:
                    break
                _time.sleep(0.02)
            assert server.metrics.counter("arena_trim_releases") >= 1
            assert server.engine._stream_executor.peak_decoded_bytes == 0
        finally:
            server.stop()

    def test_idle_trim_can_be_disabled(self, db):
        import time as _time

        from repro.serving import QueryServer
        from repro.serving.scheduler import ServeRequest

        store = load_lineorder(db, "gpu-star")
        server = QueryServer(db, store,
                             trim_arenas_when_idle=False)
        server.start()
        try:
            fut = server.submit(ServeRequest("query", "q1.1"))
            assert fut.result(timeout=60).ok
            _time.sleep(0.3)
            assert server.metrics.counter("arena_trim_releases") == 0
            assert server.engine._stream_executor.peak_decoded_bytes > 0
        finally:
            server.stop()


class TestMetricsRing:
    def test_series_bounded_in_order(self):
        reg = MetricsRegistry(max_series_len=100)
        for i in range(250):
            reg.observe("lat", float(i))
        got = reg.series("lat")
        assert got == [float(i) for i in range(150, 250)]
        snap = reg.snapshot()
        assert snap["lat_count"] == 100
        assert snap["lat_max"] == 249.0

    def test_partial_ring_in_order(self):
        reg = MetricsRegistry(max_series_len=100)
        for i in range(7):
            reg.observe("lat", float(i))
        assert reg.series("lat") == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert reg.series_percentile("lat", 50.0) == 3.0

    def test_info_labels_in_snapshot(self):
        reg = MetricsRegistry()
        reg.set_info("kernel_backend", "shift-table")
        assert reg.info_value("kernel_backend") == "shift-table"
        snap = reg.snapshot()
        assert snap["kernel_backend"] == "shift-table"
        from repro.serving import metrics_rows

        rows = metrics_rows(snap)
        assert {"metric": "kernel_backend", "value": "shift-table"} in rows

    def test_scrapes_do_not_stall_observers(self):
        # Regression: series() used to box the full bounded series
        # (100k floats) into a Python list under the registry lock,
        # stalling every concurrent observe().  Now the lock covers only
        # an array copy.  This is a functional smoke with a generous
        # bound, not a microbenchmark: many full-series scrapes must not
        # starve a writer thread.
        import threading
        import time as _time

        reg = MetricsRegistry(max_series_len=100_000)
        for i in range(100_000):
            reg.observe("lat", float(i % 97))
        observed = []
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                t0 = _time.perf_counter()
                reg.observe("lat", 1.0)
                observed.append(_time.perf_counter() - t0)

        t = threading.Thread(target=writer)
        t.start()
        try:
            for _ in range(50):
                assert len(reg.series("lat")) == 100_000
        finally:
            stop.set()
            t.join()
        assert observed, "writer made no progress during scrapes"
        # Generous bound: no single observe may stall for the time a
        # full-series Python-list copy under the lock used to take.
        assert max(observed) < 0.25
