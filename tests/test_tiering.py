"""Workload-adaptive codec tiering: decayed heat counters, the
cross-codec swap matrix, and atomic hot-swap under live traffic."""

import os
import threading

import numpy as np
import pytest

from repro.core.updates import UpdatableColumn
from repro.formats.registry import get_codec
from repro.gpusim import GPUDevice
from repro.serving import (
    CodecTieringManager,
    QueryServer,
    ServeRequest,
    TieringPolicy,
)
from repro.serving.metrics import MetricsRegistry
from repro.serving.tiering import HOT_CODECS, TIERS
from repro.ssb.dbgen import generate
from repro.ssb.loader import load_lineorder


@pytest.fixture(scope="module")
def db():
    return generate(scale_factor=0.002, seed=7)


def fresh_manager(db, store, policy=None, metrics=None):
    """A manager wired to nothing but the store (no engine pools)."""
    return CodecTieringManager(
        store,
        engines=(),
        device=GPUDevice(),
        metrics=metrics,
        policy=policy if policy is not None else TieringPolicy(),
    )


class TestDecayedCounters:
    """The MetricsRegistry EWMA counters the heat scoring rides on."""

    def test_touch_accumulates_and_decays(self):
        reg = MetricsRegistry()
        reg.touch("heat", 4.0, at=0.0, half_life=10.0)
        assert reg.decayed_value("heat", now=0.0, half_life=10.0) == 4.0
        # One half-life later, half the heat is gone...
        assert reg.decayed_value("heat", now=10.0, half_life=10.0) == pytest.approx(2.0)
        # ...and a new touch decays the old value before adding.
        got = reg.touch("heat", 1.0, at=10.0, half_life=10.0)
        assert got == pytest.approx(3.0)

    def test_labels_keep_columns_separate(self):
        reg = MetricsRegistry()
        reg.touch("heat", 2.0, at=0.0, half_life=5.0, labels={"column": "a"})
        reg.touch("heat", 7.0, at=0.0, half_life=5.0, labels={"column": "b"})
        assert reg.decayed_value(
            "heat", now=0.0, half_life=5.0, labels={"column": "a"}
        ) == 2.0
        assert reg.decayed_value(
            "heat", now=0.0, half_life=5.0, labels={"column": "b"}
        ) == 7.0

    def test_time_never_runs_backwards(self):
        reg = MetricsRegistry()
        reg.touch("heat", 1.0, at=100.0, half_life=10.0)
        # An out-of-order touch is clamped to the last-seen timestamp
        # instead of "undecaying" the counter.
        reg.touch("heat", 1.0, at=50.0, half_life=10.0)
        assert reg.decayed_value("heat", now=100.0, half_life=10.0) == 2.0

    def test_half_life_must_be_positive(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.touch("heat", 1.0, at=0.0, half_life=0.0)

    def test_snapshot_scrapes_do_not_stall_touchers(self):
        # Copy-on-scrape: decayed_snapshot copies the dict items under
        # the lock and does the pow() projection outside it, so frequent
        # scrapes never starve concurrent touch() writers.
        reg = MetricsRegistry()
        for i in range(2000):
            reg.touch(f"heat{i}", 1.0, at=0.0, half_life=10.0)
        progressed = []
        stop = threading.Event()

        def writer():
            t = 0.0
            while not stop.is_set():
                t += 1.0
                reg.touch("heat0", 1.0, at=t, half_life=10.0)
                progressed.append(t)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                snap = reg.decayed_snapshot(now=1e9, half_life=10.0)
                assert len(snap) == 2000
        finally:
            stop.set()
            thread.join()
        assert progressed, "writer made no progress during scrapes"


class TestSwapMatrix:
    """Every GPU tile codec, re-encoded into every tier and back,
    bit-identical at each hop."""

    @pytest.mark.parametrize("codec_name", HOT_CODECS)
    @pytest.mark.parametrize("target", TIERS)
    def test_codec_to_tier_and_back(self, db, tmp_path, codec_name, target):
        store = load_lineorder(db, "gpu-star")
        name = "lo_quantity"
        col = store[name]
        reference = np.asarray(col.values).copy()
        # Seed the column under this specific codec.
        enc = get_codec(codec_name).encode(col.values)
        store.swap_column(
            name,
            type(col)(
                name=name, system=col.system, values=col.values,
                payload=enc, nbytes=enc.nbytes, codec_name=codec_name,
            ),
        )
        manager = fresh_manager(
            db, store, TieringPolicy(spill_dir=str(tmp_path))
        )
        manager._move(name, target, now=0.0)
        moved = store[name]
        assert moved.tier == target
        if target == "hot":
            assert moved.codec_name in HOT_CODECS
            decoded = get_codec(moved.codec_name).decode(moved.payload)
        elif target == "cold":
            assert moved.codec_name == ""
            assert moved.payload is None and moved.spill_path is not None
            assert os.path.exists(moved.spill_path)
            from repro.core.nvcomp import decode_nvcomp

            decoded = decode_nvcomp(store.ensure_payload(name))
        else:
            decoded = get_codec(moved.codec_name).decode(moved.payload)
        assert np.array_equal(np.asarray(decoded, dtype=np.int64), reference)
        # ...and back to warm: the planner's static choice again.
        manager._move(name, "warm", now=1.0)
        back = store[name]
        assert back.tier == "warm" if target != "warm" else True
        assert np.array_equal(
            get_codec(back.codec_name).decode(back.payload), reference
        ) or target == "warm"

    def test_epochs_bump_on_every_swap(self, db):
        store = load_lineorder(db, "gpu-star")
        manager = fresh_manager(db, store)
        e0 = store["lo_tax"].epoch
        manager._move("lo_tax", "hot", now=0.0)
        assert store["lo_tax"].epoch == e0 + 1
        manager._move("lo_tax", "cold", now=1.0)
        assert store["lo_tax"].epoch == e0 + 2

    def test_budget_blocks_hot_promotion(self, db):
        store = load_lineorder(db, "gpu-star")
        metrics = MetricsRegistry()
        manager = CodecTieringManager(
            store,
            engines=(),
            device=GPUDevice(),
            metrics=metrics,
            policy=TieringPolicy(bytes_budget_factor=1.0),
        )
        # Shrink the recorded baseline so no hot encoding can fit: the
        # guard must skip the move whole, never publish a partial.
        manager.baseline_bytes = store["lo_orderkey"].nbytes
        before = store["lo_orderkey"]
        moved = manager._move("lo_orderkey", "hot", now=0.0)
        assert moved == 0
        assert store["lo_orderkey"] is before
        assert metrics.counter("tiering_budget_skips") == 1


class TestRunOnce:
    def test_heat_ranking_assigns_all_three_tiers(self, db):
        store = load_lineorder(db, "gpu-star")
        metrics = MetricsRegistry()
        manager = CodecTieringManager(
            store,
            engines=(),
            device=GPUDevice(),
            metrics=metrics,
            policy=TieringPolicy(
                hot_count=1, hot_min_accesses=4.0, cold_max_accesses=0.5,
                half_life_ms=1e6, maintenance_interval_ms=0.0,
            ),
        )
        manager.record_access(("lo_revenue",), amount=10.0, at=0.0)
        manager.record_access(("lo_quantity",), amount=2.0, at=0.0)
        swaps = manager.run_once(now=0.0)
        assert swaps > 0
        tiers = manager.tiers()
        assert tiers["lo_revenue"] == "hot"
        assert tiers["lo_quantity"] == "warm"
        # Untouched columns all fell to the entropy tier.
        assert tiers["lo_tax"] == "cold"
        assert metrics.gauge_value("tiering_hot_columns") == 1
        assert metrics.counter("tiering_swaps") == swaps

    def test_maybe_run_respects_interval(self, db):
        store = load_lineorder(db, "gpu-star")
        manager = fresh_manager(
            db, store, TieringPolicy(maintenance_interval_ms=10.0)
        )
        assert manager.maybe_run(now=0.0) >= 0  # first pass runs
        ran_again = manager.maybe_run(now=5.0)
        assert ran_again == 0  # inside the interval: skipped

    def test_min_dwell_hysteresis(self, db):
        store = load_lineorder(db, "gpu-star")
        manager = fresh_manager(db, store, TieringPolicy(min_dwell_ms=100.0))
        assert manager._move("lo_tax", "cold", now=0.0) == 1
        # Immediately reversing direction is suppressed by the dwell.
        assert manager._move("lo_tax", "warm", now=1.0) == 0
        assert manager._move("lo_tax", "warm", now=200.0) == 1


class TestFlushRacesSwap:
    def test_flush_wins_the_epoch_cas(self, db):
        """A flush that lands between the manager's snapshot and its
        publish makes the re-encode's compare-and-swap fail: the flushed
        (newer) image survives, the stale re-encode is dropped."""
        store = load_lineorder(db, "gpu-star")
        metrics = MetricsRegistry()
        manager = CodecTieringManager(
            store, engines=(), device=GPUDevice(), metrics=metrics
        )
        name = "lo_quantity"
        updatable = UpdatableColumn(store[name].values)
        updatable.update(0, 99)
        device = GPUDevice()
        original_build = manager._build

        def build_with_racing_flush(col, target):
            new = original_build(col, target)
            # The flush publishes while the re-encode is still in
            # flight: epoch bumps past the manager's snapshot.
            updatable.flush(device)
            flushed = store[name]
            store.swap_column(
                name,
                type(flushed)(
                    name=name, system=flushed.system,
                    values=updatable.values.copy(),
                    payload=updatable.encoded,
                    nbytes=updatable.encoded.nbytes,
                    codec_name=updatable.codec_name,
                ),
            )
            return new

        manager._build = build_with_racing_flush
        assert manager._move(name, "cold", now=0.0) == 0
        assert metrics.counter("tiering_swap_races") == 1
        assert metrics.counter("tiering_swaps") == 0
        final = store[name]
        assert final.tier == "warm"  # the flush's image, not the demotion
        assert final.values[0] == 99


SWAP_COLUMNS = ("lo_quantity", "lo_discount", "lo_extendedprice")


class TestSwapUnderLiveTraffic:
    """Background swaps racing streaming queries and lookups must never
    surface a torn or stale read, at 1 shard and at 4."""

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_bit_identical_under_concurrent_swaps(self, db, tmp_path, num_shards):
        store = load_lineorder(db, "gpu-star")
        expected_lookup = {
            name: np.asarray(store[name].values).copy() for name in SWAP_COLUMNS
        }
        server = QueryServer(
            db,
            store,
            budget_bytes=256_000_000,
            num_shards=num_shards,
            tiering=TieringPolicy(
                spill_dir=str(tmp_path), maintenance_interval_ms=0.0
            ),
        )
        server.start()
        # Reference answers before any swap.
        expected_q = server.query("q1.1", block_s=10.0).result(60).groups

        errors: list = []
        stop = threading.Event()

        def client(seed):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                if rng.random() < 0.5:
                    result = server.query("q1.1", block_s=10.0).result(60)
                    if not result.ok or result.groups != expected_q:
                        errors.append(("q1.1", result.status))
                        return
                else:
                    name = SWAP_COLUMNS[int(rng.integers(len(SWAP_COLUMNS)))]
                    idx = rng.integers(0, db.num_lineorder_rows, size=64)
                    result = server.lookup(name, idx, block_s=10.0).result(60)
                    if not result.ok or not np.array_equal(
                        result.values, expected_lookup[name][idx]
                    ):
                        errors.append((name, result.status))
                        return

        threads = [threading.Thread(target=client, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        try:
            # Churn every swap column through the full tier cycle while
            # the clients hammer the server.
            for cycle_tier in ("hot", "cold", "warm", "hot", "warm"):
                for name in SWAP_COLUMNS:
                    server.tiering._move(name, cycle_tier, now=float(len(errors)))
        finally:
            stop.set()
            for t in threads:
                t.join()
        server.stop()
        assert not errors, errors[:3]
        snap = server.metrics_snapshot()
        assert snap.get("tiering_swaps", 0) > 0

    def test_scheduler_drives_heat_and_pins_hot(self, db):
        """End-to-end through the scheduler: repeated lookups make a
        column hot and its decoded image lands pinned in the pool."""
        store = load_lineorder(db, "gpu-star")
        server = QueryServer(
            db,
            store,
            budget_bytes=256_000_000,
            tiering=TieringPolicy(
                hot_count=1, hot_min_accesses=3.0, cold_max_accesses=0.0,
                half_life_ms=1e6, maintenance_interval_ms=0.0,
            ),
        )
        rng = np.random.default_rng(5)
        idx = rng.integers(0, db.num_lineorder_rows, size=128)
        reference = np.asarray(store["lo_revenue"].values)[idx]
        for _ in range(6):
            results = server.serve(
                [ServeRequest("lookup", "lo_revenue", indices=idx)]
            )
            assert results[0].ok
            assert np.array_equal(results[0].values, reference)
        assert server.tiering.heat("lo_revenue") >= 3.0
        server.tiering.run_once()
        assert store["lo_revenue"].tier == "hot"
        assert server.engine.pinned_decoded("lo_revenue") is not None
        # Served from the pinned image, still bit-identical.
        results = server.serve(
            [ServeRequest("lookup", "lo_revenue", indices=idx)]
        )
        assert np.array_equal(results[0].values, reference)
        server.stop()
