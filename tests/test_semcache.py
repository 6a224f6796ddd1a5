"""Semantic result cache: exact/donor reuse, invalidation, serving.

The contract under test is *bit-identity*: a semcache-backed engine must
return exactly the answer a cold engine computes, whatever mix of cached
and fresh partials produced it — across codecs, worker counts, budget
pressure, and concurrent flushes.  Reuse is an optimization the stats
expose; staleness is a correctness bug these tests hunt directly.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.updates import UpdatableColumn
from repro.engine.crystal import CrystalEngine
from repro.engine.predicates import And, Equals, Range
from repro.engine.ssb_queries import QUERIES, make_flight1, make_scan
from repro.formats.registry import get_codec
from repro.gpusim import GPUDevice
from repro.serving.scheduler import QueryServer
from repro.serving.semcache import SemanticResultCache
from repro.ssb.dbgen import generate, sort_lineorder_by
from repro.ssb.loader import ColumnStore, StoredColumn, load_lineorder

GPU_CODECS = ("gpu-for", "gpu-dfor", "gpu-rfor", "gpu-bp", "gpu-simdbp128")

# The dashboard drill-down mix: a year, its repeat, a month inside it, a
# week inside that, plus a cross-dimension widening that must NOT reuse.
YEAR = And((
    Range("lo_orderdate", 19930101, 19931231),
    Range("lo_discount", 1, 3),
    Range("lo_quantity", 0, 24),
))
MONTH = And((
    Range("lo_orderdate", 19930601, 19930630),
    Range("lo_discount", 1, 3),
    Range("lo_quantity", 0, 24),
))
# Wide enough that, date-sorted at SF 0.01 (~23 rows/day, 512-row
# tiles), whole tiles sit provably inside the window for donor transfer.
QUARTER = And((
    Range("lo_orderdate", 19930401, 19930630),
    Range("lo_discount", 1, 3),
    Range("lo_quantity", 0, 24),
))
WEEK = And((
    Range("lo_orderdate", 19930607, 19930613),
    Range("lo_discount", 1, 3),
    Range("lo_quantity", 0, 24),
))
WIDE_QTY = And((
    Range("lo_orderdate", 19930101, 19931231),
    Range("lo_discount", 1, 3),
))
DRILLDOWN = ("year", YEAR), ("year", YEAR), ("month", MONTH), ("week", WEEK), ("wide", WIDE_QTY)


@pytest.fixture(scope="module")
def sorted_db():
    """Date-clustered lineorder: zone maps can prove drill-down reuse."""
    return sort_lineorder_by(generate(scale_factor=0.01, seed=7), "lo_orderdate")


@pytest.fixture(scope="module")
def sorted_store(sorted_db):
    return load_lineorder(sorted_db, "gpu-star")


def _encoded_store(db, codec_name: str) -> ColumnStore:
    stored = {}
    for name in ("lo_orderdate", "lo_discount", "lo_quantity", "lo_extendedprice"):
        values = db.lineorder[name]
        enc = get_codec(codec_name).encode(values)
        stored[name] = StoredColumn(
            name, "gpu-star", values, enc, enc.nbytes, codec_name=codec_name
        )
    return ColumnStore(system="gpu-star", columns=stored)


def _cached_engine(db, store, morsel_tiles=None, budget=None):
    engine = CrystalEngine(db, store, morsel_tiles=morsel_tiles)
    engine.semcache = (
        SemanticResultCache() if budget is None else SemanticResultCache(budget)
    )
    return engine


class TestSemanticKey:
    def test_equivalent_spellings_share_key(self):
        a = make_scan("a", And((Range("lo_orderdate", 19930101, 19931231),
                                Range("lo_discount", 1, 3))))
        b = make_scan("b", And((Range("lo_discount", 1, 3),
                                And((Range("lo_orderdate", 19930101, 19931231),)))))
        assert a.semantic_key() == b.semantic_key()

    def test_point_range_equals_equals(self):
        a = make_scan("a", And((Range("lo_discount", 3, 3),)))
        b = make_scan("b", And((Equals("lo_discount", 3),)))
        assert a.semantic_key() == b.semantic_key()

    def test_different_filters_differ(self):
        a = make_scan("a", And((Range("lo_discount", 1, 3),)))
        b = make_scan("b", And((Range("lo_discount", 1, 4),)))
        assert a.semantic_key() != b.semantic_key()

    def test_registry_queries_have_keys(self):
        keys = {name: QUERIES[name].semantic_key() for name in QUERIES}
        assert len(set(keys.values())) == len(keys)  # all distinct
        # The flight-1 registry entries are plain predicate scans now, so
        # an identically-filtered ad-hoc scan coalesces with them.
        adhoc = make_flight1("q1.1-copy", 19930101, 19931231, 1, 3, 0, 24)
        assert adhoc.semantic_key() == QUERIES["q1.1"].semantic_key()

    def test_scan_rejects_unfilterable_column(self):
        with pytest.raises(ValueError, match="lo_revenue"):
            make_scan("bad", And((Range("lo_revenue", 0, 1),)))


# ---------------------------------------------------------------------------
# Bit-identity: warm answers equal cold answers, everywhere
# ---------------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("codec_name", GPU_CODECS)
    def test_drilldown_matches_cold_every_codec(self, sorted_db, codec_name):
        store = _encoded_store(sorted_db, codec_name)
        warm = _cached_engine(sorted_db, store, morsel_tiles=1)
        for i, (label, pred) in enumerate(DRILLDOWN):
            q = make_scan(f"scan-{label}", pred)
            got = warm.run(q).groups
            cold = CrystalEngine(sorted_db, store).run(q).groups
            assert got == cold, (codec_name, label, i)

    @pytest.mark.parametrize("workers", (1, 4))
    def test_drilldown_matches_cold_every_worker_count(
        self, sorted_db, sorted_store, workers
    ):
        # ``stream_workers`` is deprecated and ignored; answers must not
        # depend on it.
        warm = CrystalEngine(
            sorted_db, sorted_store, stream_workers=workers,
            morsel_tiles=1,
        )
        warm.semcache = SemanticResultCache()
        for label, pred in DRILLDOWN:
            q = make_scan(f"scan-{label}", pred)
            got = warm.run(q).groups
            cold = CrystalEngine(
                sorted_db, sorted_store, stream_workers=workers
            ).run(q).groups
            assert got == cold, (workers, label)

    def test_registry_flight1_through_cache(self, sorted_db, sorted_store):
        warm = _cached_engine(sorted_db, sorted_store)
        for name in ("q1.1", "q1.2", "q1.3", "q1.1"):
            got = warm.run(QUERIES[name]).groups
            cold = CrystalEngine(sorted_db, sorted_store)
            assert got == cold.run(QUERIES[name]).groups, name
        assert warm.semcache.stats()["semcache_hits"] >= 1


class TestExactReuse:
    def test_repeat_is_a_full_hit(self, sorted_db, sorted_store):
        engine = _cached_engine(sorted_db, sorted_store)
        q = make_scan("scan-year", YEAR)
        first = engine.run(q).groups
        second = engine.run(q).groups
        assert first == second
        stats = engine.semcache.stats()
        assert stats["semcache_hits"] == 1
        assert stats["semcache_misses"] == 1
        # The warm run executed zero fresh morsels.
        assert engine.last_stream_stats["cached_morsels"] == engine.last_stream_stats["morsels"]

    def test_spelling_variant_hits_same_entry(self, sorted_db, sorted_store):
        engine = _cached_engine(sorted_db, sorted_store)
        engine.run(make_scan("a", YEAR))
        variant = And(tuple(reversed(YEAR.predicates)))
        engine.run(make_scan("b", variant))
        stats = engine.semcache.stats()
        assert stats["semcache_hits"] == 1
        assert stats["semcache_entries"] == 1


class TestDonorReuse:
    def test_quarter_drilldown_reuses_year_partials(self, sorted_db, sorted_store):
        engine = _cached_engine(sorted_db, sorted_store, morsel_tiles=1)
        engine.run(make_scan("scan-year", YEAR))
        got = engine.run(make_scan("scan-quarter", QUARTER)).groups
        cold = CrystalEngine(sorted_db, sorted_store)
        assert got == cold.run(make_scan("scan-quarter", QUARTER)).groups
        stats = engine.semcache.stats()
        assert stats["semcache_donated_partials"] >= 1
        assert stats.get("semcache_partial_hits", 0) + stats.get("semcache_hits", 0) >= 1

    def test_widening_refuses_donation(self, sorted_db, sorted_store):
        # Dropping the quantity conjunct widens the row set: the year
        # partials exclude qty>24 rows the wide query needs, so zone maps
        # must refuse the transfer (quantity is unclustered — no tile is
        # all-inside qty<=24).
        engine = _cached_engine(sorted_db, sorted_store, morsel_tiles=1)
        engine.run(make_scan("scan-year", YEAR))
        got = engine.run(make_scan("scan-wide", WIDE_QTY)).groups
        cold = CrystalEngine(sorted_db, sorted_store)
        assert got == cold.run(make_scan("scan-wide", WIDE_QTY)).groups
        assert "semcache_donated_partials" not in engine.semcache.stats()

    def test_unsorted_data_cannot_prove_reuse(self, ssb_db):
        # Same drill-down on unclustered dates: every tile spans the full
        # date domain, so nothing is provable and nothing transfers —
        # but the answer is still exact.
        store = load_lineorder(ssb_db, "gpu-star")
        engine = _cached_engine(ssb_db, store, morsel_tiles=1)
        engine.run(make_scan("scan-year", YEAR))
        got = engine.run(make_scan("scan-quarter", QUARTER)).groups
        cold = CrystalEngine(ssb_db, store)
        assert got == cold.run(make_scan("scan-quarter", QUARTER)).groups
        assert "semcache_donated_partials" not in engine.semcache.stats()

    def test_promoted_spans_hit_without_donor_scan(self, sorted_db, sorted_store):
        engine = _cached_engine(sorted_db, sorted_store, morsel_tiles=1)
        engine.run(make_scan("scan-year", YEAR))
        engine.run(make_scan("scan-quarter", QUARTER))
        donated = engine.semcache.stats()["semcache_donated_partials"]
        # The repeat finds the donated spans under its own signature.
        engine.run(make_scan("scan-quarter", QUARTER))
        stats = engine.semcache.stats()
        assert stats["semcache_donated_partials"] == donated
        assert stats["semcache_hits"] >= 1


# ---------------------------------------------------------------------------
# Invalidation: flushes can never leave a stale partial servable
# ---------------------------------------------------------------------------


def _matching_row(db) -> int:
    d = db.lineorder
    mask = (
        (d["lo_orderdate"] >= 19930101) & (d["lo_orderdate"] <= 19931231)
        & (d["lo_discount"] >= 1) & (d["lo_discount"] <= 3)
        & (d["lo_quantity"] <= 24)
    )
    rows = np.flatnonzero(mask)
    assert rows.size, "workload fixture must select at least one row"
    return int(rows[0])


class TestInvalidation:
    def test_flush_drops_partials_and_serves_fresh(self, sorted_db):
        store = load_lineorder(sorted_db, "gpu-star")
        engine = _cached_engine(sorted_db, store)
        device = GPUDevice()
        ucol = UpdatableColumn(sorted_db.lineorder["lo_extendedprice"])
        engine.bind_updatable("lo_extendedprice", ucol)
        q = make_scan("scan-year", YEAR)
        before = engine.run(q).groups

        row = _matching_row(sorted_db)
        ucol.update(row, ucol.read(row) + 10_000_000)
        ucol.flush(device)

        after = engine.run(q).groups
        assert after != before  # the update is visible
        cold = CrystalEngine(sorted_db, store)
        assert after == cold.run(q).groups  # and exactly right
        stats = engine.semcache.stats()
        assert stats["semcache_invalidations"] >= 1
        assert stats["semcache_invalidated_partials"] >= 1

    def test_epoch_bumps_only_dependent_entries(self, sorted_db, sorted_store):
        engine = _cached_engine(sorted_db, sorted_store)
        engine.run(make_scan("scan-year", YEAR))
        dropped = engine.semcache.invalidate_column("lo_revenue")
        assert dropped == 0  # scans do not read lo_revenue
        assert engine.semcache.stats()["semcache_entries"] == 1
        dropped = engine.semcache.invalidate_column("lo_quantity")
        assert dropped == 1
        assert engine.semcache.stats()["semcache_entries"] == 0

    def test_flush_storm_never_serves_stale(self, sorted_db):
        """Concurrent queries racing flushes: every answer matches some
        consistent epoch, and post-storm answers match the final bytes."""
        store = load_lineorder(sorted_db, "gpu-star")
        server = QueryServer(
            sorted_db, store, semantic_cache=True,
        )
        device = GPUDevice()
        ucol = UpdatableColumn(sorted_db.lineorder["lo_extendedprice"])
        server.engine.bind_updatable("lo_extendedprice", ucol)
        q = make_scan("scan-year", YEAR)
        row = _matching_row(sorted_db)

        def reference() -> dict[int, int]:
            return CrystalEngine(sorted_db, store).run(q).groups

        # Epoch 0 reference, then flush between query waves, snapshotting
        # a reference under the engine lock after each flush (the lock
        # orders the flush against in-flight executions, exactly as a
        # maintenance path must).
        references = [reference()]
        server.start()
        results: list[dict[int, int]] = []
        errors: list[Exception] = []

        def client(n: int) -> None:
            try:
                for _ in range(n):
                    res = server.query(q).result(timeout=60)
                    assert res.ok, res.error
                    results.append(res.groups)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(4,)) for _ in range(3)]
        for t in threads:
            t.start()
        for bump in (1, 2, 3):
            with server._engine_lock:
                ucol.update(row, ucol.read(row) + 10_000_000 * bump)
                ucol.flush(device)
                references.append(reference())
        for t in threads:
            t.join()
        final = server.query(q).result(timeout=60)
        server.stop()
        assert not errors, errors
        # Zero stale reads: every served answer is one of the epoch
        # references — a stale partial merged with fresh data would be a
        # mixture matching none of them.
        distinct = {tuple(sorted(r.items())) for r in references}
        assert len(distinct) == len(references)  # each flush changed the answer
        for groups in results:
            assert tuple(sorted(groups.items())) in distinct
        assert final.ok and final.groups == references[-1]


# ---------------------------------------------------------------------------
# Budget pressure
# ---------------------------------------------------------------------------


class TestBudget:
    def test_resident_bytes_bounded(self, sorted_db, sorted_store):
        budget = 400
        engine = _cached_engine(sorted_db, sorted_store, budget=budget)
        for label, pred in DRILLDOWN:
            engine.run(make_scan(f"scan-{label}", pred))
        stats = engine.semcache.stats()
        assert 0 < stats["semcache_resident_bytes"] <= budget

    def test_budget_too_small_for_any_partial(self, sorted_db, sorted_store):
        engine = _cached_engine(sorted_db, sorted_store, budget=64)
        q = make_scan("scan-year", YEAR)
        first = engine.run(q).groups
        second = engine.run(q).groups  # nothing cached: full re-execution
        assert first == second
        stats = engine.semcache.stats()
        assert stats["semcache_install_rejections"] >= 1
        assert stats["semcache_resident_bytes"] == 0
        assert stats["semcache_misses"] == 2

    def test_eviction_keeps_answers_exact(self, sorted_db, sorted_store):
        engine = _cached_engine(sorted_db, sorted_store, budget=400)
        for _round in range(2):
            for label, pred in DRILLDOWN:
                q = make_scan(f"scan-{label}", pred)
                got = engine.run(q).groups
                cold = CrystalEngine(sorted_db, sorted_store)
                assert got == cold.run(q).groups, label


# ---------------------------------------------------------------------------
# Server integration: coalescing and configuration
# ---------------------------------------------------------------------------


class TestServerIntegration:
    def test_equivalent_spellings_coalesce(self, sorted_db, sorted_store):
        # Two ad-hoc requests with the same rows under different
        # spellings land in one drain window and execute once.
        server = QueryServer(
            sorted_db, sorted_store, semantic_cache=True
        )
        a = make_scan("spelling-a", YEAR)
        b = make_scan("spelling-b", And(tuple(reversed(YEAR.predicates))))
        fa, fb = server.query(a), server.query(b)
        server.drain()
        ra, rb = fa.result(), fb.result()
        assert ra.ok and rb.ok
        assert ra.batch_size == rb.batch_size == 2
        assert ra.groups == rb.groups
        assert server.metrics.snapshot()["server_batched_requests"] >= 1

    def test_warm_queries_hit_through_server(self, sorted_db, sorted_store):
        server = QueryServer(
            sorted_db, sorted_store, semantic_cache=True
        )
        q = make_scan("scan-year", YEAR)
        server.query(q)
        server.drain()
        f = server.query(q)
        server.drain()
        assert f.result().ok
        snap = server.metrics_snapshot()
        assert snap["semcache_hits"] == 1
        assert snap["semcache_queries"] == 2

    def test_server_without_cache_has_no_semcache(self, sorted_db, sorted_store):
        server = QueryServer(sorted_db, sorted_store)
        assert server.semcache is None
        assert server.engine.semcache is None
