"""Morsel-streaming execution: out-buffer decode, bit-identity, threads.

Five layers of coverage:

* out-buffer decode contract — every tile codec's ``decode_tiles_into``
  must agree with its allocating twin across full ranges, non-contiguous
  subsets, partial last tiles and buffer reuse, and reject undersized or
  mistyped buffers;
* column-slice decode — ``decode_slice`` makes one codec call per slice,
  plain or fused, whatever pattern of tiles pushdown left active;
* streaming vs the numpy oracle — for every GPU-* codec and a
  cross-flight query matrix, the streaming executor must return the
  oracle's aggregates with one fused fact kernel, including unaligned
  morsel widths and plans whose pushdown prunes every tile;
* merge semantics — min/max partials merge like the staged engine's
  whole-table pass, avg is refused, lookups are built exactly once in
  the plan pass;
* concurrency — the engine's metadata caches, whole-table pipeline
  loads and the serving pool survive a multi-threaded access storm, and
  the ``QueryServer`` records streaming metrics.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from query_oracle import evaluate

from repro.engine.crystal import TILE, CrystalEngine, SSBQuery
from repro.engine.predicates import And, Range
from repro.engine.ssb_queries import QUERIES
from repro.engine.streaming import DEFAULT_MORSEL_TILES, Morsel, TileStreamExecutor
from repro.formats.base import DecodeArena, TileCodec
from repro.formats.registry import get_codec
from repro.query.ssb import SSB_SPECS, ssb_model
from repro.serving.pool import ColumnPool
from repro.ssb.loader import ColumnStore, StoredColumn, load_lineorder

GPU_CODECS = ("gpu-for", "gpu-dfor", "gpu-rfor", "gpu-bp", "gpu-simdbp128")
MATRIX_QUERIES = ("q1.1", "q1.3", "q2.1", "q3.1", "q4.1")


# ---------------------------------------------------------------------------
# Out-buffer decode contract
# ---------------------------------------------------------------------------


def _datasets(rng):
    return {
        "random": rng.integers(0, 10_000, 20_000),
        "sorted": np.sort(rng.integers(0, 100_000, 9000)),
        "runs": np.repeat(rng.integers(0, 50, 60), rng.integers(1, 300, 60)),
        "partial_tail": rng.integers(0, 1000, 2 * 4096 + 17),
        "one_tile": rng.integers(0, 1000, 100),
        "empty": np.zeros(0, dtype=np.int64),
    }


@pytest.mark.parametrize("codec_name", GPU_CODECS)
class TestDecodeTilesInto:
    def test_matches_allocating_decode(self, codec_name, rng):
        codec = get_codec(codec_name)
        assert isinstance(codec, TileCodec)
        for label, data in _datasets(rng).items():
            data = np.asarray(data, dtype=np.int64)
            enc = codec.encode(data)
            n_tiles = codec.num_tiles(enc)
            elems = codec.tile_elements(enc)
            out = np.full(max(1, n_tiles * elems), -1, dtype=np.int64)
            written = codec.decode_range_into(enc, 0, n_tiles, out)
            assert written == data.size, label
            assert np.array_equal(out[:written], data), label

    def test_non_contiguous_subset(self, codec_name, rng):
        codec = get_codec(codec_name)
        data = rng.integers(0, 10_000, 3 * 4096 + 77).astype(np.int64)
        enc = codec.encode(data)
        n_tiles = codec.num_tiles(enc)
        elems = codec.tile_elements(enc)
        # Every other tile, always including the partial last tile.
        tiles = np.unique(np.r_[np.arange(0, n_tiles, 2), n_tiles - 1])
        out = np.empty(tiles.size * elems, dtype=np.int64)
        written = codec.decode_tiles_into(enc, tiles, out)
        expect = codec.decode_tiles(enc, tiles).astype(np.int64)
        assert written == expect.size
        assert np.array_equal(out[:written], expect)

    def test_empty_tile_list(self, codec_name, rng):
        codec = get_codec(codec_name)
        enc = codec.encode(rng.integers(0, 100, 5000).astype(np.int64))
        out = np.empty(1, dtype=np.int64)
        assert codec.decode_tiles_into(enc, np.zeros(0, dtype=np.int64), out) == 0

    def test_buffer_reuse_across_calls(self, codec_name, rng):
        codec = get_codec(codec_name)
        data = rng.integers(0, 10_000, 2 * 4096 + 100).astype(np.int64)
        enc = codec.encode(data)
        n_tiles = codec.num_tiles(enc)
        elems = codec.tile_elements(enc)
        arena = DecodeArena()
        for tiles in (
            np.arange(n_tiles),
            np.array([n_tiles - 1]),
            np.arange(min(2, n_tiles)),
        ):
            buf = arena.scratch("col", tiles.size * elems)
            written = codec.decode_tiles_into(enc, tiles, buf)
            expect = codec.decode_tiles(enc, tiles).astype(np.int64)
            assert np.array_equal(buf[:written], expect)
        # Grow-only: one buffer per key, sized for the largest request.
        assert arena.resident_bytes == n_tiles * elems * 8

    def test_rejects_bad_buffers(self, codec_name, rng):
        codec = get_codec(codec_name)
        enc = codec.encode(rng.integers(0, 100, 5000).astype(np.int64))
        elems = codec.tile_elements(enc)
        tiles = np.array([0])
        with pytest.raises(ValueError):
            codec.decode_tiles_into(enc, tiles, np.empty(elems - 1, dtype=np.int64))
        with pytest.raises(ValueError):
            codec.decode_tiles_into(enc, tiles, np.empty(elems, dtype=np.float64))
        with pytest.raises(ValueError):
            codec.decode_tiles_into(
                enc, tiles, np.empty(2 * elems, dtype=np.int64)[::2]
            )


# ---------------------------------------------------------------------------
# Column-slice decode under fragmented tile activity
# ---------------------------------------------------------------------------

#: Morsel for the slice tests: the fact table's last 40 engine tiles, so
#: the slice ends on the column's partial final tile of every codec and
#: (40 not being a multiple of 8) starts inside a GPU-SIMDBP128 tile.
SLICE_TILES = 40


def _slice_patterns(n: int) -> dict[str, np.ndarray]:
    """Engine-tile activity patterns over a morsel of ``n`` tiles."""
    def runs(*spans):
        active = np.zeros(n, dtype=bool)
        for lo, hi in spans:
            active[lo:hi] = True
        return active

    # Each pattern follows one that decoded rows it must zero again.
    return {
        "all": np.ones(n, dtype=bool),
        "one-run": runs((9, 21)),
        "none": np.zeros(n, dtype=bool),
        "run-to-final-tile": runs((n - 6, n)),
        "several-runs": runs((0, 2), (11, 13), (26, 30)),
        "runs-to-final-tile": runs((3, 5), (n - 6, n)),
    }


def _count_top_level_decodes(monkeypatch, codec) -> list[str]:
    """Record each outermost decode_tiles_into / decode_filter_tiles_into
    call on ``codec`` (a fused base implementation calling the plain one
    counts once)."""
    calls: list[str] = []
    depth = [0]
    cls = type(codec)
    for attr in ("decode_tiles_into", "decode_filter_tiles_into"):
        original = getattr(cls, attr)

        def wrapper(self, *args, _original=original, _attr=attr, **kwargs):
            if depth[0] == 0:
                calls.append(_attr)
            depth[0] += 1
            try:
                return _original(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, attr, wrapper)
    return calls


@pytest.mark.parametrize("codec_name", GPU_CODECS)
@pytest.mark.parametrize("fused", (False, True), ids=("plain", "fused"))
def test_decode_slice_fragmented_activity(ssb_db, monkeypatch, codec_name, fused):
    column = "lo_quantity"
    store = _encoded_store(ssb_db, codec_name, (column,))
    engine = CrystalEngine(ssb_db, store)
    executor = TileStreamExecutor(engine)
    tile_hi = engine.num_tiles
    tile_lo = tile_hi - SLICE_TILES
    morsel = Morsel(0, tile_lo, tile_hi, tile_lo * TILE, engine.num_rows)
    raw = np.asarray(ssb_db.lineorder[column], dtype=np.int64)[morsel.row_lo :]
    predicate = Range(column, 10, 30) if fused else None
    enc = store[column].payload
    codec = get_codec(codec_name)
    elems = codec.tile_elements(enc)
    assert enc.count % elems, "the slice must end on a partial codec tile"
    codec_ids = (morsel.row_lo + np.arange(raw.size)) // elems
    calls = _count_top_level_decodes(monkeypatch, codec)

    for label, active in _slice_patterns(SLICE_TILES).items():
        # Rows of a codec tile decode when any engine tile it overlaps
        # inside the morsel is active; every other row must read 0.
        engine_rows = np.repeat(active, TILE)[: raw.size]
        decoded = np.isin(codec_ids, codec_ids[engine_rows])
        calls.clear()
        got = executor.decode_slice(column, morsel, active, predicate=predicate)
        assert len(calls) == int(active.any()), (label, calls)
        if not fused:
            assert np.array_equal(got[decoded], raw[decoded]), label
            assert not got[~decoded].any(), label
            continue
        values, mask = got
        assert mask is not None, "fused decode must engage"
        assert np.array_equal(mask, predicate.row_mask(raw) & decoded), label
        # Fused contract: values are only meaningful where the mask holds.
        assert np.array_equal(values[mask], raw[mask]), label
        assert not values[~decoded].any(), label


# ---------------------------------------------------------------------------
# Streaming vs the numpy oracle
# ---------------------------------------------------------------------------


def _oracle(db, qname: str) -> dict[int, int]:
    """The naive numpy answer of the SSB flight ``qname``."""
    return evaluate(ssb_model(), db, SSB_SPECS[qname])


def _assert_one_fact_kernel(engine, kernels_before: int, result) -> None:
    """The plan launched its dimension builds plus exactly one fused
    fact kernel, however many morsels ran."""
    names = [launch.spec.name for launch in engine.device.launches[kernels_before:]]
    assert len(names) == result.kernel_count
    assert sum(n.startswith("fact-") for n in names) == 1, names
    assert all(n.startswith(("build-", "fact-")) for n in names), names


@pytest.fixture(scope="module")
def omnisci_store(ssb_db):
    """The staged OmniSci engine's store: whole-table operator kernels."""
    return load_lineorder(ssb_db, "omnisci")


def _columns_for(queries) -> tuple[str, ...]:
    names: list[str] = []
    for q in queries:
        for c in QUERIES[q].columns:
            if c not in names:
                names.append(c)
    return tuple(names)


def _encoded_store(db, codec_name: str, columns) -> ColumnStore:
    """A gpu-star store with every fact column under one codec."""
    stored = {}
    for name in columns:
        values = db.lineorder[name]
        enc = get_codec(codec_name).encode(values)
        stored[name] = StoredColumn(
            name, "gpu-star", values, enc, enc.nbytes, codec_name=codec_name
        )
    return ColumnStore(system="gpu-star", columns=stored)


@pytest.fixture(scope="module", params=GPU_CODECS)
def codec_store(request, ssb_db):
    return request.param, _encoded_store(
        ssb_db, request.param, _columns_for(MATRIX_QUERIES)
    )


class TestStreamingBitIdentity:
    @pytest.mark.parametrize("qname", MATRIX_QUERIES)
    def test_matches_materialized_every_worker_count(
        self, codec_store, ssb_db, qname
    ):
        # Morsels run on one thread whatever the deployment, so the
        # matrix varies the morsel width instead: the default and an
        # unaligned 3-tile width that splits codec tiles across morsels.
        codec_name, store = codec_store
        query = QUERIES[qname]
        expected = _oracle(ssb_db, qname)
        for morsel_tiles in (None, 3):
            engine = CrystalEngine(ssb_db, store, morsel_tiles=morsel_tiles)
            got = engine.run(query)
            label = (codec_name, qname, morsel_tiles)
            assert got.groups == expected, label
            _assert_one_fact_kernel(engine, 0, got)
            stats = engine.last_stream_stats
            assert stats["morsels"] == len(stats["morsel_ms"])
            assert stats["peak_decoded_bytes"] > 0

    def test_uncompressed_store_streams_too(self, ssb_db, none_store):
        engine = CrystalEngine(ssb_db, none_store)
        got = engine.run(QUERIES["q2.1"])
        assert got.groups == _oracle(ssb_db, "q2.1")
        _assert_one_fact_kernel(engine, 0, got)
        # Nothing decodes, so the arenas stay empty.
        assert engine.last_stream_stats["peak_decoded_bytes"] == 0

    def test_repeat_runs_reuse_executor_and_stay_identical(
        self, ssb_db, gpu_star_store
    ):
        engine = CrystalEngine(ssb_db, gpu_star_store)
        query = QUERIES["q1.1"]
        first = engine.run(query).groups
        executor = engine._stream_executor
        for _ in range(2):
            assert engine.run(query).groups == first
        assert engine._stream_executor is executor
        assert executor.peak_decoded_bytes > 0

    def test_empty_after_pushdown(self, ssb_db, gpu_star_store):
        # Far above any conservative codec bound (reference + 2**bits),
        # so pushdown provably prunes every tile.
        impossible = Range("lo_orderdate", 2**40, None)

        def fn(engine):
            p = engine.pipeline("empty-scan")
            p.filter_pushdown(And((impossible,)))
            orderdate = p.load("lo_orderdate")
            p.filter_predicate(impossible, orderdate)
            price = p.load("lo_extendedprice")
            result = p.total_sum(price)
            p.finish()
            return result

        query = SSBQuery("empty", ("lo_orderdate", "lo_extendedprice"), fn)
        engine = CrystalEngine(ssb_db, gpu_star_store)
        got = engine.run(query)
        assert got.groups == {0: 0}
        assert got.kernel_count == 1  # the fused fact kernel still launches
        _assert_one_fact_kernel(engine, 0, got)
        assert engine.last_stream_stats["morsels"] == 0


# ---------------------------------------------------------------------------
# Merge semantics and guard rails
# ---------------------------------------------------------------------------


def _minmax_query(how: str) -> SSBQuery:
    def fn(engine):
        p = engine.pipeline("minmax")
        quantity = p.load("lo_quantity")
        p.filter(np.asarray(quantity, dtype=np.int64) % 3 == 0)
        discount = p.load("lo_discount")
        result = p.group_aggregate(
            np.asarray(quantity, dtype=np.int64) % 8,
            np.asarray(discount, dtype=np.int64) * 100 + quantity,
            8,
            how=how,
        )
        p.finish()
        return result

    return SSBQuery(f"minmax-{how}", ("lo_quantity", "lo_discount"), fn)


class TestMergeSemantics:
    @pytest.mark.parametrize("how", ("min", "max"))
    def test_min_max_partials_merge(self, ssb_db, gpu_star_store, omnisci_store, how):
        query = _minmax_query(how)
        ref = CrystalEngine(ssb_db, omnisci_store).run(query)
        engine = CrystalEngine(ssb_db, gpu_star_store, morsel_tiles=3)
        assert engine.run(query).groups == ref.groups
        assert engine.last_stream_stats["morsels"] > 1

    def test_avg_is_refused(self, ssb_db, gpu_star_store, omnisci_store):
        def fn(engine):
            p = engine.pipeline("avg")
            quantity = p.load("lo_quantity")
            result = p.group_aggregate(
                np.zeros(p.n, dtype=np.int64), quantity, 1, how="avg"
            )
            p.finish()
            return result

        query = SSBQuery("avg", ("lo_quantity",), fn)
        engine = CrystalEngine(ssb_db, gpu_star_store)
        with pytest.raises(NotImplementedError, match="sum and count"):
            engine.run(query)
        # The staged engine's whole-table pass still supports it.
        assert CrystalEngine(ssb_db, omnisci_store).run(query).groups

    def test_lookups_build_once(self, ssb_db, gpu_star_store):
        engine = CrystalEngine(ssb_db, gpu_star_store)
        before = engine.device.kernel_count
        engine.run(QUERIES["q3.1"])
        names = [
            launch.spec.name
            for launch in engine.device.launches[before:]
            if launch.spec.name.startswith("build-")
        ]
        # customer, supplier, date: one build kernel each despite the
        # query function re-running once per morsel.
        assert len(names) == 3

    def test_invalid_config_rejected(self, ssb_db, gpu_star_store):
        with pytest.raises(ValueError):
            CrystalEngine(ssb_db, gpu_star_store, stream_workers=0)
        engine = CrystalEngine(ssb_db, gpu_star_store)
        with pytest.raises(ValueError):
            TileStreamExecutor(engine, morsel_tiles=0)
        assert (
            TileStreamExecutor(engine).morsel_tiles == DEFAULT_MORSEL_TILES
        )


# ---------------------------------------------------------------------------
# Concurrency: engine caches, serving pool, server metrics
# ---------------------------------------------------------------------------


def _storm(worker, n_threads: int = 8) -> list:
    errors: list = []
    barrier = threading.Barrier(n_threads)

    def run(i):
        barrier.wait()
        try:
            worker(i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


class TestConcurrentAccess:
    def test_engine_metadata_caches(self, ssb_db, gpu_star_store):
        engine = CrystalEngine(ssb_db, gpu_star_store)
        columns = ("lo_orderdate", "lo_quantity", "lo_discount", "lo_extendedprice")
        expected = {c: np.asarray(ssb_db.lineorder[c]) for c in columns}

        def worker(i):
            for rep in range(10):
                # Whole-table pipelines decode into fresh buffers, so
                # concurrent loads never share scratch.
                p = engine.pipeline(f"storm-{i}")
                for c in columns:
                    engine.tile_read_bytes(c)
                    mins, maxs = engine.column_tile_bounds(c)
                    assert mins.size == engine.num_tiles == maxs.size
                    assert np.array_equal(p.load(c), expected[c])
                if i == 0 and rep % 3 == 0:
                    engine.invalidate_column(columns[rep % len(columns)])

        assert _storm(worker) == []

    def test_pool_admit_get_invalidate_storm(self):
        pool = ColumnPool(budget_bytes=1 << 20)
        from repro.serving.pool import PoolAdmissionError

        def worker(i):
            for rep in range(50):
                key = f"decoded/col{(i + rep) % 4}"
                try:
                    pool.admit(key, 4096, kind="decoded", payload=rep)
                except PoolAdmissionError:  # pragma: no cover - tiny budget
                    pass
                pool.get(key)
                if rep % 7 == 0:
                    pool.invalidate(key)

        assert _storm(worker) == []
        assert pool.resident_bytes <= 1 << 20

    def test_query_server_streaming_metrics(self, ssb_db, gpu_star_store):
        from repro.serving.scheduler import QueryServer, ServeRequest

        # ``streaming`` is a deprecated keyword: accepted, and ignored.
        server = QueryServer(ssb_db, gpu_star_store, streaming=False)
        results = server.serve([ServeRequest("query", "q1.1")])
        assert results[0].ok
        assert results[0].groups == _oracle(ssb_db, "q1.1")
        snap = server.metrics_snapshot()
        assert snap["streaming_queries"] == 1
        assert snap["streaming_morsels"] >= 1
        assert snap["streaming_morsel_ms_count"] >= 1
        assert snap["streaming_peak_decoded_bytes"] > 0
