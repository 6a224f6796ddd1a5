"""Differential tests: compiled SSB specs vs the hand-written plans.

The hand-written plans in ``engine/ssb_queries.py`` are the oracle:
every flight compiled from its declarative spec must return
**bit-identical** groups across all five GPU codecs and {1, 2}
shards, and must decode equal-or-fewer tiles than the hand plan (the
compiler may push more conjuncts down, never fewer).
The TPC-DS-subset model runs against the independent numpy oracle to
prove the compiler is not SSB-shaped.
"""

from __future__ import annotations

import pytest

from query_oracle import evaluate
from repro.engine.crystal import CrystalEngine
from repro.engine.predicates import Equals, Range
from repro.engine.ssb_queries import QUERIES
from repro.formats.registry import get_codec
from repro.query.compiler import CompiledQuery, QueryCompiler
from repro.query.model import Query
from repro.query.ssb import SSB_SPECS, ssb_model
from repro.query.tpcds import TPCDS_SPECS, tpcds_model
from repro.serving.scheduler import QueryServer
from repro.ssb.dbgen import generate, generate_tpcds_subset
from repro.ssb.loader import ColumnStore, StoredColumn, load_lineorder, load_star

GPU_CODECS = ("gpu-for", "gpu-dfor", "gpu-rfor", "gpu-bp", "gpu-simdbp128")
FLIGHTS = tuple(QUERIES)


@pytest.fixture(scope="module")
def db():
    return generate(scale_factor=0.002, seed=7)


@pytest.fixture(scope="module")
def model():
    return ssb_model()


@pytest.fixture(scope="module")
def star_store(db):
    return load_lineorder(db, "gpu-star")


@pytest.fixture(scope="module")
def compiled(db, model, star_store):
    """All 13 flights compiled once (store-aware: costed filter order)."""
    compiler = QueryCompiler(model, db, store=star_store)
    return {name: compiler.compile(SSB_SPECS[name]) for name in FLIGHTS}


@pytest.fixture(scope="module")
def hand_results(db, star_store):
    engine = CrystalEngine(db, star_store)
    return {name: engine.run(QUERIES[name]).groups for name in FLIGHTS}


def _touched_columns(compiled) -> tuple[str, ...]:
    names: list[str] = []
    for q in QUERIES.values():
        names.extend(c for c in q.columns if c not in names)
    for q in compiled.values():
        names.extend(c for c in q.columns if c not in names)
    return tuple(names)


def _encoded_store(db, codec_name: str, columns) -> ColumnStore:
    stored = {}
    for name in columns:
        values = db.lineorder[name]
        enc = get_codec(codec_name).encode(values)
        stored[name] = StoredColumn(
            name, "gpu-star", values, enc, enc.nbytes, codec_name=codec_name
        )
    return ColumnStore(system="gpu-star", columns=stored)


@pytest.fixture(scope="module", params=GPU_CODECS)
def codec_store(request, db, compiled):
    return request.param, _encoded_store(
        db, request.param, _touched_columns(compiled)
    )


class TestCompiledDifferential:
    @pytest.mark.parametrize("flight", FLIGHTS)
    def test_bit_identical_materialized(
        self, flight, db, model, compiled, hand_results
    ):
        # The staged (OmniSci) engine runs the compiled plan as one
        # whole-table pass of per-operator kernels.
        staged = CrystalEngine(db, load_lineorder(db, "omnisci"))
        got = staged.run(compiled[flight]).groups
        assert got == hand_results[flight]
        assert got == evaluate(model, db, SSB_SPECS[flight])

    def test_bit_identical_per_codec(
        self, codec_store, db, compiled, hand_results
    ):
        codec_name, store = codec_store
        engine = CrystalEngine(db, store)
        for flight in FLIGHTS:
            got = engine.run(compiled[flight]).groups
            assert got == hand_results[flight], (codec_name, flight)

    @pytest.mark.parametrize("num_shards", (1, 2))
    @pytest.mark.parametrize("workers", (1, 4))
    def test_bit_identical_served_on_shards(
        self, db, star_store, compiled, hand_results, workers, num_shards
    ):
        # ``stream_workers`` is deprecated and ignored; answers must not
        # depend on it.
        server = QueryServer(
            db,
            star_store,
            stream_workers=workers,
            num_shards=num_shards,
        )
        try:
            futures = {f: server.query(compiled[f]) for f in FLIGHTS}
            server.drain()
            for flight, future in futures.items():
                result = future.result()
                assert result.ok, (flight, result.status, result.error)
                assert result.groups == hand_results[flight], (
                    flight, workers, num_shards,
                )
        finally:
            server.stop()

    @pytest.mark.parametrize("flight", FLIGHTS)
    def test_pushdown_parity_or_better(self, flight, db, star_store, compiled):
        """Compiled plans never decode more tiles than the hand plans."""
        engine = CrystalEngine(db, star_store)
        engine.run(compiled[flight])
        compiled_tiles = engine.last_stream_stats["tiles_active"]
        engine.run(QUERIES[flight])
        hand_tiles = engine.last_stream_stats["tiles_active"]
        assert compiled_tiles <= hand_tiles


class TestCompiledOnClusteredData:
    def test_compiled_pushdown_prunes_on_sorted_dates(self, db):
        """On date-clustered data the compiled datekey range skips tiles."""
        from repro.ssb.dbgen import sort_lineorder_by

        sdb = sort_lineorder_by(db, "lo_orderdate")
        store = load_lineorder(sdb, "gpu-star")
        compiler = QueryCompiler(ssb_model(), sdb, store=store)
        engine = CrystalEngine(sdb, store)
        compiled = compiler.compile(SSB_SPECS["q1.2"])
        groups = engine.run(compiled).groups
        stats = engine.last_stream_stats
        assert stats["tiles_active"] < engine.num_tiles
        hand = CrystalEngine(sdb, store).run(QUERIES["q1.2"]).groups
        assert groups == hand
        assert compiled.trace["late_materialization"] is True


class TestCompilerSemantics:
    def test_decode_groups_roundtrip(self, db, star_store, compiled, hand_results):
        decoded = compiled["q4.1"].decode_groups(hand_results["q4.1"])
        # d_year strides c_nation in the hand plan's packing.
        for (year, nation), value in decoded.items():
            assert 1992 <= year <= 1998
            assert 0 <= nation < 25
            assert hand_results["q4.1"][(year - 1992) * 25 + nation] == value

    def test_structurally_equal_specs_share_semantic_key(self, db, model, star_store):
        compiler = QueryCompiler(model, db, store=star_store)
        a = compiler.compile(Query(
            "first", measures=("revenue",),
            filters=(Equals("s_region", 2),), group_by=("d_year",),
        ))
        b = compiler.compile(Query(
            "second", measures=("revenue",),
            # Range collapsing to a point canonicalizes to the Equals.
            filters=(Range("s_region", 2, 2),), group_by=("d_year",),
        ))
        assert a.semantic_key() == b.semantic_key()

    def test_compiled_carries_spec_and_trace(self, compiled):
        q = compiled["q3.1"]
        assert isinstance(q, CompiledQuery)
        assert q.spec is SSB_SPECS["q3.1"]
        assert q.model_name == "ssb"
        assert q.trace["pushdown"], "q3.1 must push the datekey range down"
        assert [j["table"] for j in q.trace["joins"]] == [
            "customer", "supplier", "date"
        ]

    def test_rejects_unknown_names(self, db, model):
        compiler = QueryCompiler(model, db)
        with pytest.raises(KeyError):
            compiler.compile(Query("bad", measures=("no_such_measure",)))
        with pytest.raises(KeyError):
            compiler.compile(Query(
                "bad", measures=("revenue",),
                filters=(Equals("no_such_attr", 1),),
            ))
        with pytest.raises(KeyError):
            compiler.compile(Query(
                "bad", measures=("revenue",), group_by=("no_such_attr",),
            ))
        with pytest.raises(ValueError):
            # d_yearmonthnum declares no code domain: filter-only.
            compiler.compile(Query(
                "bad", measures=("revenue",), group_by=("d_yearmonthnum",),
            ))

    def test_rejects_mixed_merge_families(self, db, model):
        compiler = QueryCompiler(model, db)
        with pytest.raises(ValueError):
            compiler.compile(Query(
                "bad", measures=("revenue", "max_revenue"),
                group_by=("d_year",),
            ))

    def test_additive_measures_share_one_plan(self, db, model, star_store):
        compiler = QueryCompiler(model, db, store=star_store)
        spec = Query(
            "mix", measures=("revenue", "count_lines"),
            filters=(Equals("s_region", 1),), group_by=("d_year",),
        )
        compiled = compiler.compile(spec)
        got = CrystalEngine(db, star_store).run(compiled).groups
        assert got == evaluate(model, db, spec)
        decoded = compiled.decode_groups(got)
        assert any(k[-1] == "revenue" for k in decoded)
        assert any(k[-1] == "count_lines" for k in decoded)


class TestTpcdsModel:
    """The second star proves the compiler generalizes beyond SSB."""

    @pytest.fixture(scope="class")
    def star(self):
        sdb = generate_tpcds_subset(scale_factor=0.01, seed=7)
        return sdb, load_star(sdb, "gpu-star")

    @pytest.mark.parametrize("name", tuple(TPCDS_SPECS))
    def test_matches_numpy_oracle(self, star, name):
        sdb, store = star
        model = tpcds_model()
        compiler = QueryCompiler(model, sdb, store=store)
        compiled = compiler.compile(TPCDS_SPECS[name])
        engine = CrystalEngine(sdb, store)
        assert engine.run(compiled).groups == evaluate(model, sdb, TPCDS_SPECS[name])

    def test_streaming_matches_materialized(self, star):
        sdb, store = star
        compiler = QueryCompiler(tpcds_model(), sdb, store=store)
        compiled = compiler.compile(TPCDS_SPECS["tq3"])
        ref = CrystalEngine(sdb, load_star(sdb, "omnisci")).run(compiled).groups
        engine = CrystalEngine(sdb, store)
        assert engine.run(compiled).groups == ref
