"""Semantic result cache under a dashboard drill-down workload.

The serving scenario the cache targets: dashboard traffic re-issuing the
same handful of filters and drilling into them — a year-level revenue
scan, half-year and quarter refinements, the SSB flight-1 queries, and
then the whole mix again on refresh.  This driver runs that workload

* **cold** — a fresh streaming engine per pass, no cache (the baseline
  every answer is verified against, bit for bit);
* **populate** — a semcache-backed engine's first pass, where drill-downs
  already reuse donor partials from the coarser scans; and
* **warm** — the same engine's second pass, where every query should be
  answered almost entirely from cached partials.

It then flushes an update into ``lo_extendedprice`` through the engine's
invalidation hook and replays the workload once more against a fresh
reference, counting stale answers (the count must be zero — epochs drop
every dependent partial).

The summary is what ``benchmarks/test_semcache.py`` pins into
``BENCH_semcache.json``: warm-over-cold wall-clock speedup, hit/partial
coverage, donated partials, and the zero-stale-reads invariant.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.updates import UpdatableColumn
from repro.engine.crystal import CrystalEngine, SSBQuery
from repro.engine.predicates import And, Range
from repro.engine.ssb_queries import QUERIES, make_scan
from repro.experiments.common import print_experiment
from repro.gpusim import GPUDevice
from repro.serving.semcache import DEFAULT_SEMCACHE_BUDGET, SemanticResultCache
from repro.ssb.dbgen import SSBDatabase, generate, sort_lineorder_by
from repro.ssb.loader import load_lineorder

#: Morsel width for the drill-down workload: narrow enough that quarter
#: windows own whole morsels outright on date-sorted data (donor reuse),
#: wide enough to keep per-morsel overhead honest.
DEFAULT_MORSEL_TILES = 2


def _flight1(date_lo: int, date_hi: int, disc_lo: int = 1, disc_hi: int = 3,
             qty_hi: int = 24) -> And:
    return And((
        Range("lo_orderdate", date_lo, date_hi),
        Range("lo_discount", disc_lo, disc_hi),
        Range("lo_quantity", 0, qty_hi),
    ))


def build_workload() -> list[SSBQuery]:
    """The drill-down mix, coarse filters ahead of their refinements."""
    return [
        QUERIES["q1.1"],                                        # year 1993
        make_scan("scan-1993H1", _flight1(19930101, 19930630)),
        make_scan("scan-1993Q1", _flight1(19930101, 19930331)),
        make_scan("scan-1993Q2", _flight1(19930401, 19930630)),
        make_scan("scan-1993Q3", _flight1(19930701, 19930930)),
        make_scan("scan-1993Q4", _flight1(19931001, 19931231)),
        QUERIES["q1.2"],                                        # jan 1994
        QUERIES["q1.3"],                                        # week 6 1994
        make_scan("scan-1994H1", _flight1(19940101, 19940630,
                                          disc_lo=4, disc_hi=6, qty_hi=35)),
        QUERIES["q1.1"],                                        # dashboard repeat
    ]


def _timed_pass(engine: CrystalEngine, workload) -> tuple[list[float], list[dict]]:
    walls, answers = [], []
    for query in workload:
        t0 = time.perf_counter()
        groups = engine.run(query).groups
        walls.append((time.perf_counter() - t0) * 1e3)
        answers.append(groups)
    return walls, answers


def run(
    db: SSBDatabase | None = None,
    scale_factor: float = 0.05,
    seed: int = 7,
    morsel_tiles: int = DEFAULT_MORSEL_TILES,
    budget_bytes: int = DEFAULT_SEMCACHE_BUDGET,
) -> dict:
    """Run the workload cold/populate/warm + flush replay; returns a summary.

    Raises ``AssertionError`` if any cached answer deviates from the
    cold reference, or if the post-flush replay serves a stale answer.
    """
    if db is None:
        db = generate(scale_factor=scale_factor, seed=seed)
    db = sort_lineorder_by(db, "lo_orderdate")
    store = load_lineorder(db, "gpu-star")
    workload = build_workload()

    def fresh_engine() -> CrystalEngine:
        return CrystalEngine(db, store, streaming=True, morsel_tiles=morsel_tiles)

    cold_ms, reference = _timed_pass(fresh_engine(), workload)

    cached = fresh_engine()
    cached.semcache = SemanticResultCache(budget_bytes)
    populate_ms, populate_answers = _timed_pass(cached, workload)
    warm_ms, warm_answers = _timed_pass(cached, workload)
    for i, query in enumerate(workload):
        if populate_answers[i] != reference[i] or warm_answers[i] != reference[i]:
            raise AssertionError(
                f"semantic cache changed the answer for {query.name}"
            )
    stats = cached.semcache.stats()

    # Flush an update through the invalidation hook, then replay against
    # a post-flush reference: any surviving pre-flush partial would show
    # up as a stale answer here.
    device = GPUDevice()
    ucol = UpdatableColumn(db.lineorder["lo_extendedprice"])
    cached.bind_updatable("lo_extendedprice", ucol)
    hot_row = int(np.flatnonzero(
        (db.lineorder["lo_orderdate"] >= 19930101)
        & (db.lineorder["lo_orderdate"] <= 19931231)
        & (db.lineorder["lo_discount"] >= 1)
        & (db.lineorder["lo_discount"] <= 3)
        & (db.lineorder["lo_quantity"] <= 24)
    )[0])
    ucol.update(hot_row, ucol.read(hot_row) + 10_000_000)
    ucol.flush(device)
    _, flushed_reference = _timed_pass(fresh_engine(), workload)
    _, replay_answers = _timed_pass(cached, workload)
    stale_reads = sum(
        1 for got, want in zip(replay_answers, flushed_reference) if got != want
    )
    if stale_reads:
        raise AssertionError(
            f"{stale_reads} stale answers served after flush"
        )
    if flushed_reference[0] == reference[0]:
        raise AssertionError("flush did not change the year-1993 answer")
    final_stats = cached.semcache.stats()

    rows = [
        {
            "query": q.name,
            "wall_ms_cold": cold_ms[i],
            "wall_ms_populate": populate_ms[i],
            "wall_ms_warm": warm_ms[i],
            "warm_speedup": cold_ms[i] / warm_ms[i] if warm_ms[i] else float("inf"),
        }
        for i, q in enumerate(workload)
    ]
    return {
        "rows": rows,
        "num_queries": len(workload),
        "num_rows": int(db.num_lineorder_rows),
        "morsel_tiles": morsel_tiles,
        "budget_bytes": budget_bytes,
        "cold_ms_total": sum(cold_ms),
        "populate_ms_total": sum(populate_ms),
        "warm_ms_total": sum(warm_ms),
        "warm_speedup": sum(cold_ms) / sum(warm_ms) if sum(warm_ms) else 0.0,
        "hits": int(stats.get("semcache_hits", 0)),
        "partial_hits": int(stats.get("semcache_partial_hits", 0)),
        "misses": int(stats.get("semcache_misses", 0)),
        "donated_partials": int(stats.get("semcache_donated_partials", 0)),
        "covered_morsels": int(stats.get("semcache_covered_morsels", 0)),
        "fresh_morsels": int(stats.get("semcache_fresh_morsels", 0)),
        "stale_reads_after_flush": stale_reads,
        "invalidations": int(final_stats.get("semcache_invalidations", 0)),
        "invalidated_partials": int(
            final_stats.get("semcache_invalidated_partials", 0)
        ),
        "entries": int(final_stats.get("semcache_entries", 0)),
        "resident_bytes": int(final_stats.get("semcache_resident_bytes", 0)),
    }


def summary_rows(summary: dict) -> list[dict]:
    """The one-line report row the extensions section renders."""
    return [
        {
            "queries": summary["num_queries"],
            "cold_ms": summary["cold_ms_total"],
            "populate_ms": summary["populate_ms_total"],
            "warm_ms": summary["warm_ms_total"],
            "warm_speedup": summary["warm_speedup"],
            "hits": summary["hits"],
            "partial_hits": summary["partial_hits"],
            "donated": summary["donated_partials"],
            "stale_after_flush": summary["stale_reads_after_flush"],
        }
    ]


def main() -> None:  # pragma: no cover - CLI convenience
    summary = run()
    print_experiment(
        "Semantic result cache: dashboard drill-down workload "
        "(orderdate-sorted lineorder, GPU-* store; answers verified "
        "bit-identical, zero stale reads after flush)",
        [{k: (round(v, 3) if isinstance(v, float) else v) for k, v in r.items()}
         for r in summary["rows"]],
    )
    for row in summary_rows(summary):
        print(row)


if __name__ == "__main__":  # pragma: no cover
    main()
