"""Morsel-streaming execution: host time and peak decoded bytes
(`repro run streaming`).

Every fused plan runs the way the paper's kernels do (Sections 3 and 7):
contiguous tile morsels are decoded into small reusable scratch buffers,
filtered, probed and partially aggregated, and the partials merge in
deterministic morsel order.  No fact column is ever decoded whole.

For each SSB query this driver reports the streaming host wall clock,
the peak decoded-intermediate bytes next to the bytes a whole-column
decode would hold (one int64 image per inline column), and checks the
answer against the staged engine's whole-table pass.
"""

from __future__ import annotations

import time

from repro.engine.crystal import CrystalEngine
from repro.engine.ssb_queries import QUERIES
from repro.experiments.common import print_experiment
from repro.ssb.dbgen import SSBDatabase, generate, sort_lineorder_by
from repro.ssb.loader import load_lineorder

DEFAULT_QUERIES = ("q1.1", "q1.3", "q2.1", "q3.1", "q4.1")


def _best_host_ms(engine: CrystalEngine, query, reps: int) -> tuple[float, dict]:
    """Best-of-``reps`` host wall clock (warm metadata and arena)."""
    best = None
    groups = None
    for _ in range(reps):
        t0 = time.perf_counter()
        groups = engine.run(query).groups
        host_ms = (time.perf_counter() - t0) * 1e3
        best = host_ms if best is None else min(best, host_ms)
    return best, groups


def run(
    db: SSBDatabase | None = None,
    scale_factor: float = 0.05,
    seed: int = 7,
    queries=DEFAULT_QUERIES,
    reps: int = 3,
) -> list[dict]:
    """Stream each query; returns one row per query."""
    if db is None:
        db = generate(scale_factor=scale_factor, seed=seed)
    db = sort_lineorder_by(db, "lo_orderdate")
    store = load_lineorder(db, "gpu-star")
    streamer = CrystalEngine(db, store)
    staged = CrystalEngine(db, load_lineorder(db, "omnisci"))

    rows = []
    for name in queries:
        query = QUERIES[name]
        host_ms, groups = _best_host_ms(streamer, query, reps)
        expected = staged.run(query).groups
        if groups != expected:
            raise AssertionError(
                f"streaming disagrees with the staged engine on {name}: "
                f"{groups} != {expected}"
            )
        # A whole-column decode holds every inline column's int64 image.
        whole = sum(
            store[c].payload.count * 8
            for c in query.columns
            if streamer.column_inline(c)
        )
        # Arenas only grow, so this is the peak across every query so far.
        stream_peak = streamer.last_stream_stats["peak_decoded_bytes"]
        rows.append({
            "query": name,
            "host_ms_stream": host_ms,
            "morsels": streamer.last_stream_stats["morsels"],
            "peak_MB_whole_column": whole / 1e6,
            "peak_MB_stream": stream_peak / 1e6,
            "peak_ratio": whole / stream_peak if stream_peak else float("nan"),
        })
    return rows


def main() -> None:  # pragma: no cover - CLI convenience
    rows = run()
    print_experiment(
        "Morsel streaming execution (orderdate-sorted lineorder, GPU-* "
        "store; answers checked against the staged engine)",
        [{k: (round(v, 3) if isinstance(v, float) else v) for k, v in r.items()}
         for r in rows],
    )
