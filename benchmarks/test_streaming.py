"""Morsel streaming execution: host time and peak decoded bytes.

Runs SSB queries over an orderdate-sorted ``gpu-star`` fact table through
the morsel streaming executor (every fused plan's only path), checks each
answer against the naive numpy oracle, and asserts a much smaller peak
decoded-intermediate footprint than a whole-column decode would hold
(one int64 image per inline column).  Emits ``BENCH_streaming.json`` as
the perf baseline future PRs compare against.

The headline is q1.3 (one week of dates: pushdown leaves a handful of
morsels); q2.1 rides along as an unselective counterpoint.

Environment knobs:
    REPRO_STREAMING_SF      — SSB scale factor (default 0.1)
    REPRO_STREAMING_REPS    — timing repetitions per query (default 5)
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from conftest import run_once
from repro.engine.crystal import CrystalEngine
from repro.engine.ssb_queries import QUERIES
from repro.query.ssb import SSB_SPECS, ssb_model
from repro.ssb.dbgen import generate, sort_lineorder_by
from repro.ssb.loader import load_lineorder

# The numpy oracle lives with the tier-1 tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from query_oracle import evaluate  # noqa: E402

STREAMING_SF = float(os.environ.get("REPRO_STREAMING_SF", "0.1"))
REPS = int(os.environ.get("REPRO_STREAMING_REPS", "5"))
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_streaming.json"

BENCH_QUERIES = ("q1.3", "q1.2", "q1.1", "q2.1")
HEADLINE_QUERY = "q1.3"


def _streaming_run(db, store, name):
    """Best-of-``REPS`` host wall clock (warm metadata and arena)."""
    engine = CrystalEngine(db, store)
    query = QUERIES[name]
    best = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        result = engine.run(query)
        host_ms = (time.perf_counter() - t0) * 1e3
        if best is None or host_ms < best["host_ms"]:
            best = {"host_ms": host_ms, "groups": result.groups}
    # Arenas only grow, so the last run's gauge is the true peak across
    # every rep of this engine.
    best["peak_bytes"] = int(engine.last_stream_stats["peak_decoded_bytes"])
    best["morsels"] = int(engine.last_stream_stats["morsels"])
    # What a whole-column decode would hold: every inline column's image.
    best["whole_column_bytes"] = sum(
        store[c].payload.count * 8 for c in query.columns if engine.column_inline(c)
    )
    return best


def _bench_streaming():
    db = sort_lineorder_by(generate(scale_factor=STREAMING_SF, seed=7))
    store = load_lineorder(db, "gpu-star")
    return db, {name: _streaming_run(db, store, name) for name in BENCH_QUERIES}


def test_streaming_peak_bytes(benchmark):
    db, per_query = run_once(benchmark, _bench_streaming)

    model = ssb_model()
    summary = {
        "scale_factor_rows": int(db.num_lineorder_rows),
        "queries": {},
    }
    for name, run in per_query.items():
        assert run["groups"] == evaluate(model, db, SSB_SPECS[name]), name
        peak = run["peak_bytes"]
        summary["queries"][name] = {
            "host_ms": run["host_ms"],
            "peak_bytes_whole_column": run["whole_column_bytes"],
            "peak_bytes_streaming": peak,
            "peak_ratio": run["whole_column_bytes"] / peak if peak else None,
            "morsels": run["morsels"],
            "matches_oracle": True,
        }

    headline = summary["queries"][HEADLINE_QUERY]
    summary["headline_query"] = HEADLINE_QUERY
    summary["headline_host_ms"] = headline["host_ms"]
    summary["headline_peak_ratio"] = headline["peak_ratio"]

    OUTPUT_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    lines = [
        f"{name}: {q['host_ms']:.2f} host ms, "
        f"peak {q['peak_bytes_whole_column'] / 1e6:.1f} -> "
        f"{q['peak_bytes_streaming'] / 1e6:.1f} MB"
        for name, q in summary["queries"].items()
    ]
    print("\nstreaming: " + "; ".join(lines) + f" -> {OUTPUT_PATH.name}")

    # Acceptance: >=4x lower peak decoded intermediates on the headline.
    assert headline["peak_ratio"] >= 4.0, headline
