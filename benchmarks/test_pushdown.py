"""Predicate-pushdown baseline: tile skipping on a low-selectivity scan.

Runs SSB flight-1 queries over an orderdate-sorted fact table (the
layout a date-partitioned warehouse ingests naturally) with pushdown on
and off, asserting bit-identical answers, reduced simulated read
traffic, and a wall-clock win from late materialization — the decode
work the pruned plan never does.  Emits ``BENCH_pushdown.json`` as the
perf baseline future PRs compare against.

The headline is q1.3 (one week of dates, ~0.01% row selectivity); q1.2
(one month, ~0.03%) rides along as a second low-selectivity point and
q1.1 (one year, ~1.9%) shows the win shrinking as selectivity grows.

Environment knobs:
    REPRO_PUSHDOWN_SF   — SSB scale factor (default 0.1; needs to be
                          large enough that decode dominates fixed costs)
    REPRO_PUSHDOWN_REPS — timing repetitions per mode (default 5)
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import run_once
from repro.engine.crystal import CrystalEngine
from repro.engine.ssb_queries import QUERIES
from repro.experiments import pushdown_sweep
from repro.ssb.dbgen import generate, sort_lineorder_by
from repro.ssb.loader import load_lineorder

PUSHDOWN_SF = float(os.environ.get("REPRO_PUSHDOWN_SF", "0.1"))
REPS = int(os.environ.get("REPRO_PUSHDOWN_REPS", "5"))
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_pushdown.json"

#: Flight-1 scans benched, most selective first; the first is the headline.
BENCH_QUERIES = ("q1.3", "q1.2", "q1.1")


def _run_query(db, store, name, pushdown):
    """Best-of-``REPS`` run: warm metadata, every rep decodes afresh.

    One engine per mode keeps zone-map bounds and per-tile traffic
    metadata warm (a serving system derives those once at ingest), while
    each query decodes its surviving tiles from the compressed payload —
    the cost pushdown is meant to skip (execution caches no decoded
    column).
    """
    engine = CrystalEngine(db, store, pushdown=pushdown)
    best = None
    for _ in range(REPS):
        launches_before = len(engine.device.launches)
        t0 = time.perf_counter()
        result = engine.run(QUERIES[name])
        wall_ms = (time.perf_counter() - t0) * 1e3
        read = int(sum(
            l.traffic.read_bytes
            for l in engine.device.launches[launches_before:]
        ))
        if best is None or wall_ms < best["wall_ms"]:
            best = {
                "wall_ms": wall_ms,
                "sim_ms": result.simulated_ms,
                "read_bytes": read,
                "groups": result.groups,
            }
    return best


def _bench_pushdown():
    db = sort_lineorder_by(generate(scale_factor=PUSHDOWN_SF, seed=7))
    store = load_lineorder(db, "gpu-star")
    per_query = {}
    for name in BENCH_QUERIES:
        on = _run_query(db, store, name, pushdown=True)
        off = _run_query(db, store, name, pushdown=False)
        per_query[name] = {"on": on, "off": off}
    sweep = pushdown_sweep.run(db=db, reps=2)
    return db, per_query, sweep


def test_pushdown_low_selectivity_scan(benchmark):
    db, per_query, sweep = run_once(benchmark, _bench_pushdown)

    summary = {"scale_factor_rows": int(db.num_lineorder_rows), "queries": {}}
    for name, modes in per_query.items():
        on, off = modes["on"], modes["off"]
        # Bit-identical answers with pruning on vs. off.
        assert on["groups"] == off["groups"], name
        # Pruning must reduce simulated read traffic on every flight-1
        # query (they all carry a date window).
        assert on["read_bytes"] < off["read_bytes"], name
        summary["queries"][name] = {
            "wall_ms_on": on["wall_ms"],
            "wall_ms_off": off["wall_ms"],
            "wall_speedup": off["wall_ms"] / on["wall_ms"],
            "sim_ms_on": on["sim_ms"],
            "sim_ms_off": off["sim_ms"],
            "read_bytes_on": on["read_bytes"],
            "read_bytes_off": off["read_bytes"],
            "identical_results": True,
        }

    headline = summary["queries"][BENCH_QUERIES[0]]
    summary["headline_query"] = BENCH_QUERIES[0]
    summary["headline_speedup"] = headline["wall_speedup"]
    summary["selectivity_sweep"] = sweep

    OUTPUT_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    lines = [
        f"{name}: {q['wall_speedup']:.2f}x wall, "
        f"read {q['read_bytes_on'] / 1e6:.2f} / {q['read_bytes_off'] / 1e6:.2f} MB"
        for name, q in summary["queries"].items()
    ]
    print("\npushdown: " + "; ".join(lines) + f" -> {OUTPUT_PATH.name}")

    # The acceptance bar: >=2x wall clock on the headline low-selectivity
    # scan (q1.3 touches one week of dates, far under 5% selectivity).
    assert headline["wall_speedup"] >= 2.0, headline
    # The monotone story: the sweep's narrowest window skips the most.
    assert sweep[0]["tiles_active"] < sweep[-1]["tiles_active"]
    assert sweep[0]["read_MB_on"] < sweep[0]["read_MB_off"]
