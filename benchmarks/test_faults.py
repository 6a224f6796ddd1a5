"""Fault-injection smoke + checksum overhead guardrail.

Two assertions the CI fuzz-smoke job pins:

* the seeded corruption matrix (every registry codec × every fault mode ×
  ``REPRO_FAULT_SEEDS`` seeds) produces **zero silent-wrong-answer
  cells** — every fault is either detected as
  :class:`~repro.formats.validate.CorruptTileError` or provably harmless
  (bit-identical decode);
* lazy per-tile CRC verification costs **under 5% wall clock** on the
  flight-1 SSB scan versus checksums off — integrity is cheap enough to
  leave on.  Measured the way serving actually pays it: decoded images
  are evicted between scans (each rep re-decodes) but the per-payload
  verification marks persist, so the first scan verifies every tile and
  steady-state scans verify nothing.  The bar applies to the
  steady-state overhead (best-of-``REPRO_FAULT_REPS`` per mode — robust
  to scheduler noise); the cold first-scan cost rides in the JSON.

Emits ``BENCH_faults.json`` with the matrix tallies and the overhead
measurement as the baseline future PRs compare against.

Environment knobs:
    REPRO_FAULT_SEEDS   — comma-separated matrix seeds (default 0,1,2)
    REPRO_FAULT_SF      — SSB scale factor for the overhead run (default 0.05)
    REPRO_FAULT_REPS    — timing repetitions per mode (default 5)
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import run_once
from repro.engine.crystal import CrystalEngine
from repro.engine.ssb_queries import QUERIES
from repro.experiments.fault_injection import corruption_matrix
from repro.formats import set_checksums, set_verify_mode
from repro.ssb.dbgen import generate
from repro.ssb.loader import load_lineorder

SEEDS = tuple(
    int(s) for s in os.environ.get("REPRO_FAULT_SEEDS", "0,1,2").split(",")
)
FAULT_SF = float(os.environ.get("REPRO_FAULT_SF", "0.05"))
REPS = int(os.environ.get("REPRO_FAULT_REPS", "5"))
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_faults.json"

OVERHEAD_QUERY = "q1.1"
#: Acceptance bar: lazy verification under this fractional overhead.
MAX_OVERHEAD = 0.05


def _scan_walls_ms(db, store, verify: bool) -> list[float]:
    """Per-rep flight-1 wall clock: fresh decode, persistent marks.

    Every rep decodes from the compressed payload (execution caches no
    decoded column), so decode cost is paid each time; the verification
    marks start cold and then persist, so rep 0 is the cold verify pass
    and the rest are lazy steady state.
    """
    prev_mode = set_verify_mode("lazy" if verify else "off")
    try:
        engine = CrystalEngine(db, store)
        query = QUERIES[OVERHEAD_QUERY]
        for col in query.columns:
            enc = store[col].payload
            if enc is not None and hasattr(enc, "meta"):
                enc.meta.pop("_crc_seen", None)
                enc.meta.pop("_validated", None)
        walls = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            engine.run(query)
            walls.append((time.perf_counter() - t0) * 1e3)
        return walls
    finally:
        set_verify_mode(prev_mode)


def test_fault_matrix_and_checksum_overhead(benchmark):
    # Only the matrix runs under pytest-benchmark; the overhead timing
    # happens outside the benchmarked callable (pytest-benchmark's GC
    # handling inside the timed call skews phase-ordered comparisons)
    # and interleaves the two modes so drift hits both equally.
    matrix = run_once(benchmark, corruption_matrix, seeds=SEEDS)
    prev_checks = set_checksums(True)
    try:
        db = generate(scale_factor=FAULT_SF, seed=7)
        store = load_lineorder(db, "gpu-star")
    finally:
        set_checksums(prev_checks)
    off_walls, lazy_walls = [], []
    for _ in range(2):
        off_walls += _scan_walls_ms(db, store, verify=False)
        lazy_walls += _scan_walls_ms(db, store, verify=True)

    # Steady state: the cold verify pass is rep 0 of the lazy series, so
    # min() over the reps isolates the recurring per-scan cost in both
    # modes and is robust to scheduler noise spikes.
    off_best = min(off_walls)
    lazy_best = min(lazy_walls)
    overhead = (lazy_best - off_best) / off_best if off_best else 0.0
    cold_overhead = (
        (lazy_walls[0] - off_best) / off_best if off_best else 0.0
    )
    summary = {
        "seeds": list(SEEDS),
        "matrix_cells": matrix["cells"],
        "detected": matrix["detected"],
        "clean": matrix["clean"],
        "silent": matrix["silent"],
        "per_codec": matrix["per_codec"],
        "overhead_query": OVERHEAD_QUERY,
        "reps": len(off_walls),
        "wall_ms_verify_off": off_walls,
        "wall_ms_verify_lazy": lazy_walls,
        "wall_ms_verify_off_best": off_best,
        "wall_ms_verify_lazy_best": lazy_best,
        "checksum_overhead_fraction": overhead,
        "cold_scan_overhead_fraction": cold_overhead,
    }
    OUTPUT_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"\nfaults: {matrix['cells']} cells, {matrix['detected']} detected, "
        f"{matrix['clean']} clean, {matrix['silent']} silent; "
        f"{OVERHEAD_QUERY} x{REPS} verify off {off_best:.1f} ms -> lazy "
        f"{lazy_best:.1f} ms ({overhead * 100:+.1f}% steady, "
        f"{cold_overhead * 100:+.1f}% cold) -> {OUTPUT_PATH.name}"
    )

    # Zero tolerance for silent corruption.
    assert matrix["silent"] == 0, matrix["silent_cells"]
    # Fault detection is the norm, not the exception.
    assert matrix["detected"] >= matrix["cells"] * 0.9
    # Integrity is cheap: lazy verification under the 5% bar.
    assert overhead < MAX_OVERHEAD, (
        f"lazy checksum verification costs {overhead * 100:.1f}% "
        f"(bar {MAX_OVERHEAD * 100:.0f}%)"
    )
