"""Predicate-pushdown selectivity sweep (`repro run pushdown`).

Measures what metadata-driven tile skipping buys as a q1.x-style scan
narrows: an orderdate-sorted fact table (the layout a date-partitioned
warehouse ingests naturally) is scanned with date windows of increasing
width, with pushdown on and off.  For each width the driver reports the
surviving tile count, simulated time and read traffic, and the
*wall-clock* time of the Python-side decode — the cost late
materialization avoids — and asserts the pruned and unpruned plans agree
bit for bit.

Sorting only the fact table cannot change any SSB aggregate (they are
row-order invariant), so the same queries remain comparable against
every other experiment in the suite.
"""

from __future__ import annotations

import time

from repro.engine.crystal import CrystalEngine
from repro.engine.predicates import And, Range
from repro.experiments.common import print_experiment
from repro.ssb.dbgen import SSBDatabase, generate, sort_lineorder_by
from repro.ssb.loader import ColumnStore, load_lineorder

#: Date-window widths (days) swept; ``None`` means the full date range.
DEFAULT_WIDTHS = (2, 7, 30, 180, None)


def q1_style_scan(
    engine: CrystalEngine, date_lo: int, date_hi: int
) -> tuple[dict[int, int], dict]:
    """A flight-1-shaped scan with an explicit orderdate window.

    Returns the aggregate and per-run stats (tiles, selectivity).
    """
    date = Range("lo_orderdate", date_lo, date_hi)
    disc = Range("lo_discount", 1, 3)
    qty = Range("lo_quantity", None, 24)
    p = engine.pipeline("pushdown-sweep")
    pruned = p.filter_pushdown(And((date, disc, qty)))
    orderdate = p.load("lo_orderdate")
    p.filter_predicate(date, orderdate)
    discount = p.load("lo_discount")
    p.filter_predicate(disc, discount)
    quantity = p.load("lo_quantity")
    p.filter_predicate(qty, quantity)
    extendedprice = p.load("lo_extendedprice")
    result = p.total_sum_product(extendedprice, discount)
    stats = {
        "tiles_total": engine.num_tiles,
        "tiles_active": int(p.tile_active.sum()),
        "tiles_pruned": pruned,
        "row_selectivity": p.live_count / p.n if p.n else 0.0,
    }
    p.finish()
    return result, stats


def _measure(
    db: SSBDatabase, store: ColumnStore, date_lo: int, date_hi: int,
    pushdown: bool, reps: int,
) -> tuple[float, float, int, dict[int, int], dict]:
    """Best-of-``reps`` run with warm metadata; the whole-table pipeline
    decodes its surviving tiles afresh every run.

    Returns ``(wall_ms, sim_ms, read_bytes, result, stats)``.
    """
    engine = CrystalEngine(db, store, pushdown=pushdown)
    best = None
    for _ in range(reps):
        launches_before = len(engine.device.launches)
        ms_before = engine.device.elapsed_ms
        t0 = time.perf_counter()
        result, stats = q1_style_scan(engine, date_lo, date_hi)
        wall_ms = (time.perf_counter() - t0) * 1e3
        sim_ms = engine.device.elapsed_ms - ms_before
        read = int(sum(
            l.traffic.read_bytes
            for l in engine.device.launches[launches_before:]
        ))
        if best is None or wall_ms < best[0]:
            best = (wall_ms, sim_ms, read, result, stats)
    return best


def run(
    db: SSBDatabase | None = None,
    scale_factor: float = 0.05,
    seed: int = 7,
    widths=DEFAULT_WIDTHS,
    reps: int = 3,
) -> list[dict]:
    """Sweep date-window widths; returns one row per width."""
    if db is None:
        db = generate(scale_factor=scale_factor, seed=seed)
    db = sort_lineorder_by(db, "lo_orderdate")
    store = load_lineorder(db, "gpu-star")
    datekeys = db.date["d_datekey"]

    rows = []
    for width in widths:
        if width is None:
            lo, hi = int(datekeys.min()), int(datekeys.max())
        else:
            # A window in the middle of the calendar, in real days.
            start = datekeys.size // 3
            lo = int(datekeys[start])
            hi = int(datekeys[min(start + width - 1, datekeys.size - 1)])
        on = _measure(db, store, lo, hi, pushdown=True, reps=reps)
        off = _measure(db, store, lo, hi, pushdown=False, reps=reps)
        if on[3] != off[3]:
            raise AssertionError(
                f"pushdown changed the answer for window {lo}..{hi}: "
                f"{on[3]} != {off[3]}"
            )
        stats = on[4]
        rows.append({
            "window_days": width if width is not None else "all",
            "selectivity_pct": 100.0 * stats["row_selectivity"],
            "tiles_active": stats["tiles_active"],
            "tiles_total": stats["tiles_total"],
            "wall_ms_on": on[0],
            "wall_ms_off": off[0],
            "wall_speedup": off[0] / on[0] if on[0] else float("nan"),
            "sim_ms_on": on[1],
            "sim_ms_off": off[1],
            "read_MB_on": on[2] / 1e6,
            "read_MB_off": off[2] / 1e6,
        })
    return rows


def main() -> None:  # pragma: no cover - CLI convenience
    rows = run()
    print_experiment(
        "Predicate pushdown: q1.x-style scan vs date-window selectivity "
        "(orderdate-sorted lineorder)",
        [{k: (round(v, 3) if isinstance(v, float) else v) for k, v in r.items()}
         for r in rows],
    )


if __name__ == "__main__":  # pragma: no cover
    main()
