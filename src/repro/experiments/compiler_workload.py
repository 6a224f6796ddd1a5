"""Compiled declarative plans vs the hand-written SSB flights.

The query compiler turns a declarative star-schema ``Query`` spec into
the same streaming pipeline the hand-written flights in
``engine/ssb_queries.py`` build by hand: dimension predicates are
reduced to fact-FK ranges/in-sets, exact reductions drop their joins
outright, and every conjunct is pushed into the zone-map pass.  This
driver runs all 13 flights both ways on one streaming engine and
answers the two questions the compiler must get right:

* **identity** — every compiled flight returns bit-identical groups to
  its hand-written oracle (the run raises on any deviation); and
* **overhead** — the compiled plans' wall clock stays within a few
  percent of the hand plans' (``benchmarks/test_compiler.py`` pins the
  ratio at <= 1.05x into ``BENCH_compiler.json``).

Per-flight rows also surface what the planner did: dropped joins,
pushdown conjunct counts and surviving zone-map tiles, plus the
one-time compile cost.
"""

from __future__ import annotations

import time

from repro.engine.crystal import CrystalEngine
from repro.engine.ssb_queries import QUERIES
from repro.experiments.common import print_experiment
from repro.query.compiler import QueryCompiler
from repro.query.ssb import SSB_SPECS, ssb_model
from repro.ssb.dbgen import SSBDatabase, generate
from repro.ssb.loader import load_lineorder


def _best_of(engine: CrystalEngine, query, repeats: int) -> tuple[float, dict]:
    """Best wall-clock over ``repeats`` runs, plus the (stable) groups."""
    best_ms, groups = float("inf"), {}
    for _ in range(repeats):
        t0 = time.perf_counter()
        groups = engine.run(query).groups
        best_ms = min(best_ms, (time.perf_counter() - t0) * 1e3)
    return best_ms, groups


def run(
    db: SSBDatabase | None = None,
    scale_factor: float = 0.05,
    seed: int = 7,
    repeats: int = 3,
) -> dict:
    """Run the 13-flight mix hand-written vs compiled; returns a summary.

    Raises ``AssertionError`` if any compiled flight's groups deviate
    from the hand-written plan's.
    """
    if db is None:
        db = generate(scale_factor=scale_factor, seed=seed)
    store = load_lineorder(db, "gpu-star")
    compiler = QueryCompiler(ssb_model(), db, store=store)

    compiled, compile_ms = {}, 0.0
    for name in QUERIES:
        t0 = time.perf_counter()
        compiled[name] = compiler.compile(SSB_SPECS[name])
        compile_ms += (time.perf_counter() - t0) * 1e3

    engine = CrystalEngine(db, store)
    rows, mismatches = [], []
    for name in QUERIES:
        hand_ms, hand_groups = _best_of(engine, QUERIES[name], repeats)
        comp_ms, comp_groups = _best_of(engine, compiled[name], repeats)
        if comp_groups != hand_groups:
            mismatches.append(name)
        trace = compiled[name].trace
        rows.append({
            "query": name,
            "hand_ms": hand_ms,
            "compiled_ms": comp_ms,
            "overhead": comp_ms / hand_ms if hand_ms else float("inf"),
            "joins_dropped": sum(1 for j in trace["joins"] if j["dropped"]),
            "pushdown_conjuncts": len(trace["pushdown"]),
            "surviving_tiles": trace["surviving_tiles"],
            "total_tiles": trace["total_tiles"],
        })
    if mismatches:
        raise AssertionError(
            f"compiled flights deviated from the hand plans: {mismatches}"
        )

    hand_total = sum(r["hand_ms"] for r in rows)
    compiled_total = sum(r["compiled_ms"] for r in rows)
    return {
        "rows": rows,
        "num_queries": len(rows),
        "num_rows": int(db.num_lineorder_rows),
        "repeats": repeats,
        "compile_ms_total": compile_ms,
        "hand_ms_total": hand_total,
        "compiled_ms_total": compiled_total,
        "overhead": compiled_total / hand_total if hand_total else float("inf"),
        "joins_dropped_total": sum(r["joins_dropped"] for r in rows),
        "pushdown_conjuncts_total": sum(r["pushdown_conjuncts"] for r in rows),
        "mismatches": len(mismatches),
    }


def summary_rows(summary: dict) -> list[dict]:
    """The one-line report row the extensions section renders."""
    return [
        {
            "queries": summary["num_queries"],
            "hand_ms": summary["hand_ms_total"],
            "compiled_ms": summary["compiled_ms_total"],
            "overhead": summary["overhead"],
            "compile_ms": summary["compile_ms_total"],
            "joins_dropped": summary["joins_dropped_total"],
            "pushdown_conjuncts": summary["pushdown_conjuncts_total"],
            "mismatches": summary["mismatches"],
        }
    ]


def main() -> None:  # pragma: no cover - CLI convenience
    summary = run()
    print_experiment(
        "Star-schema query compiler: declarative specs vs hand-written "
        "SSB flights (streaming GPU-* store; answers verified "
        "bit-identical)",
        [{k: (round(v, 3) if isinstance(v, float) else v) for k, v in r.items()}
         for r in summary["rows"]],
    )
    for row in summary_rows(summary):
        print(row)


if __name__ == "__main__":  # pragma: no cover
    main()
