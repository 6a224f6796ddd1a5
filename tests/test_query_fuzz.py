"""Property-based fuzzing: random Query specs vs the numpy oracle.

A seeded generator draws random valid specs over the SSB semantic model
— random measures (including multi-measure and lone min/max), random
predicate conjunctions over fact and dimension attributes, random
group-bys — compiles each through :class:`QueryCompiler`, executes it on
a compressed store (materialized and streaming), and compares against
the naive uncompressed-numpy oracle in ``query_oracle.py``.

CI smoke mode checks >= 200 result cells.  On a mismatch the failing
spec is shrunk by greedy component removal and the minimal repro —
seed, spec constructor and both result dicts — is printed, so a
regression reduces to one pasteable test case.
"""

from __future__ import annotations

import numpy as np
import pytest

from query_oracle import evaluate
from repro.engine.crystal import CrystalEngine
from repro.engine.predicates import Equals, InSet, Range
from repro.query.compiler import QueryCompiler
from repro.query.model import Query
from repro.query.ssb import ssb_model
from repro.ssb.dbgen import generate
from repro.ssb.loader import load_lineorder

#: Enough draws to clear 200 result cells with margin; the cell floor
#: below is the hard requirement.
SMOKE_SPECS = 60
MIN_CELLS = 200
SEED = 20260808

#: Keep fuzzed group spaces small enough for the dense bincount.
MAX_GROUP_CODES = 200_000


def _draw_predicate(rng, attr) -> "Range | Equals | InSet":
    lo = attr.base
    hi = attr.base + attr.domain - 1
    kind = rng.integers(0, 3)
    if kind == 0:
        return Equals(attr.name, int(rng.integers(lo, hi + 1)))
    if kind == 1:
        a, b = sorted(rng.integers(lo, hi + 1, 2).tolist())
        return Range(attr.name, int(a), int(b))
    count = int(rng.integers(1, min(6, attr.domain) + 1))
    values = rng.choice(np.arange(lo, hi + 1), size=count, replace=False)
    return InSet(attr.name, tuple(int(v) for v in values))


def _draw_spec(rng, model, index: int) -> Query:
    additive = [
        name for name, m in model.measures.items() if m.merge_op == "sum"
    ]
    extreme = [
        name for name, m in model.measures.items() if m.merge_op != "sum"
    ]
    if rng.random() < 0.15 and extreme:
        measures = (str(rng.choice(extreme)),)
    else:
        count = int(rng.integers(1, 3))
        measures = tuple(
            str(m) for m in rng.choice(additive, size=count, replace=False)
        )

    groupable = [a for a in model.attributes.values() if a.groupable]
    filters = []
    for _ in range(int(rng.integers(0, 4))):
        attr = groupable[int(rng.integers(0, len(groupable)))]
        filters.append(_draw_predicate(rng, attr))

    group_by: list[str] = []
    codes = 1
    for _ in range(int(rng.integers(0, 3))):
        attr = groupable[int(rng.integers(0, len(groupable)))]
        if attr.name in group_by or codes * attr.domain > MAX_GROUP_CODES:
            continue
        group_by.append(attr.name)
        codes *= attr.domain

    return Query(
        f"fuzz-{index}",
        measures=measures,
        filters=tuple(filters),
        group_by=tuple(group_by),
    )


def _shrink(spec: Query, still_fails) -> Query:
    """Greedily drop filters/group-bys/measures while the failure holds."""
    changed = True
    while changed:
        changed = False
        for i in range(len(spec.filters)):
            candidate = Query(
                spec.name, spec.measures,
                spec.filters[:i] + spec.filters[i + 1:], spec.group_by,
            )
            if still_fails(candidate):
                spec, changed = candidate, True
                break
        if changed:
            continue
        for i in range(len(spec.group_by)):
            candidate = Query(
                spec.name, spec.measures, spec.filters,
                spec.group_by[:i] + spec.group_by[i + 1:],
            )
            if still_fails(candidate):
                spec, changed = candidate, True
                break
        if changed:
            continue
        if len(spec.measures) > 1:
            for i in range(len(spec.measures)):
                candidate = Query(
                    spec.name,
                    spec.measures[:i] + spec.measures[i + 1:],
                    spec.filters, spec.group_by,
                )
                if still_fails(candidate):
                    spec, changed = candidate, True
                    break
    return spec


class TestQueryFuzz:
    @pytest.fixture(scope="class")
    def harness(self):
        db = generate(scale_factor=0.002, seed=7)
        store = load_lineorder(db, "gpu-star")
        model = ssb_model()
        compiler = QueryCompiler(model, db, store=store)
        engines = {
            "materialized": CrystalEngine(db, store),
            "streaming": CrystalEngine(db, store, streaming=True),
        }
        return db, model, compiler, engines

    def test_random_specs_match_numpy_oracle(self, harness):
        db, model, compiler, engines = harness

        def run(spec: Query, mode: str) -> dict[int, int]:
            return engines[mode].run(compiler.compile(spec)).groups

        def mismatch(spec: Query, mode: str) -> bool:
            try:
                return run(spec, mode) != evaluate(model, db, spec)
            except Exception:
                return True

        rng = np.random.default_rng(SEED)
        cells = 0
        failures = []
        for index in range(SMOKE_SPECS):
            spec = _draw_spec(rng, model, index)
            expected = evaluate(model, db, spec)
            mode = "streaming" if index % 2 else "materialized"
            got = run(spec, mode)
            cells += max(1, len(expected))
            if got != expected:
                shrunk = _shrink(spec, lambda s: mismatch(s, mode))
                print(
                    f"\nFUZZ MISMATCH (seed={SEED}, spec #{index}, {mode})\n"
                    f"repro: {shrunk!r}\n"
                    f"expected: {evaluate(model, db, shrunk)}\n"
                    f"got:      {engines[mode].run(compiler.compile(shrunk)).groups}"
                )
                failures.append((index, shrunk))
        assert not failures, f"{len(failures)} fuzzed specs mismatched the oracle"
        assert cells >= MIN_CELLS, (
            f"smoke run compared only {cells} cells (< {MIN_CELLS}); "
            f"raise SMOKE_SPECS"
        )

    def test_generator_is_deterministic(self):
        model = ssb_model()
        a = [_draw_spec(np.random.default_rng(SEED), model, i) for i in range(10)]
        b = [_draw_spec(np.random.default_rng(SEED), model, i) for i in range(10)]
        assert a == b
