"""Correctness gate and workload engagement checks.

Both run after the timed phase, outside every timed region.  A wrong answer
or a workload that no longer exercised what it is for makes the benchmark
exit non-zero; neither counts as a failed op.
"""

from __future__ import annotations

import numpy as np

from repro.query.ssb import ssb_model

from bench_workloads import UPDATED_COLUMN, spec_fact_columns


class _VersionedDB:
    """An SSB database whose lineorder has one column at a given version."""

    def __init__(self, db, column: str, values: np.ndarray):
        self._db = db
        self._fact = dict(db.lineorder)
        self._fact[column] = values

    def table(self, name: str):
        return self._fact if name == "lineorder" else self._db.table(name)


def check_answers(setup, records, oracle) -> list[str]:
    """Compare every answered op with the numpy oracle / the raw column.

    On ingest-refresh an answer must reflect the updated column after all
    flushes issued before the op was submitted (its ``version``).
    """
    model = ssb_model()
    db = setup.db
    current = None
    if setup.ucol is not None:
        current = np.asarray(db.lineorder[UPDATED_COLUMN], dtype=np.int64).copy()
    applied = 0
    expected_by_key: dict = {}
    errors = []
    for rec in sorted(records, key=lambda r: (r.version, r.rid)):
        if not rec.ok or rec.op.kind == "flush":
            continue
        while applied < rec.version:
            idx, vals = setup.flushes[applied]
            current[idx] = vals
            applied += 1
        op = rec.op
        if op.kind == "query":
            versioned = (current is not None
                         and UPDATED_COLUMN in spec_fact_columns(op.spec, model))
            key = (op.spec.spec_key(), rec.version if versioned else -1)
            if key not in expected_by_key:
                source = _VersionedDB(db, UPDATED_COLUMN, current) if versioned else db
                expected_by_key[key] = oracle.evaluate(model, source, op.spec)
            if rec.result.groups != expected_by_key[key]:
                errors.append(f"op {rec.rid}: query {op.spec.name} answered "
                              f"{len(rec.result.groups)} groups unlike the oracle")
        else:
            raw = (current if current is not None and op.column == UPDATED_COLUMN
                   else db.lineorder[op.column])
            want = np.asarray(raw, dtype=np.int64)[op.indices]
            got = np.asarray(rec.result.values, dtype=np.int64)
            if not np.array_equal(got, want):
                bad = int(np.count_nonzero(got != want))
                errors.append(f"op {rec.rid}: lookup {op.column} has {bad} wrong values")
    return errors


def counter(snapshot: dict, name: str) -> float:
    """A metric summed over every label set (e.g. one per shard)."""
    return sum(v for k, v in snapshot.items()
               if (k == name or k.startswith(name + "{")) and isinstance(v, (int, float)))


def engagement(workload: str, server, before: dict, after: dict, records) -> list[str]:
    """Assert the timed phase exercised what the workload is for."""

    def delta(name: str) -> float:
        return counter(after, name) - counter(before, name)

    failures = []

    def require(ok: bool, what: str) -> None:
        if not ok:
            failures.append(f"{workload}: {what}")

    if workload == "ssb-flights":
        require(server.semcache is None and delta("semcache_queries") == 0,
                "no semantic-cache probes")
        require(server.router is None, "no shard router")
        require(delta("pool_evictions") == 0, "zero pool evictions")
    elif workload == "dashboard-refresh":
        covered = delta("semcache_covered_morsels")
        require(covered > 0, "semcache.covered_morsel_ratio > 0")
        require(delta("pool_evictions") > 0, "pool.evictions > 0")
        batches = delta("server_batches")
        require(batches > 0 and delta("server_served") / batches > 1,
                "scheduler.batch_ratio > 1")
        require(any(r.op.kind == "lookup" and r.ok for r in records), "lookups served")
    else:
        require(any(r.op.kind == "flush" and r.ok for r in records), "flushes > 0")
        require(delta("tiering_swaps") > 0, "tiering swaps > 0")
        require(delta("semcache_invalidations") > 0, "semcache invalidations > 0")
    return failures
