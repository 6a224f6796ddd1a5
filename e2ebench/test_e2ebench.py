"""Self-tests of the benchmark: smoke runs, determinism and trace invariants.

Run from the repository root::

    python3 -m pytest e2ebench -q

Smoke runs use scale factor 0.01 so each workload sets up in well under a
second; the benchmark itself always runs at scale factor 0.1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from bench_checks import check_answers, counter, engagement  # noqa: E402
from bench_trace import Instrumentation, Span, Tracer, self_times_ns, write_chrome_trace  # noqa: E402
from bench_workloads import WORKLOADS, Client, build, load_oracle  # noqa: E402

TINY_SF = 0.01
#: Bursts per smoke run: enough for every engagement check to trip at the
#: tiny scale (ingest needs several maintenance passes on the serving clock).
SMOKE_BURSTS = {"ssb-flights": 6, "dashboard-refresh": 12, "ingest-refresh": 120}
#: Counters that depend only on the op sequence, never on host timing.
COUNTS = ("server_served", "server_batches", "server_batched_requests", "pool_hits",
          "pool_misses", "pool_evictions", "semcache_queries", "semcache_hits",
          "semcache_covered_morsels", "semcache_fresh_morsels",
          "semcache_invalidated_partials", "tiering_swaps", "router_shards_selected")


@pytest.fixture(scope="module")
def oracle():
    return load_oracle()


def _run(workload: str, seed: int, bursts: int | None = None, tracer=None):
    setup = build(workload, seed, scale_factor=TINY_SF)
    client = Client(setup, tracer)
    instrumentation = None
    if tracer is not None:
        tracer.current_rid = client.current_rid
        instrumentation = Instrumentation(tracer).install()
    before = setup.server.metrics_snapshot()
    try:
        records = client.run_bursts(bursts or SMOKE_BURSTS[workload])
    finally:
        if instrumentation is not None:
            instrumentation.remove()
    return setup, records, before, setup.server.metrics_snapshot()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_engaged(workload, oracle):
    setup, records, before, after = _run(workload, seed=3)
    assert records and all(r.ok for r in records)
    assert check_answers(setup, records, oracle) == []
    assert engagement(workload, setup.server, before, after, records) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops_sim_metrics_and_counts(workload):
    runs = [_run(workload, seed=5, bursts=8) for _ in range(2)]
    (_, a, _, snap_a), (_, b, _, snap_b) = runs
    assert [r.op.key() for r in a] == [r.op.key() for r in b]
    sim = [[r.result.latency_ms if r.op.kind != "flush" else r.result.transfer_ms
            for r in recs] for recs in (a, b)]
    assert sim[0] == sim[1]
    assert {c: counter(snap_a, c) for c in COUNTS} == {c: counter(snap_b, c) for c in COUNTS}
    _, other, _, _ = _run(workload, seed=6, bursts=8)
    assert [r.op.key() for r in other] != [r.op.key() for r in a]


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, "parent", 0, 100, None, 0, 1),
        Span(1, "a", 10, 40, 0, 0, 1),
        Span(2, "b", 30, 60, 0, 0, 2),  # overlaps a on another thread
        Span(3, "c", 80, 90, 0, 0, 1),
        Span(4, "grandchild", 12, 20, 1, 0, 1),
    ]
    assert self_times_ns(spans) == {0: 40, 1: 22, 2: 30, 3: 10, 4: 8}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_invariants(workload, tmp_path):
    from repro.serving.scheduler import QueryServer

    original = QueryServer.drain
    tracer = Tracer()
    _, records, _, _ = _run(workload, seed=4, bursts=6, tracer=tracer)
    assert QueryServer.drain is original
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    names = {s.name for s in spans}
    assert {"burst", "scheduler.drain", "streaming.plan"} <= names
    for s in spans:
        assert s.end_ns >= s.start_ns
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start_ns <= s.start_ns and s.end_ns <= parent.end_ns, (s, parent)
    assert all(t >= 0 for t in self_times_ns(spans).values())
    # One request id per op: every span carries the id of a traced op, and
    # in one-op bursts every span of the burst carries that op's id.
    rids = {r.rid for r in records}
    assert {s.rid for s in spans} <= rids
    for burst in (s for s in spans if s.name == "burst" and s.attrs["ops"] == 1):
        inside = [s for s in spans if s.start_ns >= burst.start_ns
                  and s.end_ns <= burst.end_ns and s.tid == burst.tid]
        assert {s.rid for s in inside} == {burst.rid}
    ops = [s for s in spans if s.name.startswith("op.")]
    assert sorted(s.rid for s in ops) == sorted(rids)

    path = tmp_path / "trace.json"
    write_chrome_trace(spans, str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == len(spans)
    for e in events:
        assert e["ph"] == "X" and e["dur"] >= 0 and e["ts"] >= 0
        assert {"name", "pid", "tid", "args"} <= e.keys()


def test_fails_without_the_repository_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "ssb-flights",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_catalog_declares_every_emitted_metric_once():
    from bench_metrics import device_ledger, end_to_end, per_layer, series_counts

    with open(os.path.join(HERE, "catalog.json")) as fh:
        catalog = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    setup = build("ssb-flights", 1, scale_factor=TINY_SF)
    server = setup.server
    tracer = Tracer()
    client = Client(setup, tracer)
    tracer.current_rid = client.current_rid
    before, ledger, series = server.metrics_snapshot(), device_ledger(server), series_counts(server)
    instrumentation = Instrumentation(tracer).install()
    try:
        records = client.run_bursts(2)
    finally:
        instrumentation.remove()
    emitted = per_layer(server, tracer.spans, records, before, server.metrics_snapshot(),
                        ledger, device_ledger(server), series, 1.0)
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in catalog[section]]
        assert len(names) == len(set(names))
        assert names == [m["name"] for m in bench[section]]
        assert all(m["unit"] == b["unit"] and m["better"] == b["better"]
                   for m, b in zip(catalog[section], bench[section]))
    e2e = end_to_end(setup, records, 1.0, [1.0])
    for section, metrics in (("end_to_end", e2e), ("per_layer", emitted)):
        assert list(metrics) == [m["name"] for m in catalog[section]]
        assert all(metrics[m["name"]][1] == m["unit"] for m in catalog[section])
    assert [w["name"] for w in catalog["workloads"]] == list(WORKLOADS)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
