"""Fault-injected serving: retries, quarantine, streaming propagation.

Exercises the :class:`~repro.serving.QueryServer` degradation contract:
transient decode failures are retried with simulated backoff, corrupt
cached images are re-decoded from the compressed source, persistently
corrupt columns are quarantined with structured errors and metrics —
and the engine, pool, and scheduler all stay consistent throughout.

Every test builds its own store (``load_lineorder`` is cheap at the test
scale) so injected corruption never leaks into the session-scoped
fixtures other test files share.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.engine.crystal import CrystalEngine
from repro.engine.ssb_queries import QUERIES
from repro.formats import CorruptTileError, set_checksums, set_verify_mode
from repro.serving import FaultInjector, QueryServer
from repro.serving.scheduler import ServeRequest
from repro.ssb.loader import load_lineorder


@pytest.fixture(autouse=True)
def _hardened():
    prev_checks = set_checksums(True)
    prev_mode = set_verify_mode("lazy")
    yield
    set_checksums(prev_checks)
    set_verify_mode(prev_mode)


@pytest.fixture
def store(ssb_db):
    """A fresh gpu-star store this test may corrupt freely."""
    return load_lineorder(ssb_db, "gpu-star")


def test_transient_fault_retried_to_success(ssb_db, store):
    server = QueryServer(ssb_db, store, max_retries=2)
    injector = FaultInjector(seed=3)
    server.engine.fault_hook = injector.transient_faults(
        columns=["lo_discount"], times=1
    )
    result = server.serve([ServeRequest("query", "q1.1")])[0]
    assert result.ok
    snap = server.metrics_snapshot()
    assert snap.get("server_transient_retries", 0) >= 1
    assert snap.get("server_quarantines", 0) == 0
    # Backoff shows up in the group's simulated execution time.
    assert result.execute_ms > 0


def test_transient_fault_exhausts_retries(ssb_db, store):
    server = QueryServer(ssb_db, store, max_retries=1)
    injector = FaultInjector(seed=3)
    server.engine.fault_hook = injector.transient_faults(
        columns=["lo_discount"], times=10
    )
    result = server.serve([ServeRequest("query", "q1.1")])[0]
    assert result.status == "error"
    assert "transient" in result.error
    snap = server.metrics_snapshot()
    assert snap.get("server_transient_failures", 0) >= 1
    # Other queries on healthy columns still serve.
    ok = server.serve([ServeRequest("query", "q2.1")])[0]
    assert ok.ok


def test_persistent_corruption_quarantined(ssb_db, store):
    injector = FaultInjector(seed=5)
    injector.corrupt(store["lo_discount"].payload, "payload-bit")
    server = QueryServer(ssb_db, store)

    first = server.serve([ServeRequest("query", "q1.1")])[0]
    assert first.status == "error"
    assert "lo_discount" in first.error
    snap = server.metrics_snapshot()
    assert snap.get("server_checksum_failures", 0) >= 2  # decode + re-decode
    assert snap.get("server_corruption_redecodes", 0) == 1
    assert snap.get("server_quarantines", 0) == 1
    assert server.quarantined_columns() == {
        "lo_discount": first.error.split(": ", 1)[1]
    } or "lo_discount" in server.quarantined_columns()

    # Second request: rejected at admission to the engine, not re-run.
    second = server.serve([ServeRequest("query", "q1.1")])[0]
    assert second.status == "error"
    assert "quarantined" in second.error
    assert server.metrics_snapshot().get("server_quarantine_rejections", 0) >= 1

    # Queries not touching the quarantined column are unaffected.
    healthy = server.serve([ServeRequest("query", "q2.1")])[0]
    assert healthy.ok

    # Releasing the quarantine re-opens the column (still corrupt, so it
    # re-quarantines — but the gate itself lifted).
    assert server.release_quarantine("lo_discount")
    assert not server.release_quarantine("lo_discount")


def test_quarantine_blocks_lookups_too(ssb_db, store):
    injector = FaultInjector(seed=5)
    injector.corrupt(store["lo_discount"].payload, "payload-bit")
    server = QueryServer(ssb_db, store)
    server.serve([ServeRequest("query", "q1.1")])
    res = server.serve(
        [ServeRequest("lookup", "lo_discount", indices=np.arange(8))]
    )[0]
    assert res.status == "error"
    assert "quarantined" in res.error


def test_verify_cached_redecodes_corrupt_image(ssb_db, store):
    server = QueryServer(ssb_db, store, verify_cached=True)
    injector = FaultInjector(seed=11)
    clean = server.serve([ServeRequest("query", "q1.1")])[0]
    assert clean.ok
    # Flip a bit in a pool-resident decoded image.
    target = next(
        c for c in QUERIES["q1.1"].columns
        if server.pool.get(f"decoded/{c}") is not None
    )
    injector.flip_decoded_bit(server.pool.get(f"decoded/{target}").payload)
    again = server.serve([ServeRequest("query", "q1.1")])[0]
    assert again.ok
    assert server.metrics_snapshot().get("decoded_image_refreshes", 0) >= 1
    assert again.groups == clean.groups


def test_streaming_corruption_surfaces_morsel_span(ssb_db, store):
    injector = FaultInjector(seed=7)
    injector.corrupt(store["lo_discount"].payload, "payload-bit")
    engine = CrystalEngine(ssb_db, store, streaming=True)
    with pytest.raises(CorruptTileError, match="morsel") as excinfo:
        engine.run(QUERIES["q1.1"])
    assert excinfo.value.column == "lo_discount"
    assert excinfo.value.tile_id >= 0 or "metadata" in str(excinfo.value)


def test_streaming_server_records_morsel_failures(ssb_db, store):
    injector = FaultInjector(seed=7)
    injector.corrupt(store["lo_discount"].payload, "payload-bit")
    # Failures count whatever the deprecated stream_workers keyword says.
    for kwargs in ({}, {"stream_workers": 1}):
        server = QueryServer(ssb_db, store, streaming=True, **kwargs)
        result = server.serve([ServeRequest("query", "q1.1")])[0]
        assert result.status == "error", kwargs
        snap = server.metrics_snapshot()
        assert snap.get("streaming_morsel_failures", 0) >= 1, kwargs
        assert snap.get("server_quarantines", 0) == 1, kwargs


def test_concurrent_corruption_storm_pool_consistent(ssb_db, store):
    """Many threads, several corrupt columns: every future resolves, pin
    counts return to zero, and the pool budget holds."""
    injector = FaultInjector(seed=13)
    for column in ("lo_discount", "lo_supplycost"):
        injector.corrupt(store[column].payload, "payload-bit")
    budget = store.total_bytes + 64 * ssb_db.num_lineorder_rows
    server = QueryServer(ssb_db, store, budget_bytes=budget, max_queue=128)
    server.start()
    names = ["q1.1", "q2.1", "q3.1", "q4.1"] * 6  # q4.1 hits lo_supplycost
    futures, lock = [], threading.Lock()

    def submit(name):
        fut = server.submit(ServeRequest("query", name), block_s=5.0)
        with lock:
            futures.append(fut)

    threads = [threading.Thread(target=submit, args=(n,)) for n in names]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    results = [f.result(timeout=30) for f in futures]
    server.stop()

    assert len(results) == len(names)
    assert all(r.status in ("ok", "error", "timeout") for r in results)
    assert any(r.ok for r in results)  # healthy queries still served
    errors = [r for r in results if r.status == "error"]
    assert errors and all(
        "quarantined" in r.error or "corrupt" in r.error for r in errors
    )
    # Pool consistency: nothing left pinned, budget respected.
    for key in server.pool.resident_keys:
        resident = server.pool.lookup(key)
        assert resident.pin_count == 0, f"{key} left pinned"
    assert server.pool.resident_bytes <= budget
    quarantined = server.quarantined_columns()
    assert set(quarantined) <= {"lo_discount", "lo_supplycost"}
    assert quarantined


def test_invalid_constructor_args(ssb_db, store):
    with pytest.raises(ValueError):
        QueryServer(ssb_db, store, max_retries=-1)
