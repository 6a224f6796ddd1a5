"""Golden simulated-cost snapshot: every system × every SSB flight.

Pins what the cost model charges for each of the paper's six systems on
each of the 13 hand-planned SSB flights over the shared SF 0.01
database: simulated milliseconds (12 significant digits), the number of
kernels launched, and the answer.  Each cell is one query on a fresh
engine.  An executor refactor that should not change the modeled GPU
work must leave this file byte-for-byte intact.

Regenerate intentionally with::

    REPRO_UPDATE_SNAPSHOTS=1 PYTHONPATH=src python -m pytest tests/test_cost_snapshot.py
"""

from __future__ import annotations

import difflib
import json
import os
from pathlib import Path

import pytest

from repro.engine.crystal import CrystalEngine
from repro.engine.ssb_queries import QUERIES
from repro.ssb.loader import SYSTEMS, load_lineorder

SNAPSHOT = Path(__file__).parent / "snapshots" / "cost_model.json"
UPDATE = os.environ.get("REPRO_UPDATE_SNAPSHOTS") == "1"


def _record(result) -> dict:
    return {
        "simulated_ms": float(f"{result.simulated_ms:.12g}"),
        "kernel_count": int(result.kernel_count),
        "answer": {str(k): int(v) for k, v in sorted(result.groups.items())},
    }


def _render(costs: dict[str, dict[str, dict]]) -> str:
    """One JSON line per (system, query): diffs name the cell that moved."""
    lines = ["{"]
    for i, (system, queries) in enumerate(costs.items()):
        lines.append(f"  {json.dumps(system)}: {{")
        for j, (name, record) in enumerate(queries.items()):
            sep = "," if j < len(queries) - 1 else ""
            lines.append(
                f"    {json.dumps(name)}: {json.dumps(record, sort_keys=True)}{sep}"
            )
        lines.append("  }," if i < len(costs) - 1 else "  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def stores(ssb_db):
    return {system: load_lineorder(ssb_db, system) for system in SYSTEMS}


@pytest.fixture(scope="module")
def costs(ssb_db, stores) -> dict[str, dict[str, dict]]:
    return {
        system: {
            name: _record(CrystalEngine(ssb_db, store).run(q))
            for name, q in QUERIES.items()
        }
        for system, store in stores.items()
    }


def test_cost_model_snapshot(costs):
    rendered = _render(costs)
    if UPDATE or not SNAPSHOT.exists():
        SNAPSHOT.write_text(rendered, encoding="utf-8")
        if not UPDATE:
            pytest.fail(f"{SNAPSHOT.name} did not exist and was created; commit it")
        return
    expected = SNAPSHOT.read_text(encoding="utf-8")
    if rendered != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                rendered.splitlines(keepends=True),
                fromfile=f"snapshots/{SNAPSHOT.name} (committed)",
                tofile=f"snapshots/{SNAPSHOT.name} (run now)",
            )
        )
        pytest.fail(
            f"simulated cost changed:\n{diff}\n"
            f"If intentional, regenerate with REPRO_UPDATE_SNAPSHOTS=1."
        )


def test_snapshot_covers_every_system_and_flight(costs):
    snap = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    assert list(snap) == list(SYSTEMS)
    for system in SYSTEMS:
        assert list(snap[system]) == list(QUERIES)
    # Every system computes the same answers; only the cost differs.
    for name in QUERIES:
        answers = {json.dumps(costs[s][name]["answer"]) for s in SYSTEMS}
        assert len(answers) == 1, name


def test_cost_does_not_depend_on_engine_history(ssb_db, stores, costs):
    """One engine running the whole suite prices each flight as cold."""
    for system, store in stores.items():
        engine = CrystalEngine(ssb_db, store)
        for name, q in QUERIES.items():
            assert _record(engine.run(q)) == costs[system][name], (system, name)
