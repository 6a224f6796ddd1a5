"""Workloads, set-up and the closed-loop client of the serving benchmark.

Every workload serves the ``gpu-star`` store of SSB at scale factor 0.1
(600,032 lineorder rows, dbgen seed 7) through one streaming
:class:`~repro.serving.scheduler.QueryServer`, driven by one client thread
through the server's public API: ``query`` with declarative specs compiled
by the attached :class:`~repro.query.compiler.QueryCompiler`, ``lookup``,
and ``drain`` (no scheduler thread, so the client drains its own bursts).

The request stream of a run is drawn only from the seed; the server sees
nothing but the generated requests.  A *burst* is a list of ops submitted
together and then drained; the next burst starts once every answer of the
previous one is back (a closed loop with one client).
"""

from __future__ import annotations

import gc
import importlib.util
import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.updates import UpdatableColumn
from repro.engine.predicates import Equals, InSet, Range
from repro.query.compiler import QueryCompiler
from repro.query.model import Query
from repro.query.ssb import SSB_SPECS, ssb_model
from repro.serving.scheduler import QueryServer
from repro.serving.tiering import TieringPolicy
from repro.ssb.dbgen import generate, sort_lineorder_by
from repro.ssb.loader import load_lineorder

ROOT = Path(__file__).resolve().parent.parent

SCALE_FACTOR = 0.1
DBGEN_SEED = 7
SYSTEM = "gpu-star"
#: Lineorder columns; raw user data is rows x 14 int32 columns.
NUM_COLUMNS = 14
#: Each flight contributes this many seeded variants to an ssb-flights run:
#: literals vary with the seed while the numpy oracle stays affordable.
VARIANTS_PER_FLIGHT = 2
#: Dashboard shape: panels and lookup batches per refresh.
PANELS_PER_REFRESH = 5
LOOKUPS_PER_REFRESH = 2
LOOKUP_COLUMNS = ("lo_revenue", "lo_extendedprice", "lo_quantity")
#: Indices per lookup batch: 768..1280, 1024 on average.  Sizes vary so
#: that lookups served from a pinned image do not all cost one identical
#: simulated time.
LOOKUP_SIZES = (768, 1280)
USERS = 4
#: The mix's composition is fixed and only its literals come from the seed,
#: so runs with different seeds do the same kinds of work: users take turns,
#: every DRIFT_EVERY-th refresh moves its user to a fresh date focus, and
#: every WIDE_EVERY-th refresh swaps its last panel for a flight 2-4 panel.
DRIFT_EVERY = 5
WIDE_EVERY = 4
#: Flight shapes of the dashboard's flight 2-4 panels.
WIDE_FLIGHTS = ("q2.1", "q3.1", "q4.1")
#: ingest-refresh: every WRITE_EVERY-th op flushes UPDATE_ROWS updates.
WRITE_EVERY = 10
UPDATE_ROWS = 256
UPDATED_COLUMN = "lo_extendedprice"
#: Tier maintenance interval on the serving clock.  The default policy's
#: 25 ms assumes a busier simulated clock: here ops advance it by roughly
#: 1 ms per host second, so the default would leave the whole timed phase
#: without a maintenance pass and flushed columns would never move tier.
TIERING_INTERVAL_MS = 2.0
#: ingest-refresh warms up until this many maintenance passes ran: the first
#: two re-encode most columns at once, later ones move one to three.
WARMUP_TIERING_PASSES = 2

WORKLOADS = ("ssb-flights", "dashboard-refresh", "ingest-refresh")
#: A timed phase runs at least this many ops, so that at least ten lie
#: beyond its 90th percentile even when the host is slow.
MIN_OPS = 100


@dataclass
class Op:
    """One op: a query spec, a lookup batch or an update flush."""

    kind: str  # "query" | "lookup" | "flush"
    spec: Query | None = None
    column: str = ""
    indices: np.ndarray | None = None
    values: np.ndarray | None = None

    def key(self) -> tuple:
        """Identity used to compare op sequences across runs."""
        if self.kind == "query":
            return ("query", self.spec.name, self.spec.spec_key())
        return (self.kind, self.column, self.indices.tobytes(),
                None if self.values is None else self.values.tobytes())


# -- request streams -------------------------------------------------------------


def _vary(pred, rng: np.random.Generator, model):
    """Redraw one flight filter's literal inside its attribute's domain."""
    col = pred.column
    attr = model.attribute(col)
    if col == "d_yearmonthnum":
        year, month = int(rng.integers(1992, 1998)), int(rng.integers(1, 13))
        if isinstance(pred, Range):  # keep the window's width
            width = pred.hi - pred.lo
            return Range(col, year * 100 + 1, year * 100 + 1 + width)
        return Equals(col, year * 100 + month)
    if col == "d_weeknuminyear":
        return Equals(col, int(rng.integers(1, 53)))
    if attr is None or attr.table == "lineorder" or not attr.domain or col.endswith("_city"):
        # Fact-column ranges keep their selectivity.  City pairs stay as
        # written: most random pairs match no supplier at SF 0.1, which
        # would turn the flight into a no-op on some seeds only.
        return pred
    lo, n = attr.base, attr.domain
    if isinstance(pred, Equals):
        return Equals(col, lo + int(rng.integers(0, n)))
    if isinstance(pred, InSet):
        pick = rng.choice(n, size=len(pred.values), replace=False)
        return InSet(col, tuple(lo + int(v) for v in pick))
    if isinstance(pred, Range) and col != "d_year":
        width = pred.hi - pred.lo
        start = lo + int(rng.integers(0, n - width))
        return Range(col, start, start + width)
    return pred


def flight_pool(rng: np.random.Generator) -> list[Query]:
    """VARIANTS_PER_FLIGHT seeded variants of each of the 13 SSB flights."""
    model = ssb_model()
    pool = []
    for name, spec in SSB_SPECS.items():
        for v in range(VARIANTS_PER_FLIGHT):
            filters = tuple(_vary(p, rng, model) for p in spec.filters)
            pool.append(Query(f"{name}.v{v}", spec.measures, filters, spec.group_by))
    return pool


def ssb_stream(rng: np.random.Generator):
    """Closed loop, one query in flight: the pool in seeded shuffled rounds."""
    pool = flight_pool(rng)
    while True:
        for i in rng.permutation(len(pool)):
            yield [Op("query", spec=pool[i])]


def _flight1(name: str, date_filters: tuple, disc: tuple, qty: tuple) -> Query:
    return Query(
        name,
        measures=("revenue_disc",),
        filters=date_filters + (Range("lo_discount", *disc), Range("lo_quantity", *qty)),
    )


def _panels(focus: dict, wide: Query | None) -> list[Query]:
    """One refresh's panels for a user's date focus (flight-1 shaped)."""
    y, m, w = focus["year"], focus["month"], focus["week"]
    q0 = (m - 1) // 3 * 3 + 1
    tag = f"{y}-{m:02d}-w{w}"
    panels = [
        _flight1(f"year@{tag}", (Equals("d_year", y),), (1, 3), (0, 24)),
        _flight1(f"quarter@{tag}",
                 (Range("d_yearmonthnum", y * 100 + q0, y * 100 + q0 + 2),),
                 (1, 3), (0, 24)),
        _flight1(f"month@{tag}", (Equals("d_yearmonthnum", y * 100 + m),),
                 (4, 6), (26, 35)),
        _flight1(f"week@{tag}",
                 (Equals("d_weeknuminyear", w), Equals("d_year", y)),
                 (5, 7), (36, 40)),
    ]
    if wide is not None:
        panels.append(wide)
    else:
        panels.append(_flight1(f"month-drill@{tag}",
                               (Equals("d_yearmonthnum", y * 100 + m),),
                               (1, 3), (0, 24)))
    return panels[:PANELS_PER_REFRESH]


def _new_focus(rng: np.random.Generator, focus: list[dict]) -> dict:
    """A date focus in a year no other user is looking at.

    Users never share a year, so which panels repeat (and hit the semantic
    cache) depends on the refresh order alone, not on seeded coincidences.
    """
    taken = {f["year"] for f in focus}
    years = [y for y in range(1992, 1998) if y not in taken]
    return {
        "year": years[int(rng.integers(0, len(years)))],
        "month": int(rng.integers(1, 13)),
        "week": int(rng.integers(1, 53)),
    }


def wide_pool(rng: np.random.Generator) -> list[Query]:
    """The run's flight 2-4 panels: one seeded variant of each WIDE_FLIGHTS."""
    model = ssb_model()
    return [
        Query(f"{name}.panel", SSB_SPECS[name].measures,
              tuple(_vary(p, rng, model) for p in SSB_SPECS[name].filters),
              SSB_SPECS[name].group_by)
        for name in WIDE_FLIGHTS
    ]


def refresh_stream(rng: np.random.Generator, num_rows: int, wide: list[Query]):
    """Dashboard refreshes: lookup batches, then panels for one user's focus.

    A refresh's lookup batches read one column, rotating over
    LOOKUP_COLUMNS, so the scheduler coalesces them into one gather.  They
    are submitted first: every op's latency then includes that gather, which
    keeps the median op off the steep step between cheap cached panels and
    the far costlier gather.
    """
    focus: list[dict] = []
    for _ in range(USERS):
        focus.append(_new_focus(rng, focus))
    for k in itertools.count():
        user = k % USERS
        if k and k % DRIFT_EVERY == 0:
            focus[user] = _new_focus(rng, focus[:user] + focus[user + 1:])
        extra = wide[k // WIDE_EVERY % len(wide)] if k % WIDE_EVERY == 0 else None
        column = LOOKUP_COLUMNS[k % len(LOOKUP_COLUMNS)]
        burst = [
            Op("lookup", column=column, indices=rng.integers(
                0, num_rows, int(rng.integers(LOOKUP_SIZES[0], LOOKUP_SIZES[1] + 1))))
            for _ in range(LOOKUPS_PER_REFRESH)
        ]
        yield burst + [Op("query", spec=s) for s in _panels(focus[user], extra)]


def ingest_stream(rng: np.random.Generator, num_rows: int, wide: list[Query],
                  lo: int, hi: int):
    """The dashboard mix one op at a time, with every N-th op a flush."""
    n = 0
    for burst in refresh_stream(rng, num_rows, wide):
        for op in burst:
            n += 1
            if n % WRITE_EVERY == 0:
                yield [Op("flush", column=UPDATED_COLUMN,
                          indices=rng.choice(num_rows, UPDATE_ROWS, replace=False),
                          values=rng.integers(lo, hi + 1, UPDATE_ROWS))]
            yield [op]


# -- set-up ------------------------------------------------------------------------


@dataclass
class Setup:
    db: object
    store: object
    server: QueryServer
    stream: object
    ucol: UpdatableColumn | None = None
    #: (indices, values) of every flush, in order: version k is the column
    #: after the first k flushes.
    flushes: list = field(default_factory=list)
    setup_s: float = 0.0


def spec_fact_columns(spec: Query, model) -> set[str]:
    """Lineorder columns a spec reads (measures, filters, join keys)."""
    cols = set()
    for m in spec.measures:
        cols.update(model.measures[m].fact_columns())
    for name in [p.column for p in spec.filters] + list(spec.group_by):
        attr = model.attribute(name)
        if attr is None or attr.table == "lineorder":
            cols.add(name)
        else:
            cols.add(model.join_for(attr.table).fact_key)
    return cols


def _pool_budget(store, specs: list[Query], model, shards: int) -> int:
    """Per-shard pool bytes: below the mix's columns, above any one request.

    Halfway between the largest single request's compressed columns and
    the union of every column the mix touches, so the pool must evict and
    re-stage while no request is ever refused.
    """

    def nbytes(cols) -> int:
        return sum(store[c].nbytes for c in cols) // shards

    per_request = [spec_fact_columns(s, model) for s in specs]
    per_request += [{c} for c in LOOKUP_COLUMNS]
    single = max(nbytes(c) for c in per_request)
    union = nbytes(set().union(*per_request))
    return single + (union - single) // 2


def build(workload: str, seed: int, scale_factor: float = SCALE_FACTOR) -> Setup:
    """Generate, load, build the server and run the untimed warm-up.

    ``scale_factor`` other than the default is for the self-tests' smoke runs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    db = generate(scale_factor, seed=DBGEN_SEED)
    if workload != "ssb-flights":
        db = sort_lineorder_by(db, "lo_orderdate")
    store = load_lineorder(db, SYSTEM)
    model = ssb_model()
    compiler = QueryCompiler(model, db, store)
    rows = db.num_lineorder_rows
    ucol = None
    if workload == "ssb-flights":
        server = QueryServer(db, store, streaming=True, stream_workers=2,
                             compiler=compiler)
        stream = ssb_stream(rng)
        warmup = [[Op("query", spec=SSB_SPECS["q1.1"])],
                  [Op("query", spec=SSB_SPECS["q4.1"])]]
    elif workload == "dashboard-refresh":
        wide = wide_pool(rng)
        specs = wide + _panels({"year": 1993, "month": 1, "week": 1}, None)
        server = QueryServer(
            db, store, streaming=True, num_shards=2, stream_workers=1,
            semantic_cache=True, morsel_tiles=2, compiler=compiler,
            budget_bytes=_pool_budget(store, specs, model, shards=2),
        )
        stream = refresh_stream(rng, rows, wide)
        warmup = [next(stream) for _ in range(2)]
    else:
        # One worker runs morsels inline on the client thread, so the loop
        # is single-threaded and no op waits on a morsel thread that a
        # shared host has preempted.
        server = QueryServer(db, store, streaming=True, stream_workers=1,
                             semantic_cache=True, compiler=compiler,
                             # Simulated time per op scales with the rows, so
                             # the interval does too: passes come as often
                             # per op at the smoke tests' tiny scale.
                             tiering=TieringPolicy(maintenance_interval_ms=(
                                 TIERING_INTERVAL_MS * scale_factor / SCALE_FACTOR)))
        values = db.lineorder[UPDATED_COLUMN]
        ucol = UpdatableColumn(values)
        server.engine.bind_updatable(UPDATED_COLUMN, ucol)
        stream = ingest_stream(rng, rows, wide_pool(rng),
                               int(values.min()), int(values.max()))
        warmup = [next(stream) for _ in range(2 * WRITE_EVERY)]
    setup = Setup(db, store, server, stream, ucol)
    client = Client(setup)
    for burst in warmup:
        client.run_burst(burst)
    if server.tiering is not None:
        # Tiering's first passes re-encode most columns; finish them here
        # rather than in the timed phase.
        for _ in range(20 * WRITE_EVERY):
            if server.metrics_snapshot().get("tiering_runs", 0) >= WARMUP_TIERING_PASSES:
                break
            client.run_burst(next(stream))
    setup.setup_s = time.perf_counter() - t0
    return setup


def build_repeated(workload: str, seed: int, repeats: int) -> tuple[Setup, list[float]]:
    """Set up ``repeats`` times; keep the last set-up, return every time."""
    times = []
    for _ in range(repeats):
        setup = None  # free the previous set-up before building the next
        gc.collect()
        setup = build(workload, seed)
        times.append(setup.setup_s)
    return setup, times


# -- the closed-loop client ----------------------------------------------------------


@dataclass
class OpRecord:
    op: Op
    rid: int
    submit_ns: int
    submitted_ns: int = 0
    done_ns: int = 0
    #: When the server started on this op's group (host clock).
    group_start_ns: int = 0
    result: object = None
    error: str = ""
    #: Column version the answer must reflect (ingest-refresh).
    version: int = 0
    span: object = None

    @property
    def ok(self) -> bool:
        if self.error:
            return False
        return self.op.kind == "flush" or self.result.status == "ok"

    @property
    def host_ms(self) -> float:
        return (self.done_ns - self.submit_ns) / 1e6


class Client:
    """Runs bursts against one set-up, recording each op's timeline."""

    def __init__(self, setup: Setup, tracer=None):
        self.setup = setup
        self.tracer = tracer
        self.next_rid = 0
        self._pending: list[OpRecord] = []
        self._first_ns: dict[int, int] = {}
        self._submitting: int | None = None

    def current_rid(self) -> int:
        """The op being submitted, else the burst's oldest unanswered op."""
        if self._submitting is not None:
            return self._submitting
        for rec in self._pending:
            if not rec.done_ns:
                return rec.rid
        return self._pending[-1].rid if self._pending else -1

    def _on_done(self, rec: OpRecord):
        def callback(_future) -> None:
            rec.done_ns = time.perf_counter_ns()
            nxt = next((r.rid for r in self._pending if not r.done_ns), None)
            if nxt is not None:
                self._first_ns.setdefault(nxt, rec.done_ns)
        return callback

    def run_burst(self, burst: list[Op]) -> list[OpRecord]:
        server = self.setup.server
        tracer = self.tracer
        records = []
        self._pending = records
        self._first_ns = {}
        burst_span = None
        if tracer is not None:
            burst_span = tracer.open("burst", rid=self.next_rid, ops=len(burst))
        futures = []
        for op in burst:
            rec = OpRecord(op, self.next_rid, time.perf_counter_ns(),
                           version=len(self.setup.flushes))
            self.next_rid += 1
            records.append(rec)
            if op.kind == "flush":
                futures.append(None)
                self._flush(rec)
                continue
            op_span = None
            if tracer is not None:
                op_span = tracer.open(f"op.{op.kind}", rid=rec.rid)
            self._submitting = rec.rid
            try:
                if op.kind == "query":
                    future = server.query(op.spec)
                else:
                    future = server.lookup(op.column, op.indices)
            except Exception as exc:  # counted as a failed op
                rec.error = f"{type(exc).__name__}: {exc}"
                rec.done_ns = time.perf_counter_ns()
                future = None
            self._submitting = None
            rec.submitted_ns = time.perf_counter_ns()
            if op_span is not None:
                tracer.close(op_span)
                # The op's span runs from submit to answer; submit-time
                # children (compile, admission) hang off it.
                op_span.attrs["submit_ms"] = (rec.submitted_ns - rec.submit_ns) / 1e6
            rec.span = op_span
            if future is not None:
                future.add_done_callback(self._on_done(rec))
            futures.append(future)
        if any(f is not None for f in futures):
            drain_ns = time.perf_counter_ns()
            first = self.current_rid()
            try:
                server.drain()
            except Exception as exc:
                for rec, fut in zip(records, futures):
                    if fut is not None and not fut.done():
                        rec.error = f"{type(exc).__name__}: {exc}"
                        rec.done_ns = time.perf_counter_ns()
            self._first_ns[first] = max(self._first_ns.get(first, 0), drain_ns)
        for rec, fut in zip(records, futures):
            if fut is None:
                continue
            if not rec.error:
                rec.result = fut.result()
            # Requests with one batch key in one burst run as one group,
            # which starts when its first member becomes the oldest
            # unanswered op (or when the drain starts).
            rep = rec
            if rec.result is not None:
                key = rec.result.request.batch_key
                rep = next(r for r in records if r.result is not None
                           and r.result.request.batch_key == key)
            start = self._first_ns.get(rep.rid, rec.submitted_ns)
            rec.group_start_ns = max(start, rec.submitted_ns)
            if tracer is not None and rec.span is not None:
                rec.span.end_ns = rec.done_ns
        if tracer is not None:
            tracer.close(burst_span)
        self._pending = []
        return records

    def _flush(self, rec: OpRecord) -> None:
        op, setup = rec.op, self.setup
        span = None
        if self.tracer is not None:
            span = self.tracer.open("op.flush", rid=rec.rid)
        self._submitting = rec.rid
        try:
            setup.ucol.update_many(op.indices, op.values)
            rec.result = setup.ucol.flush(setup.server.device)
            setup.flushes.append((op.indices, op.values))
        except Exception as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
        finally:
            self._submitting = None
            rec.done_ns = rec.submitted_ns = rec.group_start_ns = time.perf_counter_ns()
            if span is not None:
                self.tracer.close(span)

    def run_for(self, seconds: float) -> tuple[list[OpRecord], float]:
        """Closed loop until ``seconds`` of host time pass and MIN_OPS ops ran."""
        records: list[OpRecord] = []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds or len(records) < MIN_OPS:
            records.extend(self.run_burst(next(self.setup.stream)))
        return records, time.perf_counter() - t0

    def run_bursts(self, count: int) -> list[OpRecord]:
        """Exactly ``count`` bursts (for deterministic self-tests)."""
        records: list[OpRecord] = []
        for _ in range(count):
            records.extend(self.run_burst(next(self.setup.stream)))
        return records


def load_oracle():
    """The repository's independent numpy oracle (``tests/query_oracle.py``)."""
    path = ROOT / "tests" / "query_oracle.py"
    spec = importlib.util.spec_from_file_location("e2ebench_query_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
