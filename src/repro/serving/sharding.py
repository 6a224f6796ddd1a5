"""Sharded multi-GPU serving: tile-range column shards behind one router.

The paper's SF=20 evaluation (120M lineorder rows) does not fit one
simulated device at the budgets the serving layer enforces, and the §1
motivation is exactly this: working sets larger than one GPU shard
"between multiple GPUs", paying interconnect cost for result merging.
This module connects :class:`~repro.gpusim.multigpu.ShardedDevice` to the
serving stack:

* Every compressed column is partitioned **tile-range-wise** over ``N``
  simulated devices on codec-tile-aligned boundaries (no codec tile ever
  straddles two devices).  A :class:`ColumnShard` owns one contiguous
  engine-tile span: its own :class:`~repro.gpusim.executor.GPUDevice`,
  its own byte-budgeted :class:`~repro.serving.pool.ColumnPool`, a
  :class:`~repro.engine.crystal.CrystalEngine` view of the store, and a
  :class:`~repro.engine.streaming.TileStreamExecutor` restricted to the
  shard's tile span with its own decode arena.
* The :class:`ShardRouter` routes each query only to shards whose tile
  ranges survive zone-map pushdown of the query's declared predicate IR
  (:meth:`~repro.engine.crystal.CrystalEngine.surviving_tiles`), runs
  shard-local streaming execution concurrently, and scatter-gathers the
  per-shard partial aggregates through the executor's exact-integer
  ``merge_parts`` path — paying the modeled interconnect cost via
  :meth:`~repro.gpusim.multigpu.ShardedDevice.merge_results` — so
  answers are bit-identical to single-device execution at every shard
  count.
* Hot small columns can be **replicated**: pinned in full on every
  shard's pool, so point lookups against them never cross the
  interconnect.  Updates fan out: one
  :class:`~repro.core.updates.UpdatableColumn` flush invalidates every
  shard's caches, pool residents and semantic-cache epochs.

Per-shard resident bytes, queue depth, latency and routing skew all land
in the shared :class:`~repro.serving.metrics.MetricsRegistry` under
labeled keys (``shard_execute_ms{shard=2}`` …).
"""

from __future__ import annotations

import contextlib
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

# Not called here (lookups go through CrystalEngine.lookup_values); kept
# importable because e2ebench/bench_trace.py wraps ``gather`` by module.
from repro.core.random_access import gather  # noqa: F401
from repro.engine.crystal import TILE, CrystalEngine, SSBQuery
from repro.engine.streaming import TileStreamExecutor
from repro.formats.base import TileCodec
from repro.formats.registry import get_codec
from repro.gpusim.multigpu import ShardedDevice
from repro.gpusim.spec import GPUSpec
from repro.serving.metrics import MetricsRegistry
from repro.serving.pool import ColumnPool
from repro.serving.semcache import DEFAULT_SEMCACHE_BUDGET, SemanticResultCache
from repro.ssb.dbgen import SSBDatabase
from repro.ssb.loader import ColumnStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.updates import UpdatableColumn

__all__ = ["ColumnShard", "ShardRouter", "codec_tile_alignment"]


def codec_tile_alignment(store: ColumnStore, columns=None) -> int:
    """Rows per legal shard boundary: the LCM of every codec tile size.

    Shard boundaries must land on every stored codec's tile grid (and on
    the engine's :data:`~repro.engine.crystal.TILE` grid), or a codec
    tile would straddle two devices and both would have to decode it.
    GPU-SIMDBP128's 4096-value blocks dominate in practice: mixed stores
    align to 4096 rows.
    """
    align = TILE
    names = columns if columns is not None else list(store.columns)
    for name in names:
        col = store[name]
        if not col.codec_name or col.payload is None:
            continue
        codec = get_codec(col.codec_name)
        if isinstance(codec, TileCodec):
            align = math.lcm(align, int(codec.tile_elements(col.payload)))
    return align


@dataclass
class ColumnShard:
    """One contiguous tile-range slice of the store on its own device."""

    index: int
    tile_lo: int
    tile_hi: int
    row_lo: int
    row_hi: int
    device: object
    pool: ColumnPool
    engine: CrystalEngine
    executor: TileStreamExecutor
    #: Serializes all access to the shard's (not thread-safe) device and
    #: executor: the router dispatches at most one query to a shard at a
    #: time, even when several callers share the router.
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Queries routed to this shard so far (routing-skew accounting).
    routed: int = 0
    #: Aggregate simulated device ms this shard has executed.
    busy_ms: float = 0.0

    @property
    def num_tiles(self) -> int:
        return self.tile_hi - self.tile_lo

    @property
    def num_rows(self) -> int:
        return self.row_hi - self.row_lo

    @property
    def empty(self) -> bool:
        return self.tile_hi <= self.tile_lo


@dataclass
class _ShardOutcome:
    """One shard's contribution to a routed query."""

    shard: int
    groups: dict[int, int]
    agg_ops: tuple[str, ...]
    device_ms: float
    wall_ms: float
    morsels: int


class ShardRouter:
    """Routes queries to tile-range shards and merges their partials.

    One router owns ``num_shards`` :class:`ColumnShard`\\ s over a single
    :class:`~repro.ssb.loader.ColumnStore`.  ``budget_bytes`` is the
    byte budget of **each** shard's pool (default: the device spec's
    global memory); ``replicate_columns`` are pinned in full on every
    shard.  The router itself is the serving layer's "device": its
    :attr:`elapsed_ms` is the simulated wall-clock of everything routed
    through it (slowest selected shard per query, plus interconnect
    merges), which a :class:`~repro.serving.scheduler.QueryServer` uses
    as its serving clock.  ``stream_workers`` is deprecated and, past its
    ``>= 1`` check, ignored: each shard runs its morsels on the thread
    that dispatches it.
    """

    def __init__(
        self,
        db: SSBDatabase,
        store: ColumnStore,
        num_shards: int,
        budget_bytes: int | None = None,
        metrics: MetricsRegistry | None = None,
        stream_workers: int = 1,
        morsel_tiles: int | None = None,
        interconnect_gbps: float = 50.0,
        spec: GPUSpec | None = None,
        pushdown: bool = True,
        verify_cached: bool = False,
        semantic_cache: bool = False,
        semcache_budget_bytes: int | None = None,
        replicate_columns: Iterable[str] = (),
        sharded: ShardedDevice | None = None,
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.db = db
        self.store = store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if sharded is None:
            kwargs = {"interconnect_gbps": interconnect_gbps}
            if spec is not None:
                kwargs["spec"] = spec
            sharded = ShardedDevice(num_shards, **kwargs)
        elif sharded.num_devices != num_shards:
            raise ValueError(
                f"sharded device has {sharded.num_devices} devices, "
                f"router wants {num_shards} shards"
            )
        self.sharded = sharded
        self.num_rows = db.num_lineorder_rows
        #: Rows per legal shard boundary (codec tile LCM).
        self.alignment = codec_tile_alignment(store)
        self.replicated = frozenset(replicate_columns)
        unknown = self.replicated - set(store.columns)
        if unknown:
            raise ValueError(f"cannot replicate unknown columns {sorted(unknown)}")
        per_shard_budget = (
            budget_bytes
            if budget_bytes is not None
            else sharded.spec.global_capacity_bytes
        )
        self.shards: list[ColumnShard] = []
        for i, (row_lo, row_hi) in enumerate(
            sharded.shard_bounds(self.num_rows, tile=self.alignment)
        ):
            tile_lo = row_lo // TILE
            tile_hi = -(-row_hi // TILE)
            pool = ColumnPool(
                per_shard_budget, metrics=self.metrics, metric_labels={"shard": i}
            )
            engine = CrystalEngine(
                db,
                store,
                device=sharded.devices[i],
                pool=pool,
                pushdown=pushdown,
                stream_workers=stream_workers,
                morsel_tiles=morsel_tiles,
            )
            engine.metrics = self.metrics
            engine.verify_cached = verify_cached
            if semantic_cache:
                engine.semcache = SemanticResultCache(
                    semcache_budget_bytes
                    if semcache_budget_bytes is not None
                    else DEFAULT_SEMCACHE_BUDGET,
                    metrics=self.metrics,
                )
            executor = TileStreamExecutor(
                engine,
                morsel_tiles=morsel_tiles,
                metrics=self.metrics,
                tile_span=(tile_lo, tile_hi),
            )
            # The engine's own streaming entry points (arena accounting,
            # idle trims) operate on the shard-scoped executor.
            engine._stream_executor = executor
            self.shards.append(
                ColumnShard(
                    index=i,
                    tile_lo=tile_lo,
                    tile_hi=tile_hi,
                    row_lo=row_lo,
                    row_hi=row_hi,
                    device=sharded.devices[i],
                    pool=pool,
                    engine=engine,
                    executor=executor,
                )
            )
        self._dispatch: ThreadPoolExecutor | None = None
        self._clock_lock = threading.Lock()
        self._elapsed_ms = 0.0
        self._inflight = [0] * num_shards
        #: Routing/merge details of the most recent :meth:`execute`.
        self.last_execution: dict = {}
        if self.replicated:
            self.place_columns(tuple(sorted(self.replicated)))

    # -- introspection -------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def elapsed_ms(self) -> float:
        """Simulated wall-clock of all work routed so far."""
        with self._clock_lock:
            return self._elapsed_ms

    @property
    def capacity_bytes(self) -> int:
        return self.sharded.capacity_bytes

    def _advance(self, ms: float) -> float:
        with self._clock_lock:
            self._elapsed_ms += ms
            return self._elapsed_ms

    def _nonempty(self) -> list[ColumnShard]:
        return [s for s in self.shards if not s.empty]

    # -- placement and replication -------------------------------------------

    def _shard_compressed_bytes(self, col, shard: ColumnShard) -> int:
        """This shard's slice of a column's compressed footprint.

        Rows-proportional with telescoping integer splits, so the shard
        shares always sum exactly to ``col.nbytes``.  Replicated columns
        are whole everywhere.
        """
        if col.name in self.replicated or self.num_rows == 0:
            return col.nbytes
        lo = col.nbytes * shard.row_lo // self.num_rows
        hi = col.nbytes * shard.row_hi // self.num_rows
        return hi - lo

    def place_columns(self, columns: tuple[str, ...]) -> float:
        """Stage columns' compressed slices into every shard's pool.

        Each shard admits (and pays PCIe transfer for) only its own tile
        range's share — replicated columns in full, pinned.  Returns the
        simulated wall-clock of the placement: shards transfer
        concurrently, so it is the slowest shard's transfer time.
        """
        wall_ms = 0.0
        for shard in self._nonempty():
            shard_ms = 0.0
            with shard.lock:
                for name in columns:
                    if shard.engine.pinned_decoded(name) is not None:
                        # Hot tier: the pinned decoded image serves every
                        # read on this shard — staging the compressed
                        # bytes would only burn PCIe and pool budget.
                        continue
                    col = self.store[name]
                    key = f"compressed/{name}"
                    if shard.pool.get(key) is not None:
                        continue
                    nbytes = self._shard_compressed_bytes(col, shard)
                    payload = col.payload
                    if payload is None and col.spill_path is not None:
                        payload = self.store.ensure_payload(name)
                    shard.pool.admit(
                        key,
                        nbytes,
                        kind="compressed",
                        payload=payload,
                        reconstruct_cost_ms=shard.device.spec.pcie.transfer_ms(
                            nbytes
                        ),
                        pin=name in self.replicated,
                    )
                    shard_ms += shard.device.transfer_to_device(nbytes)
                    if name in self.replicated:
                        self.metrics.inc(
                            "shard_replicated_bytes",
                            nbytes,
                            labels={"shard": shard.index},
                        )
            wall_ms = max(wall_ms, shard_ms)
        if wall_ms:
            self._advance(wall_ms)
        return wall_ms

    @contextlib.contextmanager
    def pinned(self, columns: tuple[str, ...]) -> Iterator[float]:
        """Place ``columns`` on every shard and pin them for the block.

        Yields the placement's simulated wall ms (0.0 on full pool hits).
        """
        place_ms = self.place_columns(columns)
        keys = tuple(f"compressed/{c}" for c in columns)
        with contextlib.ExitStack() as stack:
            for shard in self._nonempty():
                stack.enter_context(shard.pool.pinned(*keys))
            yield place_ms

    @contextlib.contextmanager
    def request_scope(self) -> Iterator[None]:
        """One request on every shard: each shard engine verifies a
        pinned decoded image at most once
        (:meth:`~repro.engine.crystal.CrystalEngine.request_scope`)."""
        with contextlib.ExitStack() as stack:
            for shard in self.shards:
                stack.enter_context(shard.engine.request_scope())
            yield

    # -- routing -------------------------------------------------------------

    def route(self, query: SSBQuery) -> list[ColumnShard]:
        """Shards whose tile ranges survive the query's predicate pushdown.

        Uses the declared predicate IR against the shared zone maps; a
        query with no declared predicate fans out to every shard.  At
        least one shard is always selected (the aggregate identity must
        come from somewhere), mirroring the single-device engine's
        behavior when pushdown prunes everything.
        """
        candidates = self._nonempty()
        if query.predicate is not None and candidates:
            surviving = candidates[0].engine.surviving_tiles(query.predicate)
            selected = [
                s for s in candidates if surviving[s.tile_lo : s.tile_hi].any()
            ]
        else:
            selected = list(candidates)
        if not selected:
            selected = candidates[:1]
        for shard in selected:
            shard.routed += 1
            self.metrics.inc("shard_queries", labels={"shard": shard.index})
        self.metrics.inc("router_queries")
        self.metrics.inc("router_shards_selected", len(selected))
        self._publish_skew()
        return selected

    def _publish_skew(self) -> None:
        """Routing skew: busiest shard's share over the fair share."""
        counts = [s.routed for s in self._nonempty()]
        total = sum(counts)
        if total and counts:
            skew = max(counts) * len(counts) / total
            self.metrics.gauge("router_routing_skew", skew)
        for shard in self.shards:
            self.metrics.gauge(
                "shard_routed_total", shard.routed, labels={"shard": shard.index}
            )

    # -- execution -----------------------------------------------------------

    def _run_shard(self, shard: ColumnShard, query: SSBQuery) -> _ShardOutcome:
        with shard.lock:
            self._inflight[shard.index] += 1
            self.metrics.gauge(
                "shard_queue_depth",
                self._inflight[shard.index],
                labels={"shard": shard.index},
            )
            t0 = time.perf_counter()
            before = shard.device.elapsed_ms
            try:
                engine, executor = shard.engine, shard.executor
                with engine.request_scope():
                    for name in query.columns:  # pin verdicts before the plan
                        engine.pinned_decoded(name)
                    # Cold-tier columns pay their unspill + cascade-decode
                    # prologue per shard, like the single-device engine.
                    engine.decompress_first(query.columns)
                    if engine.semcache is not None:
                        groups = engine.semcache.execute(engine, executor, query)
                    else:
                        groups = executor.execute(query)
                engine.last_stream_stats = executor.last_stats
            finally:
                self._inflight[shard.index] -= 1
                self.metrics.gauge(
                    "shard_queue_depth",
                    self._inflight[shard.index],
                    labels={"shard": shard.index},
                )
            device_ms = shard.device.elapsed_ms - before
            shard.busy_ms += device_ms
            stats = executor.last_stats
            return _ShardOutcome(
                shard=shard.index,
                groups=groups,
                agg_ops=tuple(stats.get("agg_ops", ())),
                device_ms=device_ms,
                wall_ms=(time.perf_counter() - t0) * 1e3,
                morsels=int(stats.get("morsels", 0)),
            )

    def _ensure_dispatch(self) -> ThreadPoolExecutor:
        if self._dispatch is None:
            self._dispatch = ThreadPoolExecutor(
                max_workers=max(1, self.num_shards), thread_name_prefix="shard"
            )
        return self._dispatch

    def execute(self, query: SSBQuery) -> tuple[dict[int, int], float]:
        """Run one query across its surviving shards; merge the partials.

        Returns ``(groups, wall_ms)``: the bit-identical merged answer
        and the simulated wall-clock — the slowest selected shard's
        device time plus the interconnect all-gather of the per-shard
        partials.  The router's :attr:`elapsed_ms` clock advances by the
        same amount.
        """
        selected = self.route(query)
        outcomes: list[_ShardOutcome | None] = [None] * len(selected)
        if len(selected) == 1:
            outcomes[0] = self._run_shard(selected[0], query)
        else:
            pool = self._ensure_dispatch()
            futures = [
                (shard, pool.submit(self._run_shard, shard, query))
                for shard in selected
            ]
            # Gather every future before raising, then surface the error
            # deterministically (lowest shard index), mirroring the
            # morsel executor's contract.
            errors: list[tuple[int, BaseException]] = []
            for pos, (shard, fut) in enumerate(futures):
                try:
                    outcomes[pos] = fut.result()
                except Exception as exc:
                    errors.append((shard.index, exc))
            if errors:
                self.metrics.inc("router_shard_failures", len(errors))
                errors.sort(key=lambda pair: pair[0])
                raise errors[0][1]
        parts = [(list(o.agg_ops), o.groups) for o in outcomes]
        if any(ops for ops, _ in parts):
            merged = TileStreamExecutor.merge_parts({}, parts)
        else:  # defensive: no aggregates recorded — single part passthrough
            merged = dict(outcomes[0].groups)
        merge_ms = 0.0
        if len(selected) > 1:
            # Ring all-gather of the per-shard partial aggregates: each
            # group entry is a (code, value) pair of 8-byte ints.
            partial_bytes = max(16 * max(1, len(o.groups)) for o in outcomes)
            merge_ms = self.sharded.merge_results(partial_bytes)
            self.metrics.observe("router_merge_ms", merge_ms)
        wall_ms = max(o.device_ms for o in outcomes) + merge_ms
        self._advance(wall_ms)
        for o in outcomes:
            self.metrics.observe(
                "shard_execute_ms", o.device_ms, labels={"shard": o.shard}
            )
            self.metrics.gauge(
                "shard_busy_ms",
                self.shards[o.shard].busy_ms,
                labels={"shard": o.shard},
            )
        self.last_execution = {
            "query": query.name,
            "shards": [o.shard for o in outcomes],
            "shard_ms": {o.shard: o.device_ms for o in outcomes},
            "shard_morsels": {o.shard: o.morsels for o in outcomes},
            "merge_ms": merge_ms,
            "wall_ms": wall_ms,
        }
        return merged, wall_ms

    # -- point lookups -------------------------------------------------------

    def lookup(self, name: str, indices: np.ndarray) -> tuple[np.ndarray, float]:
        """Scatter-gather one coalesced lookup batch across the shards.

        Indices are split by shard row range; each owning shard gathers
        its slice on its own device concurrently, and the fetched values
        ride the interconnect back (one all-gather).  Replicated columns
        skip the scatter entirely: the least-loaded shard serves the
        whole batch from its pinned full copy.
        """
        indices = np.asarray(indices, dtype=np.int64)
        col = self.store[name]
        out = np.empty(indices.size, dtype=np.int64)
        if name in self.replicated:
            shard = min(self._nonempty(), key=lambda s: s.busy_ms)
            ms = self._gather_on(shard, col, indices, out, slice(None))
            self._advance(ms)
            return out, ms
        plan: list[tuple[ColumnShard, np.ndarray]] = []
        for shard in self._nonempty():
            mask = (indices >= shard.row_lo) & (indices < shard.row_hi)
            if shard.row_hi >= self.num_rows:
                mask |= indices >= self.num_rows  # ragged tail / OOB guard
            if mask.any():
                plan.append((shard, np.flatnonzero(mask)))
        if not plan:
            return out, 0.0
        if len(plan) == 1:
            shard, pos = plan[0]
            wall_ms = self._gather_on(shard, col, indices[pos], out, pos)
        else:
            pool = self._ensure_dispatch()
            futures = [
                (
                    shard,
                    pool.submit(self._gather_on, shard, col, indices[pos], out, pos),
                )
                for shard, pos in plan
            ]
            errors: list[tuple[int, BaseException]] = []
            wall_ms = 0.0
            for shard, fut in futures:
                try:
                    wall_ms = max(wall_ms, fut.result())
                except Exception as exc:
                    errors.append((shard.index, exc))
            if errors:
                errors.sort(key=lambda pair: pair[0])
                raise errors[0][1]
            # Fetched values all-gather back over the interconnect.
            per_device = max(pos.size for _, pos in plan) * 8
            wall_ms += self.sharded.merge_results(per_device)
        self._advance(wall_ms)
        return out, wall_ms

    def _gather_on(self, shard, col, idx, out, pos) -> float:
        """Gather ``idx`` of one column on a shard's device into ``out[pos]``."""
        with shard.lock:
            before = shard.device.elapsed_ms
            # Serve from the ``col`` snapshot the router fetched once, so
            # a tier swap racing this gather cannot tear the batch.
            fetched = shard.engine.lookup_values(col, idx)
            out[pos] = fetched
            ms = shard.device.elapsed_ms - before
            shard.busy_ms += ms
            return ms

    # -- invalidation fan-out ------------------------------------------------

    def invalidate_column(self, name: str) -> None:
        """Drop every shard's cached derivatives of one column."""
        for shard in self.shards:
            shard.engine.invalidate_column(name)

    def bind_updatable(self, name: str, column: "UpdatableColumn") -> None:
        """Serve ``name`` from an updatable column on every shard.

        Each shard's engine installs its own flush hook, so one
        :meth:`~repro.core.updates.UpdatableColumn.flush` swaps the
        shared store image once and invalidates every shard's caches,
        pool residents and semantic-cache epochs — no shard can serve
        pre-update bytes.
        """
        for shard in self.shards:
            shard.engine.bind_updatable(name, column)

    # -- maintenance ---------------------------------------------------------

    def trim_arenas(self, max_bytes: int = 0) -> int:
        """Trim every shard's streaming decode arenas; returns bytes freed."""
        live = self._nonempty()
        if not live:
            return 0
        share = max(0, max_bytes) // len(live)
        return sum(s.engine.trim_stream_arenas(share) for s in live)

    def shard_summary(self) -> list[dict]:
        """One report row per shard (routing, occupancy, residency)."""
        return [
            {
                "shard": s.index,
                "tiles": s.num_tiles,
                "rows": s.num_rows,
                "routed": s.routed,
                "busy_ms": s.busy_ms,
                "resident_bytes": s.pool.resident_bytes,
                "evictions": self.metrics.counter(
                    "pool_evictions", labels={"shard": s.index}
                ),
            }
            for s in self.shards
        ]

    def close(self) -> None:
        """Shut down the dispatch pool (idempotent)."""
        if self._dispatch is not None:
            self._dispatch.shutdown(wait=True)
            self._dispatch = None
