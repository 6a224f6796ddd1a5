"""Crystal-style tile-based query engine with inline decompression.

The engine executes each SSB query the way Crystal does (Section 7):
dimension tables are turned into dense join lookups by small build
kernels, then **one fused fact kernel** sweeps ``lineorder`` in tiles of
512 rows (D=4 blocks of 128).  Under GPU-* compression the fact kernel's
column loads are ``LoadBitPack``/``LoadDBitPack``/``LoadRBitPack`` device
functions — the tile is decoded in shared memory inline with execution,
so compressed columns cost their compressed bytes plus decode compute,
never an extra global-memory round trip.

Three execution styles cover the paper's six systems:

* ``fused`` + inline decode — GPU-* (and ``None`` without decode);
* ``fused`` after a decompress-to-global prologue — nvCOMP, Planner and
  GPU-BP, which cannot pipeline decompression into the query (Section 9.4);
* ``staged`` — the OmniSci model: one kernel per operator with row-wise
  column access and a materialized selection bitmap between operators.

:meth:`CrystalEngine.run` executes both ``fused`` styles through the
morsel streaming executor (``repro.engine.streaming``); only ``staged``
plans sweep the whole table in one :class:`FactPipeline`.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.core.nvcomp import decompress_nvcomp
from repro.core.planner import decompress_planned
from repro.core.random_access import gather
from repro.core.tile_decompress import decompress
from repro.formats import kernels
from repro.formats.base import (
    EncodedColumn,
    TileCodec,
    corruption_guard,
    crc32_values,
    exact_tile_bounds,
    verify_mode,
)
from repro.formats.registry import get_codec
from repro.formats.validate import CorruptTileError
from repro.gpusim.executor import GPUDevice
from repro.gpusim.memory import linear_bytes
from repro.engine.lookup import MISS, Lookup, make_lookup
from repro.engine.predicates import (
    And,
    ColumnPredicate,
    canonical_key,
    column_predicates,
)
from repro.ssb.dbgen import SSBDatabase
from repro.ssb.loader import ColumnStore, StoredColumn

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving -> engine)
    from repro.core.updates import UpdatableColumn
    from repro.serving.pool import ColumnPool

#: Rows one thread block processes (D=4 blocks of 128).
TILE = 512
#: Thread-block size used by every query kernel.
BLOCK_THREADS = 128
#: Values each thread keeps live per loaded column (the paper's D).
D_PER_THREAD = TILE // BLOCK_THREADS

#: Fraction of peak bandwidth the OmniSci-style engine achieves: its
#: row-at-a-time JIT kernels neither tile nor coalesce column access the
#: way Crystal does (both this paper and Shanbhag et al. 2020 report the
#: resulting order-of-magnitude query gap).
OMNISCI_EFFICIENCY = 0.24
#: Extra per-row interpretation ops per OmniSci operator.
OMNISCI_OP_OVERHEAD = 24


@dataclass
class QueryResult:
    """Outcome of one SSB query on one system."""

    name: str
    system: str
    simulated_ms: float
    kernel_count: int
    #: Aggregate output: {group_code: value} or a single scalar under "".
    groups: dict[int, int]
    #: Fixed launch overhead included in ``simulated_ms``.
    launch_overhead_ms: float = 0.0

    @property
    def total(self) -> int:
        """Sum of all aggregate values (handy for cross-system checks)."""
        return int(sum(self.groups.values()))

    def scaled_ms(self, scale: float) -> float:
        """Project to a ``scale``x larger fact table (launch overhead is
        size-independent, everything else is linear in the row count)."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return (self.simulated_ms - self.launch_overhead_ms) * scale + self.launch_overhead_ms


def codec_tile_activity(
    tile_active: np.ndarray, elems: int, n_codec: int, lead: int = 0
) -> np.ndarray:
    """Map engine-tile activity onto ``n_codec`` consecutive codec tiles.

    ``tile_active[i]`` is the engine tile ``lead + i`` engine tiles past
    the start of the first codec tile (``lead`` is non-zero only when a
    codec tile of ``elems`` rows spans several engine tiles and begins
    before ``tile_active`` does).  A codec tile is active when any engine
    tile it overlaps is; codec tiles past ``tile_active`` are inactive.
    """
    if TILE % elems == 0:
        per_codec = np.repeat(tile_active, TILE // elems)[:n_codec]
        out = np.zeros(n_codec, dtype=bool)
        out[: per_codec.size] = per_codec
        return out
    if elems % TILE == 0:
        factor = elems // TILE
        padded = np.zeros(n_codec * factor, dtype=bool)
        padded[lead : lead + tile_active.size] = tile_active
        return padded.reshape(n_codec, factor).any(axis=1)
    raise ValueError(
        f"codec tile of {elems} rows does not divide the engine tile of {TILE}"
    )


@dataclass(frozen=True)
class Morsel:
    """One contiguous span of the fact table's tile grid.

    A streaming morsel covers ``morsel_tiles`` engine tiles; a
    whole-table :class:`FactPipeline` is the one span covering them all.
    """

    index: int
    tile_lo: int
    tile_hi: int
    row_lo: int
    row_hi: int


def _fresh_buffer(key: str, elements: int, dtype=np.int64) -> np.ndarray:
    """Allocating stand-in for :meth:`DecodeArena.scratch` (``key`` unused)."""
    return np.empty(max(elements, 1), dtype=dtype)


def _decode_chunk(codec, enc, c0, elems, view, active, predicate, mview, scratch) -> int:
    """Decode the active codec tiles of ``[c0, c0 + active.size)`` into
    ``view`` with one codec call, plain or fused; returns values written.

    Inactive tiles read as zero (and False in ``mview``).  When the
    active tiles are all of them or one contiguous run, the call writes
    straight at the run's offset; otherwise it decodes into ``scratch``
    and the tiles are copied into place.  Only the column's final tile
    can be partial and it is always last, so every decoded tile sits at
    a whole multiple of ``elems``.
    """
    tiles = np.flatnonzero(active)
    n = tiles.size
    targets = (view,) if predicate is None else (view, mview)
    in_place = n == 0 or tiles[-1] - tiles[0] + 1 == n
    if in_place:
        lo = int(tiles[0]) * elems if n else 0
        for target in targets:
            target[:lo] = 0
            target[lo + n * elems :] = 0
        outs = [target[lo:] for target in targets]
    else:
        outs = [
            scratch(f"scatter/{target.dtype}", n * elems, target.dtype)
            for target in targets
        ]
    if not n:
        rows = 0
    elif predicate is None:
        rows = codec.decode_tiles_into(enc, c0 + tiles, outs[0])
    else:
        rows = codec.decode_filter_tiles_into(enc, c0 + tiles, predicate, *outs)
    if not in_place:
        for target, out in zip(targets, outs):
            dest = target.reshape(-1, elems)
            dest[~active] = 0
            dest[tiles] = out[: n * elems].reshape(n, elems)
    return rows


class CrystalEngine:
    """Executes SSB queries over one system's column store."""

    def __init__(
        self,
        db: SSBDatabase,
        store: ColumnStore,
        device: GPUDevice | None = None,
        pool: "ColumnPool | None" = None,
        pushdown: bool = True,
        stream_workers: int = 1,
        morsel_tiles: int | None = None,
        kernel_backend: str | None = None,
    ):
        self.db = db
        self.store = store
        self.device = device if device is not None else GPUDevice()
        #: When set, tile metadata and the streaming decode scratch live
        #: as evictable residents of the serving layer's ColumnPool
        #: instead of the unbounded per-engine dicts — device capacity
        #: is then enforced.
        self.pool = pool
        #: Whether :meth:`FactPipeline.filter_pushdown` may skip tiles
        #: from codec bounds; off, queries run the unpruned plan.
        self.pushdown = pushdown
        # ``stream_workers`` is deprecated: morsels always run on the
        # calling thread, so it is only range-checked, then ignored.
        if stream_workers < 1:
            raise ValueError(f"stream_workers must be >= 1, got {stream_workers}")
        #: Engine tiles per morsel (``None`` = executor default).
        self.morsel_tiles = morsel_tiles
        # Bit-packing kernel backend (process-global: the backend layer
        # holds precompiled per-bitwidth plans, not per-engine state).
        # ``None`` keeps the process default (REPRO_KERNEL_BACKEND env or
        # the precompiled shift-table plans).
        if kernel_backend is not None:
            kernels.set_backend(kernel_backend)
        #: Resolved backend name actually serving this engine's decodes
        #: (may differ from the request when e.g. numba is absent).
        self.kernel_backend = kernels.backend_name()
        #: Optional serving MetricsRegistry receiving per-morsel timings
        #: and the peak decoded-bytes gauge (set by the QueryServer).
        self.metrics = None
        #: Optional semantic result cache (see ``serving.semcache``).
        #: When set, streaming queries probe it for reusable per-tile
        #: partial aggregates before running morsels, and
        #: :meth:`invalidate_column` bumps its per-column epochs so a
        #: flush can never merge stale partials.
        self.semcache = None
        #: Optional fault-injection hook, called with the column name
        #: before every source decode; used by the robustness tests to
        #: simulate transient decode failures (see serving.faults).
        self.fault_hook = None
        #: When True, a pinned decoded image is re-verified against the
        #: encoded column's whole-column CRC (once per request, see
        #: :meth:`request_scope`); on mismatch the pin is dropped and
        #: the column decodes from its compressed source.
        self.verify_cached = False
        # Pinned images already verified in the open request scope, by
        # column name (``None`` outside any scope).
        self._pin_verdicts: dict[str, np.ndarray] | None = None
        #: Stats dict of the most recent streaming run (see
        #: ``TileStreamExecutor.last_stats``); empty before any.
        self.last_stream_stats: dict = {}
        # Reused across queries so its decode arena persists:
        # steady-state streaming allocates nothing.
        self._stream_executor = None
        self.num_rows = db.num_lineorder_rows
        self.num_tiles = -(-self.num_rows // TILE)
        self._tile_bytes_cache: dict[str, np.ndarray] = {}
        self._bounds_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # Serving threads may read these caches concurrently; the lock makes
        # the fill-on-miss paths safe (the dicts only ever grow).
        self._cache_lock = threading.Lock()
        self._staged = store.system == "omnisci"
        self._last_timeline: list[dict] = []

    # -- column storage helpers --------------------------------------------

    def column_inline(self, name: str) -> bool:
        """Whether this column decodes inline in the fact kernel."""
        return self.inline_column(self.store[name])

    def inline_column(self, col: StoredColumn) -> bool:
        """Object form of :meth:`column_inline`.

        Readers racing an atomic tier swap must branch on the one
        :class:`StoredColumn` snapshot they already fetched — re-fetching
        by name could observe the *other* side of the swap and pair an
        inline-ness verdict with the wrong payload.
        """
        return self.store.system == "gpu-star" and col.codec_name != ""

    def pinned_decoded(self, name: str) -> np.ndarray | None:
        """A hot column's pinned decoded image, if one is pool-resident.

        The tiering manager pins decoded images of the hottest columns;
        pricing paths treat such a column like uncompressed storage (the
        fact kernel reads 4-byte rows, no inline decode), and value paths
        serve slices of the image.  Only tier invalidation removes a
        pinned resident, never eviction — so the pricing and value views
        cannot diverge.

        Under :attr:`verify_cached` the image is checked against its
        column's CRC first, at most once per :meth:`request_scope`.  A
        mismatch drops the pin with every derivative of the column
        (:meth:`invalidate_column`), so pricing and values both fall
        back to the compressed payload.
        """
        if self.pool is None:
            return None
        resident = self.pool.lookup(f"decoded/{name}")
        if resident is None or resident.pin_count == 0:
            return None
        image = resident.payload
        if self.verify_cached:
            verdicts = self._pin_verdicts
            if verdicts is None or verdicts.get(name) is not image:
                if not self._cached_image_ok(self.store[name], image):
                    self.invalidate_column(name)
                    return None
                if verdicts is not None:
                    verdicts[name] = image
        return image

    @contextlib.contextmanager
    def request_scope(self) -> Iterator[None]:
        """One request: each pinned image is CRC-verified at most once.

        Opened by :meth:`run` and by the serving layer around placement
        plus execution; nested scopes join the outermost one.  Outside
        any scope every call verifies.
        """
        outer = self._pin_verdicts is None
        if outer:
            self._pin_verdicts = {}
        try:
            yield
        finally:
            if outer:
                self._pin_verdicts = None

    def _cached_image_ok(self, col, values: np.ndarray) -> bool:
        """Whether a decoded image still matches its source CRC.

        A payload without a ``column_crc`` always passes; a mismatch
        (silent in-memory corruption of the image) is counted in
        ``decoded_image_refreshes``.
        """
        enc = getattr(col, "payload", None)
        crc = enc.meta.get("column_crc") if isinstance(enc, EncodedColumn) else None
        if crc is None or crc32_values(values) == int(crc):
            return True
        if self.metrics is not None:
            self.metrics.inc("decoded_image_refreshes")
        return False

    def fusion_allowed(self, enc) -> bool:
        """Whether fused decode+filter may serve this encoded column.

        Fused kernels skip unpacking blocks their header bounds already
        disqualify, so they cannot honour per-tile CRC verification on
        partially-skipped decodes.  Columns carrying a ``tile_crcs``
        table therefore stay on the plain decode path unless
        verification is globally off.
        """
        return verify_mode() == "off" or "tile_crcs" not in enc.meta

    def count_fused_kernel(self, rows: int) -> None:
        """Record one fused decode+filter kernel in the metrics registry."""
        if self.metrics is not None:
            self.metrics.inc("fused_decode_filter_kernels")
            self.metrics.inc("fused_decode_filter_rows", rows)

    def decode_span(
        self,
        name: str,
        span: "Morsel",
        tile_active: np.ndarray,
        predicate=None,
        col: StoredColumn | None = None,
        scratch: Callable[..., np.ndarray] | None = None,
    ):
        """Decode one column over a span of the tile grid.

        The one column-load routine of every fact pipeline: a streaming
        morsel decodes its span into the executor's arena (``scratch`` is
        :meth:`DecodeArena.scratch <repro.formats.base.DecodeArena.scratch>`),
        a whole-table pipeline is the one span covering the table and
        decodes into fresh buffers (``scratch=None``).

        Covers the codec tiles overlapping ``[row_lo, row_hi)`` with one
        codec call; codec tiles whose engine tiles were all pruned stay
        zero-filled (their rows are dead in the span's mask by
        construction).  Returns a view of exactly the span's rows.

        With a ``predicate``, the filter is fused into the decode via the
        codec's ``decode_filter_tiles_into`` and the return value becomes
        ``(values, rowmask)`` views — or ``(values, None)`` when fusion
        cannot apply (checksummed column under active verification), in
        which case the caller evaluates the predicate itself.

        ``col`` pins the caller's :class:`StoredColumn` snapshot so one
        object serves both the inline check and the decode; without it a
        fresh snapshot is taken here.  Either way a column that is no
        longer tile-encoded (a racing tier swap published an uncompressed
        or cold image) degrades to a plain values slice — bit-identical
        by the swap's contract, never a torn decode.
        """
        if col is None:
            col = self.store[name]
        want_mask = predicate is not None
        r0, r1 = span.row_lo, span.row_hi
        if not col.codec_name:
            vals = col.values[r0:r1]
            return (vals, None) if want_mask else vals
        if scratch is None:
            scratch = _fresh_buffer
        if self.fault_hook is not None:
            self.fault_hook(name)
        codec = get_codec(col.codec_name)
        assert isinstance(codec, TileCodec)
        enc = col.payload
        if want_mask and not self.fusion_allowed(enc):
            predicate = None
        elems = codec.tile_elements(enc)
        c0 = r0 // elems
        c1 = min(-(-r1 // elems), codec.num_tiles(enc))
        cap = (c1 - c0) * elems
        buf = scratch(name, cap)
        mask_buf = None
        if predicate is not None:
            mask_buf = scratch(f"mask/{name}", cap, dtype=np.bool_)
        try:
            with corruption_guard(name):
                rows = _decode_chunk(
                    codec, enc, c0, elems, buf[:cap],
                    codec_tile_activity(
                        tile_active, elems, c1 - c0,
                        lead=(span.tile_lo * TILE - c0 * elems) // TILE,
                    ),
                    predicate,
                    None if mask_buf is None else mask_buf[:cap],
                    scratch,
                )
        except CorruptTileError as exc:
            # Re-raise with the owning span so the client can see
            # exactly which slice of which morsel died.
            raise CorruptTileError(
                exc.column,
                exc.tile_id,
                f"{exc.reason} [morsel {span.index}: engine tiles "
                f"{span.tile_lo}..{span.tile_hi}, rows {r0}..{r1}]",
            ) from exc
        if predicate is not None:
            self.count_fused_kernel(rows)
        off = r0 - c0 * elems
        vals = buf[off : off + (r1 - r0)]
        if want_mask:
            if mask_buf is None:
                return vals, None
            return vals, mask_buf[off : off + (r1 - r0)]
        return vals

    def column_tile_bounds(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Conservative per-engine-tile value bounds for a fact column.

        Inline GPU-* columns derive them from codec block metadata
        (references + bitwidths) without decoding; uncompressed columns
        get exact min/max zone maps.  Bounds are cached — in the serving
        pool when one is attached, as metadata residents evicted last.
        """
        if self.pool is not None:
            key = f"bounds/{name}"
            resident = self.pool.get(key)
            if resident is not None:
                return resident.payload
            bounds = self._compute_tile_bounds(name)
            from repro.serving.pool import PoolAdmissionError

            try:
                self.pool.admit(
                    key,
                    bounds[0].nbytes + bounds[1].nbytes,
                    kind="meta",
                    payload=bounds,
                )
            except PoolAdmissionError:
                pass
            return bounds
        cached = self._bounds_cache.get(name)
        if cached is not None:
            return cached
        bounds = self._compute_tile_bounds(name)
        with self._cache_lock:
            return self._bounds_cache.setdefault(name, bounds)

    def _compute_tile_bounds(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        col = self.store[name]
        if self.inline_column(col):
            codec = get_codec(col.codec_name)
            enc = col.payload
            mins, maxs = codec.tile_bounds(enc)
            return self._regroup_bounds(mins, maxs, codec.bounds_elements(enc))
        mins, maxs = exact_tile_bounds(col.values, TILE)
        return self._regroup_bounds(mins, maxs, TILE)

    def _regroup_bounds(
        self, mins: np.ndarray, maxs: np.ndarray, bounds_elems: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Regroup codec-granularity bounds to engine tiles of :data:`TILE`.

        Padding uses identity sentinels (``INT64_MAX`` for mins,
        ``INT64_MIN`` for maxs): tiles past the data match nothing, so
        any predicate prunes them for free.
        """
        lo_pad = np.iinfo(np.int64).max
        hi_pad = np.iinfo(np.int64).min
        if bounds_elems == TILE:
            pass
        elif TILE % bounds_elems == 0:
            factor = TILE // bounds_elems
            padded_lo = np.full(self.num_tiles * factor, lo_pad, dtype=np.int64)
            padded_hi = np.full(self.num_tiles * factor, hi_pad, dtype=np.int64)
            padded_lo[: mins.size] = mins
            padded_hi[: maxs.size] = maxs
            mins = padded_lo.reshape(self.num_tiles, factor).min(axis=1)
            maxs = padded_hi.reshape(self.num_tiles, factor).max(axis=1)
        elif bounds_elems % TILE == 0:
            factor = bounds_elems // TILE
            mins = np.repeat(mins, factor)
            maxs = np.repeat(maxs, factor)
        else:
            raise ValueError(
                f"bounds granularity of {bounds_elems} rows does not divide "
                f"the engine tile of {TILE}"
            )
        if mins.size != self.num_tiles:
            out_lo = np.full(self.num_tiles, lo_pad, dtype=np.int64)
            out_hi = np.full(self.num_tiles, hi_pad, dtype=np.int64)
            n = min(mins.size, self.num_tiles)
            out_lo[:n] = mins[:n]
            out_hi[:n] = maxs[:n]
            mins, maxs = out_lo, out_hi
        return mins, maxs

    def surviving_tiles(self, predicate) -> np.ndarray:
        """Engine tiles a declared predicate cannot prove empty.

        The routing form of pushdown: the same zone maps
        :meth:`FactPipeline.filter_pushdown` consults, evaluated against
        a query's declared predicate IR without running any plan.  A
        shard router intersects this with each shard's tile range to
        skip shards the query provably cannot touch.  ``None`` (or
        pushdown disabled) keeps every tile — always sound.
        """
        active = np.ones(self.num_tiles, dtype=bool)
        if predicate is None or not self.pushdown:
            return active
        for pred in column_predicates(predicate):
            if pred.column not in self.store.columns:
                continue
            mins, maxs = self.column_tile_bounds(pred.column)
            active &= pred.tile_may_match(mins, maxs)
        return active

    def invalidate_column(self, name: str) -> None:
        """Drop every cached derivative of a column (it was re-encoded)."""
        with self._cache_lock:
            self._tile_bytes_cache.pop(name, None)
            self._bounds_cache.pop(name, None)
        if self.pool is not None:
            for prefix in ("decoded/", "tilemeta/", "compressed/", "bounds/"):
                self.pool.invalidate(prefix + name)
        if self.semcache is not None:
            self.semcache.invalidate_column(name)

    def bind_updatable(self, name: str, column: "UpdatableColumn") -> None:
        """Serve ``name`` from an :class:`~repro.core.updates.UpdatableColumn`.

        Every :meth:`~repro.core.updates.UpdatableColumn.flush` re-encodes
        the column, so the store's image is swapped for the fresh encoding
        and all cached/pool-resident derivatives are invalidated — without
        this, the engine keeps serving the pre-update bytes forever.

        The swap publishes a *new* :class:`StoredColumn` object atomically
        (one dict store under the store's swap lock) instead of mutating
        fields in place: a concurrent reader holds either the whole old
        image or the whole new one, never a half-updated mix, and the
        epoch bump makes any in-flight background re-encode of the old
        bytes abort its compare-and-swap.  A flushed column always lands
        back in the warm tier — its fresh planner choice is the baseline
        the tiering manager re-scores from.
        """

        def _on_flush(ucol: "UpdatableColumn") -> None:
            old = self.store[name]
            self.store.swap_column(
                name,
                StoredColumn(
                    name=name,
                    system=old.system,
                    values=ucol.values.copy(),
                    payload=ucol.encoded,
                    nbytes=ucol.encoded.nbytes,
                    codec_name=ucol.codec_name,
                    tier="warm",
                ),
            )
            self.invalidate_column(name)

        column.add_invalidation_hook(_on_flush)
        _on_flush(column)

    def tile_read_bytes(self, name: str) -> np.ndarray:
        """Aligned global-memory bytes each engine tile reads for a column."""
        if self.pool is not None:
            key = f"tilemeta/{name}"
            resident = self.pool.get(key)
            if resident is not None:
                return resident.payload
            per_engine = self._compute_tile_read_bytes(name)
            from repro.serving.pool import PoolAdmissionError

            try:
                self.pool.admit(
                    key, per_engine.nbytes, kind="meta", payload=per_engine
                )
            except PoolAdmissionError:
                pass
            return per_engine
        cached = self._tile_bytes_cache.get(name)
        if cached is not None:
            return cached
        per_engine = self._compute_tile_read_bytes(name)
        with self._cache_lock:
            return self._tile_bytes_cache.setdefault(name, per_engine)

    def _compute_tile_read_bytes(self, name: str) -> np.ndarray:
        col = self.store[name]
        # A hot column with a pinned decoded image reads plain 4-byte
        # rows — the tier invalidation that installs or removes the pin
        # also drops this cached metadata, so the two views stay coherent.
        if self.inline_column(col) and self.pinned_decoded(name) is None:
            codec = get_codec(col.codec_name)
            assert isinstance(codec, TileCodec)
            enc = col.payload
            starts, lengths = codec.tile_segments(enc)
            tx = self.device.spec.transaction_bytes
            starts = starts.astype(np.int64)
            lengths = lengths.astype(np.int64)
            nz = lengths > 0
            seg_bytes = np.zeros(starts.size, dtype=np.int64)
            seg_bytes[nz] = (
                (starts[nz] + lengths[nz] - 1) // tx - starts[nz] // tx + 1
            ) * tx
            codec_tiles = codec.num_tiles(enc)
            per_codec_tile = seg_bytes.reshape(-1, codec_tiles).sum(axis=0)
            per_engine = self._regroup_tiles(per_codec_tile, codec.tile_elements(enc))
        else:
            per_engine = np.full(
                self.num_tiles, linear_bytes(TILE * 4, self.device.spec.transaction_bytes),
                dtype=np.int64,
            )
            tail = self.num_rows - (self.num_tiles - 1) * TILE
            per_engine[-1] = linear_bytes(tail * 4, self.device.spec.transaction_bytes)
        return per_engine

    def _regroup_tiles(self, per_codec_tile: np.ndarray, codec_tile_elems: int) -> np.ndarray:
        """Aggregate codec-tile traffic to engine tiles of :data:`TILE` rows."""
        if codec_tile_elems == TILE:
            out = per_codec_tile
        elif TILE % codec_tile_elems == 0:
            factor = TILE // codec_tile_elems
            padded = np.zeros(self.num_tiles * factor, dtype=np.int64)
            padded[: per_codec_tile.size] = per_codec_tile
            out = padded.reshape(self.num_tiles, factor).sum(axis=1)
        elif codec_tile_elems % TILE == 0:
            # Codec tiles span several engine tiles (e.g. GPU-SIMDBP128's
            # 4096-value blocks): amortize each codec tile's traffic.
            factor = codec_tile_elems // TILE
            out = np.repeat(per_codec_tile, factor) // factor
        else:
            raise ValueError(
                f"codec tile of {codec_tile_elems} rows does not divide the "
                f"engine tile of {TILE}"
            )
        if out.size != self.num_tiles:
            padded = np.zeros(self.num_tiles, dtype=np.int64)
            padded[: out.size] = out[: self.num_tiles]
            out = padded
        return out

    # -- dimension build kernels --------------------------------------------

    def build_lookup(
        self,
        table_name: str,
        key_col: str,
        payload: np.ndarray | None = None,
        mask: np.ndarray | None = None,
        read_cols: int = 2,
    ) -> Lookup:
        """Build a dense join lookup from a dimension table (one kernel)."""
        table = self.db.table(table_name)
        keys = table[key_col]
        lookup = make_lookup(f"{table_name}.{key_col}", keys, payload, mask)
        with self.device.launch(
            f"build-{table_name}",
            grid_blocks=max(1, -(-keys.size // BLOCK_THREADS)),
            block_threads=BLOCK_THREADS,
            registers_per_thread=20,
        ) as k:
            k.read_linear(keys.size * 4 * read_cols)
            k.write_scatter(keys.size, 4, lookup.nbytes)
            k.compute(keys.size * 4)
        return lookup

    def lookup_values(self, col: StoredColumn, indices: np.ndarray) -> np.ndarray:
        """Fetch ``indices`` of one column, priced on this engine's device.

        The one point-lookup routine of every serving shape.  It branches
        on the caller's ``col`` snapshot only: re-probing the store
        mid-lookup could observe the other side of a racing tier swap and
        pair the wrong payload with the verdict.  A hot column's pinned
        decoded image serves the batch as a plain coalesced gather (no
        per-tile decode); an inline tile-encoded column decodes only the
        tiles the indices touch; a cold column first pays the unspill +
        cascade decode prologue (entropy-coded payloads have no random
        access), and then, like an uncompressed column, each index pulls
        one coalesced element.
        """
        source = self.pinned_decoded(col.name)
        if source is None:
            if self.inline_column(col):
                return gather(col.payload, indices, self.device).values
            if col.tier == "cold":
                self.decompress_first((col.name,))
            source = col.values
        with self.device.launch(
            f"lookup-{col.name}", grid_blocks=max(1, indices.size // 128)
        ) as k:
            k.read_gather(indices.size, 4, source.size * 4)
            k.compute(indices.size)
        return np.asarray(source)[indices]

    # -- fact pipeline --------------------------------------------------------

    def pipeline(self, name: str) -> "FactPipeline":
        """Open a fact-table pipeline for one query."""
        return FactPipeline(self, name, staged=self._staged)

    def decompress_first(self, columns: tuple[str, ...]) -> None:
        """Decompress the needed fact columns to global memory (the
        prologue nvCOMP / Planner / GPU-BP queries pay, Section 9.4).

        Cold-tier columns of any system pay the same shape of prologue:
        their entropy-cascade payload cannot be decoded inline, so every
        query touching one first unspills it (a PCIe staging transfer
        when the bytes live only in the on-disk container) and runs the
        cascade's kernels — the decode-cost side of the ratio-vs-speed
        trade the tiering manager balances.
        """
        system = self.store.system
        for name in columns:
            col = self.store[name]
            if system == "nvcomp":
                decompress_nvcomp(col.payload, self.device)
            elif system == "planner":
                decompress_planned(col.payload, self.device)
            elif system == "gpu-bp":
                decompress(col.payload, self.device, write_back=True)
            elif col.tier == "cold":
                payload = col.payload
                if payload is None and col.spill_path is not None:
                    payload = self.store.ensure_payload(name)
                    self.device.transfer_to_device(col.nbytes)
                if payload is not None:
                    decompress_nvcomp(payload, self.device)

    def explain(self, query: "SSBQuery") -> list[dict]:
        """Run a query and return its per-kernel timeline (EXPLAIN ANALYZE).

        Each row is one kernel launch with its resource signature,
        occupancy, traffic, and simulated time — making visible exactly
        why e.g. a decompress-first system pays more kernels than the
        fused inline-decode plan.
        """
        self.run(query)
        return self._last_timeline

    def _stream(self, query: "SSBQuery") -> dict[int, int]:
        """Run one query through the (cached) streaming executor."""
        from repro.engine.streaming import TileStreamExecutor

        executor = self._stream_executor
        if executor is None or (
            (self.morsel_tiles is not None
             and executor.morsel_tiles != self.morsel_tiles)
            or executor.metrics is not self.metrics
        ):
            executor = TileStreamExecutor(
                self,
                morsel_tiles=self.morsel_tiles,
                metrics=self.metrics,
            )
            self._stream_executor = executor
        if self.semcache is not None:
            groups = self.semcache.execute(self, executor, query)
        else:
            groups = executor.execute(query)
        self.last_stream_stats = executor.last_stats
        self._account_stream_arenas()
        return groups

    def trim_stream_arenas(self, max_bytes: int = 0) -> int:
        """Release streaming decode-arena scratch down to ``max_bytes``.

        The arena grows to the largest column chunk ever decoded and
        otherwise holds that memory forever; serving layers call this
        between query bursts (or the pool does, on eviction of the
        accounting resident) to give it back.  Returns bytes released.
        """
        executor = self._stream_executor
        if executor is None:
            return 0
        released = executor.trim_arenas(max_bytes)
        if released:
            self._account_stream_arenas()
        return released

    def _account_stream_arenas(self) -> None:
        """Mirror decode-arena scratch bytes into the serving pool budget.

        The arena is working memory, not cache, but it occupies the
        same device budget as pool residents — so it is accounted as
        a payload-less resident whose ``release`` callback trims it.
        Under memory pressure the pool evicts the entry, the callback
        frees the scratch, and the budget is truthful again.
        """
        if self.pool is None or self._stream_executor is None:
            return
        from repro.serving.pool import PoolAdmissionError

        key = "scratch/stream-arenas"
        nbytes = self._stream_executor.peak_decoded_bytes
        if nbytes <= 0:
            self.pool.invalidate(key)
            return
        try:
            self.pool.admit(
                key,
                nbytes,
                kind="scratch",
                payload=None,
                release=self._release_stream_arenas,
            )
        except PoolAdmissionError:
            # Scratch larger than the whole budget: trim immediately
            # rather than carry unaccounted memory.
            self._stream_executor.trim_arenas(0)

    def _release_stream_arenas(self) -> None:
        """Pool eviction hook: free arena scratch, no pool re-entry."""
        executor = self._stream_executor
        if executor is not None:
            executor.trim_arenas(0)

    def run(self, query: "SSBQuery") -> QueryResult:
        """Execute one SSB query and report its simulated time.

        Every fused plan — inline GPU-*, uncompressed, and the
        decompress-first systems after their prologue — runs through the
        morsel streaming executor; only the staged (OmniSci) plan runs
        its per-operator kernels over the whole table.
        """
        kernels_before = self.device.kernel_count
        ms_before = self.device.elapsed_ms
        with self.request_scope():
            # Verdicts on pinned images settle before anything is priced.
            for name in query.columns:
                self.pinned_decoded(name)
            self.decompress_first(query.columns)
            groups = query.fn(self) if self._staged else self._stream(query)
        kernels = self.device.kernel_count - kernels_before
        self._last_timeline = self.device.timeline()[kernels_before:]
        return QueryResult(
            name=query.name,
            system=self.store.system,
            simulated_ms=self.device.elapsed_ms - ms_before,
            kernel_count=kernels,
            groups=groups,
            launch_overhead_ms=kernels * self.device.spec.kernel_launch_us / 1000.0,
        )


@dataclass
class SSBQuery:
    """One SSB query: the fact columns it touches and its plan.

    Queries may additionally declare their semantic identity for the
    serving layer's result cache and request coalescing:

    * ``plan_key`` groups queries whose plans are identical *except* for
      the declared ``predicate`` (e.g. the flight-1 drill-downs).  Two
      queries sharing a plan_key must run the very same operator
      sequence over the same columns and differ only in which rows their
      predicate conjuncts keep — partial aggregates then transfer
      between them tile-by-tile.  ``None`` keeps the query in its own
      group (keyed by name), which is always sound.
    * ``predicate`` is the query's full filter in the predicate IR, used
      for canonical semantic keys; queries whose filters are not
      expressible in the IR leave it ``None``.
    """

    name: str
    columns: tuple[str, ...]
    fn: Callable[[CrystalEngine], dict[int, int]]
    plan_key: tuple | None = None
    predicate: "ColumnPredicate | And | None" = None

    def semantic_key(self) -> tuple:
        """Hashable identity of what this query computes.

        Two requests with equal semantic keys return identical answers
        (same plan family, same canonicalized filter), so the serving
        layer coalesces them into one execution even when their
        predicate objects were built differently.

        An ad-hoc query that declares *neither* a plan_key nor a
        predicate has no inspectable semantics — its plan lives in an
        opaque ``fn`` — so its key falls back to object identity: a name
        alone must never coalesce two distinct plans.  Registry queries
        are module-level singletons, so repeated submissions of the same
        object still batch together.
        """
        if self.plan_key is None and self.predicate is None:
            return (("query", self.name), ("object", id(self)))
        base = self.plan_key if self.plan_key is not None else ("query", self.name)
        return (base, canonical_key(self.predicate))


class FactPipeline:
    """One query's sweep over the fact table.

    In ``fused`` mode (Crystal) every call accumulates traffic/compute
    into a single kernel launch priced by :meth:`finish`.  In ``staged``
    mode (OmniSci) every operator prices its own kernel immediately, with
    a materialized selection bitmap read and written between operators.
    """

    def __init__(
        self,
        engine: CrystalEngine,
        name: str,
        staged: bool = False,
        rows: int | None = None,
        tiles: int | None = None,
    ):
        self.engine = engine
        self.name = name
        self.staged = staged
        # Default span is the whole fact table; the streaming executor's
        # morsel pipelines cover one contiguous chunk of it instead.
        self.n = engine.num_rows if rows is None else rows
        num_tiles = engine.num_tiles if tiles is None else tiles
        #: The span of the tile grid this pipeline's loads decode.
        self.span = Morsel(0, 0, num_tiles, 0, self.n)
        self.mask = np.ones(self.n, dtype=bool)
        self.tile_active = np.ones(num_tiles, dtype=bool)
        self._finished = False
        # Scratch for per-tile mask reduction: allocated once per pipeline
        # instead of per filter() call.  Rows past ``n`` are padding and
        # stay False forever (only [:n] is ever written).
        self._pad_scratch = np.zeros(num_tiles * TILE, dtype=bool)
        # Fused-kernel accumulators.
        self._read_bytes = 0
        self._write_bytes = 0
        self._compute = 0
        self._shared = 0
        self._gathers: list[tuple[int, int, int]] = []
        self._extra_regs = 0
        self._decode_regs = 0
        self._smem = 0
        self._cols_loaded = 0
        # Single-column pushdown conjuncts by column name: candidates for
        # fused decode+filter when that column is loaded.  A load that
        # fused one moves it to _fused_preds so the later exact
        # filter_predicate call skips the (now redundant) re-evaluation.
        self._pushdown_preds: dict[str, ColumnPredicate] = {}
        self._fused_preds: dict[str, ColumnPredicate] = {}

    # -- operators -----------------------------------------------------------

    def load(self, name: str) -> np.ndarray:
        """Load a fact column (tile loads skip fully-filtered tiles)."""
        self._check_open()
        engine = self.engine
        col = engine.store[name]
        tile_bytes = self._tile_read_bytes(name)
        read = int(tile_bytes[self.tile_active].sum())
        active_rows = int(self.tile_active.sum()) * TILE
        if self.tile_active.size and self.tile_active[-1]:
            # The last tile holds only the tail rows, not a full TILE.
            active_rows -= self.tile_active.size * TILE - self.n
        self._cols_loaded += 1

        if self.staged:
            # OmniSci: its own kernel, full column, row-wise access.
            self._staged_kernel(
                f"load-{name}",
                read_bytes=int(tile_bytes.sum()),
                write_bytes=self.n * 4,
                ops=self.n * OMNISCI_OP_OVERHEAD,
            )
            return col.values

        self._read_bytes += read
        # One snapshot decides both pricing and the value path; a hot
        # column with a pinned decoded image loads like raw storage.
        pinned = engine.pinned_decoded(name)
        inline = engine.inline_column(col) and pinned is None
        if inline:
            codec = get_codec(col.codec_name)
            assert isinstance(codec, TileCodec)
            res = codec.kernel_resources(col.payload)
            # Each thread holds one decoded value per block row it owns:
            # D=4 for the 128-row-block formats, but 32 for the 4096-value
            # vertical layout — the register pressure behind Section 4.3's
            # 14x q1.1 slowdown.
            self._extra_regs += max(
                D_PER_THREAD, codec.tile_elements(col.payload) // BLOCK_THREADS
            )
            self._compute += int(
                res.compute_ops_per_element * active_rows
                + res.tile_prologue_ops * int(self.tile_active.sum())
            )
            self._shared += int(res.shared_bytes_per_element * active_rows)
            # Columns decode one after another, so the compiler reuses the
            # decoder's scratch registers and staging buffer across loads:
            # only the widest decoder's state is live at once.  That state
            # is tiny for the FOR family but huge for the vertical-layout
            # ablation (Section 4.3's 14x q1.1 slowdown).
            self._decode_regs = max(
                self._decode_regs,
                max(2, res.registers_per_thread - 12 - 2 * D_PER_THREAD),
            )
            # Staging buffers are not reused: each compressed column's
            # tile stays resident in shared memory for the whole tile pass
            # (predicates may touch several decoded columns at once).
            self._smem += res.shared_mem_per_block
        else:
            self._extra_regs += D_PER_THREAD
            self._compute += active_rows  # BlockLoad index arithmetic

        # Fused decode+filter: a pushdown conjunct on this column is
        # evaluated during unpack, so non-qualifying rows of surviving
        # tiles never materialize.  The fused mask is ANDed immediately
        # (its rows are provably dead under the query's WHERE — pushdown
        # conjuncts are necessary conditions); pricing of the filter step
        # stays with the matching filter_predicate call, which sees the
        # identical post-AND selection either way.
        if not inline:
            source = col.values if pinned is None else pinned
            return source[self.span.row_lo : self.span.row_hi]
        pred = self._pushdown_preds.get(name)
        if pred is not None and name not in self._fused_preds:
            values, rowmask = self._decode(name, col, pred)
            if rowmask is not None:
                self.mask &= rowmask
                self._fused_preds[name] = pred
            return values
        return self._decode(name, col)

    def _tile_read_bytes(self, name: str) -> np.ndarray:
        """Per-tile read traffic over this pipeline's span (overridable)."""
        return self.engine.tile_read_bytes(name)[self.span.tile_lo : self.span.tile_hi]

    def _decode(self, name: str, col: StoredColumn, predicate=None):
        """Decode an inline column over this span (overridable).

        A whole-table pipeline decodes into fresh buffers; see
        :meth:`CrystalEngine.decode_span` for the ``predicate`` contract
        (a ``None`` rowmask means fusion could not apply and the caller
        evaluates the predicate itself).
        """
        return self.engine.decode_span(
            name, self.span, self.tile_active, predicate=predicate, col=col
        )

    def filter_pushdown(self, predicate: "ColumnPredicate | And | None") -> int:
        """Prune tiles from codec bounds before any column is loaded.

        For each single-column conjunct the engine consults the column's
        per-tile bounds (derived from codec block metadata, no decode)
        and drops every tile the predicate provably cannot match.
        Subsequent :meth:`load` calls then read and decode only the
        surviving tiles — the metadata-driven tile skipping the paper's
        tile decomposition enables.

        The exact row filters must still run afterwards (bounds are
        conservative); pruning only removes work, never rows that could
        match.  No-op for the staged engine (row-at-a-time access has no
        tile granularity) or when the engine was built with
        ``pushdown=False``.

        Returns:
            Number of tiles newly pruned.
        """
        self._check_open()
        preds = column_predicates(predicate)
        if self.staged or not self.engine.pushdown or not preds:
            return 0
        engine = self.engine
        before = int(self.tile_active.sum())
        for pred in preds:
            self._pushdown_preds[pred.column] = pred
            mins, maxs = engine.column_tile_bounds(pred.column)
            self.tile_active &= pred.tile_may_match(mins, maxs)
            # Zone-map metadata scan: two bound words plus one interval
            # compare per tile per column — negligible next to the
            # payload reads it saves.
            self._read_bytes += engine.num_tiles * 16
            self._compute += engine.num_tiles * 2
        pruned = before - int(self.tile_active.sum())
        if pruned:
            # Late materialization leaves pruned tiles zero-filled, so
            # their rows must be dead in the selection mask.  Sound
            # because a pruned tile provably contains no matching row.
            self.mask &= np.repeat(self.tile_active, TILE)[: self.n]
        return pruned

    def filter(self, rowmask: np.ndarray) -> None:
        """AND a row predicate into the pipeline's selection."""
        self._check_open()
        rowmask = np.asarray(rowmask, dtype=bool)
        if rowmask.shape != (self.n,):
            raise ValueError("filter mask must cover every fact row")
        self.mask &= rowmask
        self._after_mask_update()

    def filter_predicate(self, predicate: ColumnPredicate, values: np.ndarray) -> None:
        """AND a predicate's exact row filter into the selection.

        Unlike :meth:`filter` this evaluates the comparison only on
        currently-live rows: after pushdown most rows belong to pruned
        (undecoded, zero-filled) tiles, and late materialization means
        never inspecting their values at all.
        """
        self._check_open()
        values = np.asarray(values)
        if values.shape != (self.n,):
            raise ValueError("filter values must cover every fact row")
        if self._fused_preds.get(predicate.column) == predicate:
            # This exact conjunct was already evaluated inside the fused
            # decode of its column and ANDed into the mask at load time;
            # only the filter step's accounting remains.
            self._fused_preds.pop(predicate.column)
            self._after_mask_update()
            return
        live = self.live_count
        if live * 2 < self.n:
            self.mask[self.mask] = predicate.row_mask(values[self.mask])
        else:
            # Mostly-live selection: the dense compare is cheaper than a
            # gather + scatter round trip.
            self.mask &= predicate.row_mask(values)
        self._after_mask_update()

    def _after_mask_update(self) -> None:
        """Refresh tile activity and price the filter step."""
        scratch = self._pad_scratch
        scratch[: self.n] = self.mask
        self.tile_active &= scratch.reshape(-1, TILE).any(axis=1)
        if self.staged:
            self._staged_kernel(
                f"filter-{self.name}",
                read_bytes=self.n,
                write_bytes=self.n,
                ops=self.n * 2,
            )
        else:
            self._compute += self.live_count * 2

    def probe(self, lookup: Lookup, keys: np.ndarray) -> np.ndarray:
        """Probe a join lookup for every currently-live row."""
        self._check_open()
        count = self.live_count
        if self.staged:
            self._staged_kernel(
                f"probe-{lookup.name}",
                read_bytes=2 * self.n,
                write_bytes=self.n * 4,
                ops=self.n * (OMNISCI_OP_OVERHEAD + 3),
                gathers=(count, 4, lookup.nbytes),
            )
        else:
            self._gathers.append((count, 4, lookup.nbytes))
            self._compute += count * 3
        payload = np.full(self.n, MISS, dtype=np.int64)
        if count:
            payload[self.mask] = lookup.probe(np.asarray(keys)[self.mask])
        return payload

    def group_sum(
        self, codes: np.ndarray, weights: np.ndarray, num_groups: int
    ) -> dict[int, int]:
        """Aggregate ``sum(weights) group by codes`` over live rows."""
        self._check_open()
        count = self.live_count
        if self.staged:
            self._staged_kernel(
                f"aggregate-{self.name}",
                read_bytes=self.n * 8 + self.n,
                write_bytes=num_groups * 8,
                ops=self.n * (OMNISCI_OP_OVERHEAD + 8),
                scatters=(count, 8, num_groups * 8),
            )
        else:
            self._compute += count * 8
            self._gathers.append((min(count, num_groups * 4), 8, num_groups * 8))
            self._write_bytes += num_groups * 8
        codes = np.asarray(codes, dtype=np.int64)
        if count == 0:
            return {}
        live_codes = codes[self.mask]
        if live_codes.size and (live_codes.min() < 0 or live_codes.max() >= num_groups):
            raise ValueError("group codes out of range")
        sums = np.bincount(
            live_codes,
            weights=np.asarray(weights)[self.mask].astype(np.float64),
            minlength=num_groups,
        )
        return {int(c): int(sums[c]) for c in np.flatnonzero(sums)}

    def total_sum(self, values: np.ndarray) -> dict[int, int]:
        """Ungrouped ``sum(values)`` over live rows (query flight 1)."""
        self._account_aggregate(num_groups=1)
        if self.live_count == 0:
            return {0: 0}
        return {0: int(np.asarray(values, dtype=np.int64)[self.mask].sum())}

    def total_sum_product(self, a: np.ndarray, b: np.ndarray) -> dict[int, int]:
        """Ungrouped ``sum(a*b)`` over live rows (the flight-1 aggregate).

        The fused kernel forms the product inside its aggregation loop,
        so the host side multiplies only the selected rows instead of
        materializing a full product column.
        """
        self._account_aggregate(num_groups=1)
        if self.live_count == 0:
            return {0: 0}
        lhs = np.asarray(a, dtype=np.int64)[self.mask]
        rhs = np.asarray(b, dtype=np.int64)[self.mask]
        return {0: int((lhs * rhs).sum())}

    def _account_aggregate(self, num_groups: int) -> None:
        """Traffic/compute bookkeeping shared by the sum aggregates."""
        self._check_open()
        count = self.live_count
        if self.staged:
            self._staged_kernel(
                f"aggregate-{self.name}",
                read_bytes=self.n * 8 + self.n,
                write_bytes=num_groups * 8,
                ops=self.n * (OMNISCI_OP_OVERHEAD + 8),
                scatters=(count, 8, num_groups * 8),
            )
        else:
            self._compute += count * 8
            self._gathers.append((min(count, num_groups * 4), 8, num_groups * 8))
            self._write_bytes += num_groups * 8

    def group_aggregate(
        self,
        codes: np.ndarray,
        values: np.ndarray | None,
        num_groups: int,
        how: str = "sum",
    ) -> dict[int, int]:
        """General grouped aggregate over live rows.

        Supported ``how``: ``sum``, ``count``, ``min``, ``max``, ``avg``
        (integer-floor average).  Traffic/compute accounting matches
        :meth:`group_sum` — on the GPU these are all the same
        atomic-update pattern over a small result array.
        """
        self._check_open()
        if how == "sum":
            if values is None:
                raise ValueError("sum needs a values column")
            return self.group_sum(codes, values, num_groups)
        if how == "count":
            return self.group_sum(codes, np.ones(self.n, dtype=np.int64), num_groups)
        if how == "avg":
            if values is None:
                raise ValueError("avg needs a values column")
            sums = self.group_sum(codes, values, num_groups)
            counts = self.group_sum(codes, np.ones(self.n, dtype=np.int64), num_groups)
            return {c: sums.get(c, 0) // counts[c] for c in counts}
        if how not in ("min", "max"):
            raise ValueError(f"unknown aggregate {how!r}")
        if values is None:
            raise ValueError(f"{how} needs a values column")

        count = self.live_count
        if self.staged:
            self._staged_kernel(
                f"aggregate-{how}-{self.name}",
                read_bytes=self.n * 8 + self.n,
                write_bytes=num_groups * 8,
                ops=self.n * (OMNISCI_OP_OVERHEAD + 8),
                scatters=(count, 8, num_groups * 8),
            )
        else:
            self._compute += count * 8
            self._gathers.append((min(count, num_groups * 4), 8, num_groups * 8))
            self._write_bytes += num_groups * 8
        if count == 0:
            return {}
        codes = np.asarray(codes, dtype=np.int64)[self.mask]
        if codes.size and (codes.min() < 0 or codes.max() >= num_groups):
            raise ValueError("group codes out of range")
        vals = np.asarray(values, dtype=np.int64)[self.mask]
        sentinel = np.iinfo(np.int64).max if how == "min" else np.iinfo(np.int64).min
        out = np.full(num_groups, sentinel, dtype=np.int64)
        op = np.minimum if how == "min" else np.maximum
        op.at(out, codes, vals)
        touched = np.zeros(num_groups, dtype=bool)
        touched[codes] = True
        return {int(c): int(out[c]) for c in np.flatnonzero(touched)}

    # -- pricing ---------------------------------------------------------------

    def finish(self) -> None:
        """Price the fused fact kernel (no-op for the staged engine)."""
        self._check_open()
        self._finished = True
        if self.staged:
            return
        regs = 14 + self._extra_regs + self._decode_regs
        with self.engine.device.launch(
            f"fact-{self.name}",
            grid_blocks=max(1, self.engine.num_tiles),
            block_threads=BLOCK_THREADS,
            registers_per_thread=regs,
            shared_mem_per_block=self._smem,
        ) as k:
            if self._read_bytes:
                k.traffic.read_bytes += self._read_bytes  # already aligned
            if self._write_bytes:
                k.write_linear(self._write_bytes)
            for count, eb, region in self._gathers:
                k.read_gather(count, eb, region)
            k.compute(self._compute + self.engine.num_tiles * 600)
            k.shared(self._shared + self.live_count * 4)

    @property
    def live_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    # -- internals ---------------------------------------------------------------

    def _staged_kernel(
        self,
        name: str,
        read_bytes: int,
        write_bytes: int,
        ops: int,
        gathers: tuple[int, int, int] | None = None,
        scatters: tuple[int, int, int] | None = None,
    ) -> None:
        """One OmniSci operator kernel at OmniSci's achieved efficiency."""
        inflate = 1.0 / OMNISCI_EFFICIENCY
        with self.engine.device.launch(
            f"omnisci-{name}",
            grid_blocks=max(1, -(-self.n // 256)),
            block_threads=256,
            registers_per_thread=40,
        ) as k:
            k.read_linear(int(read_bytes * inflate))
            if write_bytes:
                k.write_linear(int(write_bytes * inflate))
            if gathers is not None:
                k.read_gather(*gathers)
            if scatters is not None:
                k.write_scatter(*scatters)
            k.compute(ops)

    def _check_open(self) -> None:
        if self._finished:
            raise RuntimeError("pipeline already finished")
