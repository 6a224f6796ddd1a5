"""Workload-adaptive codec tiering with background recompression.

The planner picks each column's codec once, from data statistics alone
(:func:`~repro.core.hybrid.choose_gpu_star` keeps the smallest of
GPU-FOR / GPU-DFOR / GPU-RFOR).  That is the right static answer, but a
serving workload is not static: a handful of columns absorb most of the
decode work while others sit untouched for whole bursts.  The ratio-
optimal codec is then the wrong operating point at both extremes —

* **hot** columns should be stored under the *decode-cheapest* codec
  (and optionally kept decoded and pinned in the
  :class:`~repro.serving.pool.ColumnPool`), trading compressed bytes for
  kernel time on every touch;
* **cold** columns should drop to an entropy tier — the nvCOMP cascade,
  whose per-chunk metadata costs a little ratio and whose layer-per-
  kernel decode costs a lot of speed — and can be spilled to an on-disk
  :mod:`~repro.formats.container` entirely, reclaiming their device
  residency;
* everything in between stays **warm**: the planner's static choice.

:class:`CodecTieringManager` is the background maintenance task closing
that loop.  The :class:`~repro.serving.scheduler.QueryServer` feeds it
per-column access heat (exponentially-decayed counters in the shared
:class:`~repro.serving.metrics.MetricsRegistry`, timestamped on the
serving clock); on each maintenance pass the manager ranks columns by
heat, re-encodes movers *off the query path*, verifies each re-encode
decodes bit-identically, and publishes through
:meth:`~repro.ssb.loader.ColumnStore.swap_column` — a whole-object
compare-and-swap keyed on the column's epoch, so a racing flush always
wins and a racing query always sees one self-consistent column image.
After the swap, the invalidation callback fans out to every engine
(decoded/metadata pool residents, semantic-cache epochs, all shards), so
no cached derivative of the old encoding survives the epoch.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.core.hybrid import choose_gpu_star
from repro.core.nvcomp import decode_nvcomp, encode_nvcomp
from repro.core.planner import decode_cost_estimate
from repro.formats.container import save_container
from repro.formats.registry import get_codec
from repro.gpusim.executor import GPUDevice
from repro.serving.metrics import MetricsRegistry, labeled
from repro.serving.pool import PoolAdmissionError
from repro.ssb.loader import ColumnStore, StoredColumn

#: The tiers a column can occupy, hottest first.
TIERS = ("hot", "warm", "cold")

#: Tile codecs the hot tier chooses between, by *measured* decode cost on
#: a probe device (not by ratio — that is the warm tier's criterion).
HOT_CODECS = ("gpu-for", "gpu-dfor", "gpu-rfor", "gpu-bp", "gpu-simdbp128")

#: Decayed-counter name carrying per-column access heat (labelled
#: ``column_accesses{column=...}`` in the registry).
HEAT_METRIC = "column_accesses"


@dataclass
class TieringPolicy:
    """Knobs of the adaptive tiering loop (all times in simulated ms)."""

    #: Half-life of the per-column access counters: a column untouched
    #: for one half-life loses half its heat.
    half_life_ms: float = 2_000.0
    #: At most this many columns may occupy the hot tier at once.
    hot_count: int = 2
    #: Decayed accesses a column needs to be promoted to hot.
    hot_min_accesses: float = 4.0
    #: Decayed accesses at or below which a column demotes to cold.
    cold_max_accesses: float = 0.5
    #: Keep hot columns' decoded images pinned in each engine's pool, so
    #: scans read 4-byte rows and lookups are plain coalesced gathers.
    pin_hot_decoded: bool = True
    #: Directory cold columns spill their container into (``None``: the
    #: entropy-coded payload stays in host memory, device residency is
    #: still reclaimed on the next pool invalidation).
    spill_dir: str | None = None
    #: The store's compressed footprint may grow to at most this factor
    #: of its size when the manager was attached (the static planner
    #: baseline); promotions that would exceed it are skipped.
    bytes_budget_factor: float = 1.10
    #: A column must sit in its tier at least this long before moving
    #: again — hysteresis against thrash at a tier boundary.
    min_dwell_ms: float = 0.0
    #: Minimum serving-clock gap between maintenance passes triggered
    #: from the scheduler (:meth:`CodecTieringManager.maybe_run`).
    maintenance_interval_ms: float = 25.0

    def __post_init__(self) -> None:
        if self.half_life_ms <= 0:
            raise ValueError("half_life_ms must be positive")
        if self.hot_count < 0:
            raise ValueError("hot_count must be non-negative")
        if self.bytes_budget_factor < 1.0:
            raise ValueError("bytes_budget_factor must be >= 1.0")


class CodecTieringManager:
    """Scores column heat and re-encodes columns between codec tiers.

    The manager never blocks the query path: re-encoding and bit-exact
    verification happen on the maintenance caller's thread against a
    snapshot of the column, and publication is a single epoch-checked
    object swap.  A query that raced the swap either holds the old
    self-consistent image (still correct — values are bit-identical by
    the verify-before-publish contract) or fetches the new one.
    """

    def __init__(
        self,
        store: ColumnStore,
        engines: Sequence[Any],
        device: GPUDevice,
        metrics: MetricsRegistry | None = None,
        policy: TieringPolicy | None = None,
        invalidate: Callable[[str], Any] | None = None,
        clock: Callable[[], float] | None = None,
    ):
        self.store = store
        #: Engines whose pools receive pinned hot images (one per shard
        #: in router mode, the single engine otherwise).
        self.engines = tuple(engines)
        self.device = device
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.policy = policy if policy is not None else TieringPolicy()
        self._invalidate = invalidate
        self._clock = clock if clock is not None else (lambda: 0.0)
        #: The static footprint the bytes budget is measured against.
        self.baseline_bytes = store.total_bytes
        self._last_moved: dict[str, float] = {}
        self._last_run = float("-inf")
        self._maint_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

    # -- heat ----------------------------------------------------------------

    def record_access(
        self, columns: Iterable[str], amount: float = 1.0, at: float | None = None
    ) -> None:
        """Count one group's touches of ``columns`` at serving time ``at``."""
        if at is None:
            at = self._clock()
        for name in columns:
            self.metrics.touch(
                HEAT_METRIC,
                amount,
                at=at,
                half_life=self.policy.half_life_ms,
                labels={"column": name},
            )

    def heat(self, name: str, now: float | None = None) -> float:
        """A column's decayed access count, projected to ``now``."""
        if now is None:
            now = self._clock()
        return self.metrics.decayed_value(
            HEAT_METRIC,
            now=now,
            half_life=self.policy.half_life_ms,
            labels={"column": name},
        )

    def tiers(self) -> dict[str, str]:
        """Every column's current tier (one snapshot per column)."""
        return {name: self.store[name].tier for name in self.store.columns}

    # -- the maintenance pass ------------------------------------------------

    def maybe_run(self, now: float | None = None) -> int:
        """Run a pass if the maintenance interval elapsed; swaps made."""
        if now is None:
            now = self._clock()
        if now - self._last_run < self.policy.maintenance_interval_ms:
            return 0
        return self.run_once(now)

    def run_once(self, now: float | None = None) -> int:
        """One maintenance pass: demote cooled columns, promote hot ones.

        Returns the number of columns whose tier actually changed.
        Demotions run before promotions so reclaimed bytes fund the
        promotions' (usually worse-ratio) hot encodings under the
        bytes budget.
        """
        with self._maint_lock:
            if now is None:
                now = self._clock()
            self._last_run = now
            self.metrics.inc("tiering_runs")
            policy = self.policy
            heats = {
                name: self.heat(name, now) for name in list(self.store.columns)
            }
            ranked = sorted(heats, key=heats.__getitem__, reverse=True)
            hot_set = {
                name
                for name in ranked[: policy.hot_count]
                if heats[name] >= policy.hot_min_accesses
            }
            targets = {
                name: (
                    "hot"
                    if name in hot_set
                    else "cold"
                    if heats[name] <= policy.cold_max_accesses
                    else "warm"
                )
                for name in ranked
            }
            swaps = 0
            # Demotions first (coldest first), promotions after.
            for name in reversed(ranked):
                if TIERS.index(targets[name]) > TIERS.index(self.store[name].tier):
                    swaps += self._move(name, targets[name], now)
            for name in ranked:
                if TIERS.index(targets[name]) < TIERS.index(self.store[name].tier):
                    swaps += self._move(name, targets[name], now)
            self.metrics.gauge(
                "tiering_hot_columns",
                sum(1 for t in self.tiers().values() if t == "hot"),
            )
            self.metrics.gauge(
                "tiering_cold_columns",
                sum(1 for t in self.tiers().values() if t == "cold"),
            )
            return swaps

    def _move(self, name: str, target: str, now: float) -> int:
        """Re-encode one column for ``target`` and publish atomically."""
        col = self.store[name]  # the snapshot everything below works from
        if col.tier == target:
            return 0
        moved_at = self._last_moved.get(name)
        if moved_at is not None and now - moved_at < self.policy.min_dwell_ms:
            return 0
        expected_epoch = col.epoch
        wall0 = time.perf_counter()
        try:
            new = self._build(col, target)
        except _BudgetExceeded:
            self.metrics.inc("tiering_budget_skips")
            return 0
        except Exception:
            self.metrics.inc("tiering_reencode_failures")
            return 0
        reencode_ms = (time.perf_counter() - wall0) * 1e3
        old = self.store.swap_column(name, new, expected_epoch=expected_epoch)
        if old is None:
            # A flush (or another maintainer) won the race; its image is
            # newer than our snapshot, so dropping this re-encode is the
            # correct outcome.
            self.metrics.inc("tiering_swap_races")
            return 0
        self._last_moved[name] = now
        self.metrics.inc("tiering_swaps")
        self.metrics.observe("tiering_reencode_ms", reencode_ms)
        self.metrics.set_info(labeled("tier", {"column": name}), target)
        # Fan the epoch out before any new placement: every engine drops
        # decoded/metadata/compressed residents and bumps its semantic-
        # cache epoch, so nothing derived from ``old`` survives.
        if self._invalidate is not None:
            self._invalidate(name)
        if target == "cold":
            reclaimed = old.nbytes if new.spill_path is not None else max(
                0, old.nbytes - new.nbytes
            )
            if reclaimed:
                self.metrics.inc("tiering_bytes_reclaimed", reclaimed)
        if target == "hot" and self.policy.pin_hot_decoded:
            self._pin_decoded(new)
        return 1

    # -- tier builders (all verify bit-identity before returning) ------------

    def _build(self, col: StoredColumn, target: str) -> StoredColumn:
        if target == "hot":
            return self._build_hot(col)
        if target == "cold":
            return self._build_cold(col)
        return self._build_warm(col)

    def _build_hot(self, col: StoredColumn) -> StoredColumn:
        """Decode-cheapest encoding of the column that fits the budget."""
        values = np.asarray(col.values)
        candidates = []
        for codec_name in HOT_CODECS:
            try:
                enc = get_codec(codec_name).encode(values)
            except Exception:
                continue  # codec cannot represent this column's shape
            probe = GPUDevice(spec=self.device.spec)
            cost = decode_cost_estimate(enc, probe)
            candidates.append((cost, enc.nbytes, codec_name, enc))
        if not candidates:
            raise ValueError(f"no hot-tier codec can encode {col.name!r}")
        candidates.sort(key=lambda c: (c[0], c[1]))
        budget = self.baseline_bytes * self.policy.bytes_budget_factor
        for _cost, nbytes, codec_name, enc in candidates:
            if self.store.total_bytes - col.nbytes + nbytes <= budget:
                break
        else:
            raise _BudgetExceeded(col.name)
        self._verify(col, get_codec(codec_name).decode(enc))
        enc.meta.setdefault("column", col.name)
        return StoredColumn(
            name=col.name,
            system=col.system,
            values=col.values,
            payload=enc,
            nbytes=enc.nbytes,
            codec_name=codec_name,
            tier="hot",
        )

    def _build_warm(self, col: StoredColumn) -> StoredColumn:
        """The planner's static best-ratio choice (the seed encoding)."""
        choice = choose_gpu_star(np.asarray(col.values))
        self._verify(col, get_codec(choice.codec_name).decode(choice.encoded))
        choice.encoded.meta.setdefault("column", col.name)
        return StoredColumn(
            name=col.name,
            system=col.system,
            values=col.values,
            payload=choice.encoded,
            nbytes=choice.encoded.nbytes,
            codec_name=choice.codec_name,
            tier="warm",
        )

    def _build_cold(self, col: StoredColumn) -> StoredColumn:
        """nvCOMP entropy tier, optionally spilled to an on-disk container."""
        nv = encode_nvcomp(np.asarray(col.values))
        self._verify(col, decode_nvcomp(nv))
        payload: Any = nv
        spill_path = None
        if self.policy.spill_dir is not None:
            inner = nv.inner
            inner.meta["column"] = col.name
            inner.meta["nvcomp_scheme"] = nv.scheme
            inner.meta["nvcomp_chunk_meta"] = int(nv.chunk_metadata_bytes)
            os.makedirs(self.policy.spill_dir, exist_ok=True)
            spill_path = os.path.join(
                self.policy.spill_dir, f"{col.name}.rtlc"
            )
            save_container(inner, spill_path)
            payload = None
        return StoredColumn(
            name=col.name,
            system=col.system,
            values=col.values,
            payload=payload,
            nbytes=nv.nbytes,
            codec_name="",
            tier="cold",
            spill_path=spill_path,
        )

    @staticmethod
    def _verify(col: StoredColumn, decoded: np.ndarray) -> None:
        """The verify-before-publish contract: the re-encode must decode
        bit-identically to the snapshot it replaces."""
        if not np.array_equal(
            np.asarray(decoded, dtype=np.int64),
            np.asarray(col.values, dtype=np.int64),
        ):
            raise ValueError(
                f"re-encode of {col.name!r} is not bit-identical; not publishing"
            )

    def _pin_decoded(self, col: StoredColumn) -> None:
        """Pin the hot column's decoded image in every engine's pool.

        A pool too small (or too pinned) to take the image just leaves
        the column unpinned-hot — still served from its decode-cheapest
        codec, never an error.
        """
        values = np.asarray(col.values)
        nbytes = values.size * 4
        for engine in self.engines:
            pool = getattr(engine, "pool", None)
            if pool is None:
                continue
            probe = GPUDevice(spec=engine.device.spec)
            try:
                pool.admit(
                    f"decoded/{col.name}",
                    nbytes,
                    kind="decoded",
                    payload=values,
                    reconstruct_cost_ms=decode_cost_estimate(col.payload, probe),
                    pin=True,
                )
            except PoolAdmissionError:
                self.metrics.inc("tiering_pin_rejections")

    # -- background thread ---------------------------------------------------

    def start(self, interval_s: float = 0.05) -> None:
        """Run maintenance passes on a daemon thread every ``interval_s``."""
        if self._thread is not None:
            return
        self._stop_event.clear()

        def loop() -> None:
            while not self._stop_event.wait(interval_s):
                self.run_once()

        self._thread = threading.Thread(
            target=loop, name="codec-tiering", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join()
        self._thread = None


class _BudgetExceeded(RuntimeError):
    """Every candidate hot encoding would blow the bytes budget."""
