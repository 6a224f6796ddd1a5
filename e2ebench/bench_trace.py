"""In-memory span tracer wrapped around the public entry points of each layer.

Spans are recorded only from the benchmark's own files: :class:`Instrumentation`
replaces public methods of the serving, query, engine, format and update
layers with thin wrappers for the duration of a traced run and restores the
originals afterwards.  Nothing under ``src/`` knows it is being traced.

Attribution rules (the benchmark has exactly one client thread):

* every span carries one request id (``rid``), the op in flight when the
  span started — the op being submitted, or the first op of the current
  burst that has not been answered yet;
* a span's parent is the innermost open span on its own thread; a span that
  opens on a morsel or shard worker thread with nothing open on that thread
  takes the client thread's innermost open span as its parent;
* self time is a span's duration minus the union of the intervals its
  children cover.

:func:`write_chrome_trace` writes the spans as Chrome trace-event JSON
(complete ``"X"`` events), which Perfetto and ``chrome://tracing`` load.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    rid: int
    tid: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans in memory; see the module docstring for the rules."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._client = threading.get_ident()
        self._client_stack: list[Span] = []
        self._next_id = 0
        #: Returns the request id of the op in flight (set by the benchmark client).
        self.current_rid = lambda: -1

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, name: str, rid: int | None = None, parent: int | None = None,
             **attrs) -> Span:
        stack = self._stack()
        if parent is None:
            if stack:
                parent = stack[-1].id
            else:
                with self._lock:
                    if self._client_stack:
                        parent = self._client_stack[-1].id
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            id=span_id,
            name=name,
            start_ns=time.perf_counter_ns(),
            end_ns=-1,
            parent=parent,
            rid=self.current_rid() if rid is None else rid,
            tid=threading.get_ident(),
            attrs=attrs,
        )
        with self._lock:
            stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        stack = self._stack()
        with self._lock:
            if stack and stack[-1] is span:
                stack.pop()
            else:  # defensive: an exception unwound spans out of order
                stack.remove(span)
            self.spans.append(span)


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, s.start_ns), min(c.end_ns, s.end_ns)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration_ns - covered
    return out


def write_chrome_trace(spans: list[Span], path: str) -> None:
    """Write spans as Chrome trace-event JSON (microsecond timestamps)."""
    t0 = min((s.start_ns for s in spans), default=0)
    tids: dict[int, int] = {}
    events = []
    for s in sorted(spans, key=lambda s: s.start_ns):
        tid = tids.setdefault(s.tid, len(tids))
        args = {"rid": s.rid, "span_id": s.id, "parent": s.parent}
        args.update({k: v for k, v in s.attrs.items()
                     if isinstance(v, (int, float, str, bool))})
        events.append({
            "name": s.name,
            "cat": s.name.split(".")[0],
            "ph": "X",
            "ts": (s.start_ns - t0) / 1e3,
            "dur": s.duration_ns / 1e3,
            "pid": 1,
            "tid": tid,
            "args": args,
        })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- wrapping the layers' public entry points -----------------------------------


def _wrap(tracer: Tracer, name: str, fn, annotate=None):
    """``fn`` recorded as span ``name``; ``annotate(args, result)`` adds attrs."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                span.attrs.update(annotate(args, result))
            return result
        finally:
            tracer.close(span)

    return wrapper


def _decode_owner_attrs(codec_name: str, fused: bool):
    def annotate(args, result):
        return {"codec": codec_name, "values": int(result), "fused": fused}
    return annotate


def _gather_attrs(args, result) -> dict:
    return {"indices": int(args[1].size)}


def _run_attrs(args, result) -> dict:
    return {"kernels": int(result.kernel_count)}


def _plan_attrs(args, result) -> dict:
    executor = args[0]
    lo, hi = executor.tile_span or (0, executor.engine.num_tiles)
    return {"tiles_active": int(result.tile_active[lo:hi].sum()),
            "tiles": hi - lo, "morsels": len(result.morsels)}


def _morsels_attrs(args, result) -> dict:
    return {"workers": int(args[0].workers), "morsels": len(args[2])}


def _flush_attrs(args, result) -> dict:
    return {"bytes": int(result.compressed_bytes),
            "transfer_sim_ms": float(result.transfer_ms)}


class Instrumentation:
    """Installs span wrappers; :meth:`remove` restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object, bool]] = []

    def _patch(self, owner, attr: str, span_name: str, annotate=None) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._saved.append((owner, attr, original, own))
        setattr(owner, attr, _wrap(self.tracer, span_name, getattr(owner, attr), annotate))

    def install(self) -> "Instrumentation":
        from repro.core.updates import UpdatableColumn
        from repro.engine.crystal import CrystalEngine
        from repro.engine.streaming import TileStreamExecutor
        from repro.formats import registry
        from repro.query.compiler import QueryCompiler
        from repro.serving import scheduler, sharding
        from repro.serving.pool import ColumnPool
        from repro.serving.scheduler import QueryServer
        from repro.serving.semcache import SemanticResultCache
        from repro.serving.sharding import ShardRouter
        from repro.serving.tiering import CodecTieringManager
        from repro.ssb.loader import ColumnStore

        p = self._patch
        p(QueryServer, "compile", "query.server_compile")
        p(QueryCompiler, "compile", "query.compile")
        p(QueryServer, "submit", "scheduler.submit")
        p(QueryServer, "drain", "scheduler.drain")
        p(SemanticResultCache, "execute", "semcache.execute")
        p(ShardRouter, "execute", "sharding.execute")
        p(ShardRouter, "lookup", "sharding.lookup")
        p(ShardRouter, "place_columns", "sharding.place_columns")
        p(ColumnStore, "place_on_device", "pool.place_on_device")
        p(ColumnPool, "admit", "pool.admit")
        p(CodecTieringManager, "run_once", "tiering.run_once")
        p(UpdatableColumn, "flush", "updates.flush", _flush_attrs)
        p(CrystalEngine, "run", "engine.run", _run_attrs)
        p(TileStreamExecutor, "plan", "streaming.plan", _plan_attrs)
        p(TileStreamExecutor, "run_morsels", "streaming.run_morsels", _morsels_attrs)
        p(TileStreamExecutor, "decode_slice", "streaming.decode_slice")
        # merge_parts is a staticmethod: patch the underlying function.
        original = vars(TileStreamExecutor)["merge_parts"]
        self._saved.append((TileStreamExecutor, "merge_parts", original, True))
        TileStreamExecutor.merge_parts = staticmethod(
            _wrap(self.tracer, "streaming.merge_parts", original.__func__)
        )
        # gather is wrapped where its callers bound it at import time.
        for module in (scheduler, sharding):
            p(module, "gather", "gather", _gather_attrs)
        for codec_name in registry.codec_names():
            if not registry.is_tile_codec(codec_name):
                continue
            cls = type(registry.get_codec(codec_name))
            for method, fused in (("decode_tiles_into", False),
                                  ("decode_range_into", False),
                                  ("decode_filter_tiles_into", True)):
                p(cls, method, f"decode.{codec_name}",
                  _decode_owner_attrs(codec_name, fused))
        return self

    def remove(self) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()
