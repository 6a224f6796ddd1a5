"""Compile declarative star-schema queries onto the tile engine.

The :class:`QueryCompiler` lowers a :class:`~repro.query.model.Query`
against a :class:`~repro.query.model.SemanticModel` into a
:class:`CompiledQuery` — an :class:`~repro.engine.crystal.SSBQuery`
whose plan function speaks only the streaming executor's engine-proxy
surface (``db`` / ``pushdown`` / ``build_lookup`` / ``pipeline``), so a
compiled plan runs unchanged on the morsel streamer, the staged
whole-table engine, the semantic result cache and the shard router.

Lowering decisions, in order:

* **Dimension predicate resolution** — each filtered dimension's
  qualifying keys are reduced to FK-domain predicate IR.  A selection
  that covers *every* dimension key inside ``[min, max]`` is exactly the
  FK range (given referential integrity); a small scattered selection
  becomes an ``InSet``.  Either exact form *eliminates the join* when
  the dimension contributes no group-by payload — the ``make_flight1``
  datekey-range trick, generalized.  Inexact reductions keep the
  semijoin (masked lookup + ``!= MISS``) and contribute the range as a
  pushdown-only conjunct: a necessary condition is always sound to
  prune and fuse with.
* **Zone-map pushdown + late materialization** — every resolvable
  conjunct is declared to :meth:`FactPipeline.filter_pushdown`, which
  prunes tiles from codec block bounds before any decode; surviving
  tiles decode late (only what the plan still needs) and single-column
  conjuncts on inline-decodable columns fuse into the unpack itself.
  The compiler records both decisions in its plan trace.
* **Filter ordering by decode cost** — exact fact filters apply
  cheapest-decode-first, priced by the planner's shared
  :func:`~repro.core.planner.decode_cost_estimate` hook, so expensive
  columns see the smallest surviving selection.
* **Group-code packing** — group-by attributes mix positionally into
  one dense code space (``code = (.. * domain + code) ..``), matching
  the hand-written SSB plans' stride arithmetic bit for bit; attributes
  of one dimension pack into a single lookup payload (one probe per
  dimension, like the hand plans).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.planner import decode_cost_estimate
from repro.engine.crystal import MISS, CrystalEngine, SSBQuery
from repro.engine.predicates import (
    And,
    ColumnPredicate,
    Equals,
    InSet,
    Range,
    canonical_key,
    canonical_predicates,
)
from repro.gpusim import GPUDevice
from repro.query.model import Attribute, DimensionJoin, Measure, Query, SemanticModel

__all__ = ["MAX_INSET_KEYS", "CompiledQuery", "QueryCompiler"]

#: Largest scattered dimension-key selection still worth an exact
#: ``InSet`` reduction; beyond this the compiler keeps the semijoin.
MAX_INSET_KEYS = 64


def _rebind(pred: ColumnPredicate, column: str) -> ColumnPredicate:
    """The same predicate, re-targeted at a physical column name."""
    if pred.column == column:
        return pred
    if isinstance(pred, Range):
        return Range(column, pred.lo, pred.hi)
    if isinstance(pred, Equals):
        return Equals(column, pred.value)
    if isinstance(pred, InSet):
        return InSet(column, pred.values)
    raise TypeError(f"cannot rebind predicate type {type(pred).__name__}")


@dataclass(frozen=True)
class _JoinPlan:
    """One dimension's role in a compiled plan."""

    join: DimensionJoin
    dim_filters: tuple[ColumnPredicate, ...]  # over physical dim columns
    payload_attrs: tuple[Attribute, ...]  # group-by attrs packed in the payload
    reduction: ColumnPredicate | None  # FK-domain form of the dim filters
    exact: bool  # reduction selects exactly the qualifying fact rows
    dropped: bool  # join eliminated (exact reduction, no payload needed)

    @property
    def filtered(self) -> bool:
        return bool(self.dim_filters)


@dataclass
class CompiledQuery(SSBQuery):
    """An executable plan compiled from a declarative spec.

    The inherited ``plan_key``/``predicate`` carry the plan's canonical
    identity (measures, group-bys, resolved dimension filters, fact
    conjuncts), so :meth:`SSBQuery.semantic_key` — and with it serving
    batch keys and the semantic cache — works on content, never on the
    spec's display name.
    """

    spec: Query | None = None
    model_name: str = ""
    trace: dict = field(default_factory=dict)
    group_attrs: tuple[Attribute, ...] = ()
    measures: tuple[Measure, ...] = ()

    def decode_groups(self, groups: dict[int, int]) -> dict[tuple, int]:
        """Translate packed group codes back to attribute-value tuples.

        Keys are ``(attr values..., measure name)`` tuples (the measure
        name is dropped for single-measure queries).
        """
        n_measures = max(1, len(self.measures))
        out: dict[tuple, int] = {}
        for code, value in groups.items():
            code, mi = divmod(code, n_measures) if n_measures > 1 else (code, 0)
            labels: list[int] = []
            for attr in reversed(self.group_attrs):
                code, c = divmod(code, attr.domain)
                labels.append(int(c) + attr.base)
            key = tuple(reversed(labels))
            if n_measures > 1:
                key += (self.measures[mi].name,)
            out[key] = int(value)
        return out


class QueryCompiler:
    """Compiles :class:`Query` specs for one (model, database) pair.

    ``store``/``device`` are optional: with them the compiler prices
    per-column decode costs (filter ordering) and annotates its plan
    trace with surviving-tile counts and fused-filter eligibility;
    without them plans are identical except filters apply in the model's
    column order.
    """

    def __init__(self, model: SemanticModel, db, store=None, device=None):
        self.model = model
        self.db = db
        self.store = store
        self.device = device if device is not None else GPUDevice()
        # Trace-only engine: zone maps + inline-decode verdicts.
        self._engine = (
            CrystalEngine(db, store, GPUDevice(spec=self.device.spec))
            if store is not None
            else None
        )
        self._cost_cache: dict[str, float] = {}

    # -- cost model --------------------------------------------------------

    def _decode_cost(self, column: str) -> float:
        """Simulated ms to materialize one fact column (0.0 if unknown)."""
        if self.store is None or column not in self.store.columns:
            return 0.0
        if column not in self._cost_cache:
            self._cost_cache[column] = decode_cost_estimate(
                self.store[column].payload, self.device
            )
        return self._cost_cache[column]

    # -- dimension resolution ----------------------------------------------

    def _reduce_dimension(
        self, join: DimensionJoin, filters: tuple[ColumnPredicate, ...]
    ) -> tuple[ColumnPredicate | None, bool]:
        """Resolve a dimension's filters to FK-domain IR.

        Returns ``(predicate, exact)``; ``exact`` means the predicate
        keeps a fact row *iff* the row joins to a qualifying dimension
        row, so the join itself is redundant for filtering.
        """
        if not filters:
            return None, False
        dim = self.db.table(join.table)
        keys = np.asarray(dim[join.key], dtype=np.int64)
        mask = np.ones(keys.size, dtype=bool)
        for pred in filters:
            mask &= pred.row_mask(np.asarray(dim[pred.column]))
        qualifying = keys[mask]
        if qualifying.size == 0:
            return InSet(join.fact_key, ()), True
        lo, hi = int(qualifying.min()), int(qualifying.max())
        in_range = int(np.count_nonzero((keys >= lo) & (keys <= hi)))
        if in_range == qualifying.size and join.referential_integrity:
            # Every dimension key inside [lo, hi] qualifies: the FK
            # range selects exactly the joinable rows.
            return Range(join.fact_key, lo, hi), True
        if qualifying.size <= MAX_INSET_KEYS:
            return InSet(join.fact_key, tuple(int(k) for k in qualifying)), True
        return Range(join.fact_key, lo, hi), False

    # -- compilation -------------------------------------------------------

    def compile(self, query: Query) -> CompiledQuery:
        """Lower one spec to an executable :class:`CompiledQuery`."""
        model = self.model
        measures = self._resolve_measures(query)
        group_attrs = self._resolve_group_by(query)

        # Partition filters into fact conjuncts and per-dimension lists.
        fact_preds: list[ColumnPredicate] = []
        dim_preds: dict[str, list[ColumnPredicate]] = {}
        for pred in query.filters:
            attr = model.attribute(pred.column)
            if attr is not None and attr.table != model.fact:
                dim_preds.setdefault(attr.table, []).append(
                    _rebind(pred, attr.column)
                )
            elif attr is not None:
                fact_preds.append(_rebind(pred, attr.column))
            elif pred.column in model.fact_columns:
                fact_preds.append(pred)
            else:
                raise KeyError(
                    f"query {query.name!r} filters unknown attribute "
                    f"{pred.column!r} (model {model.name!r})"
                )

        # Plan each involved dimension in the model's join order.
        join_plans: list[_JoinPlan] = []
        for join in model.joins:
            attrs = tuple(a for a in group_attrs if a.table == join.table)
            filters = tuple(dim_preds.pop(join.table, ()))
            if not attrs and not filters:
                continue
            reduction, exact = self._reduce_dimension(join, filters)
            dropped = exact and not attrs
            join_plans.append(
                _JoinPlan(join, filters, attrs, reduction, exact, dropped)
            )
        if dim_preds:
            raise KeyError(
                f"query {query.name!r} filters tables without a declared "
                f"join: {sorted(dim_preds)}"
            )

        # Fact-domain conjuncts: exact ones also run as row filters,
        # kept-join reductions prune and fuse but never filter (their
        # exactness lives in the semijoin's MISS sentinel).
        exact_conjuncts = canonical_predicates(
            And(
                tuple(fact_preds)
                + tuple(jp.reduction for jp in join_plans if jp.dropped)
            )
        )
        pushdown_conjuncts = canonical_predicates(
            And(
                exact_conjuncts
                + tuple(
                    jp.reduction
                    for jp in join_plans
                    if not jp.dropped and jp.reduction is not None
                )
            )
        )
        pushdown = And(pushdown_conjuncts) if pushdown_conjuncts else None
        ordered_filters = self._order_filters(exact_conjuncts)

        kept_joins = tuple(jp for jp in join_plans if not jp.dropped)
        num_groups = 1
        for attr in group_attrs:
            num_groups *= attr.domain

        fn = self._build_fn(
            query.name, pushdown, ordered_filters, kept_joins,
            group_attrs, num_groups, measures,
        )
        columns = self._touched_columns(
            ordered_filters, kept_joins, group_attrs, measures
        )
        plan_key = (
            "compiled",
            model.name,
            tuple((m.name, m.how, m.op, m.column, m.other) for m in measures),
            tuple(a.name for a in group_attrs),
            tuple(
                (
                    jp.join.table,
                    canonical_key(And(jp.dim_filters)),
                    tuple(a.name for a in jp.payload_attrs),
                    jp.dropped,
                )
                for jp in join_plans
            ),
        )
        predicate = And(exact_conjuncts) if exact_conjuncts else None
        trace = self._build_trace(
            query, measures, group_attrs, num_groups, join_plans,
            pushdown_conjuncts, ordered_filters, pushdown,
        )
        return CompiledQuery(
            name=query.name,
            columns=columns,
            fn=fn,
            plan_key=plan_key,
            predicate=predicate,
            spec=query,
            model_name=model.name,
            trace=trace,
            group_attrs=group_attrs,
            measures=measures,
        )

    # -- resolution helpers ------------------------------------------------

    def _resolve_measures(self, query: Query) -> tuple[Measure, ...]:
        measures = []
        for name in query.measures:
            if name not in self.model.measures:
                raise KeyError(
                    f"query {query.name!r} references unknown measure {name!r}"
                )
            measures.append(self.model.measures[name])
        merge_ops = {m.merge_op for m in measures}
        if len(merge_ops) > 1 or (merge_ops - {"sum"} and len(measures) > 1):
            raise ValueError(
                f"query {query.name!r}: min/max measures must run alone "
                f"(partials merge per-op; got {sorted(m.how for m in measures)})"
            )
        return tuple(measures)

    def _resolve_group_by(self, query: Query) -> tuple[Attribute, ...]:
        attrs = []
        for name in query.group_by:
            attr = self.model.attribute(name)
            if attr is None:
                raise KeyError(
                    f"query {query.name!r} groups by unknown attribute {name!r}"
                )
            if not attr.groupable:
                raise ValueError(
                    f"query {query.name!r}: attribute {name!r} declares no "
                    f"code domain and cannot be grouped by"
                )
            attrs.append(attr)
        return tuple(attrs)

    def _order_filters(
        self, conjuncts: tuple[ColumnPredicate, ...]
    ) -> tuple[ColumnPredicate, ...]:
        """Exact filters apply cheapest-decode-first (stable on ties)."""
        declared = {c: i for i, c in enumerate(self.model.fact_columns)}
        return tuple(
            sorted(
                conjuncts,
                key=lambda p: (
                    self._decode_cost(p.column),
                    declared.get(p.column, len(declared)),
                    p.column,
                ),
            )
        )

    def _touched_columns(
        self,
        ordered_filters: tuple[ColumnPredicate, ...],
        kept_joins: tuple[_JoinPlan, ...],
        group_attrs: tuple[Attribute, ...],
        measures: tuple[Measure, ...],
    ) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for pred in ordered_filters:
            seen.setdefault(pred.column)
        for jp in kept_joins:
            seen.setdefault(jp.join.fact_key)
        for attr in group_attrs:
            if attr.table == self.model.fact:
                seen.setdefault(attr.column)
        for m in measures:
            for col in m.fact_columns():
                seen.setdefault(col)
        return tuple(seen)

    # -- plan function -----------------------------------------------------

    def _build_fn(
        self,
        name: str,
        pushdown: And | None,
        ordered_filters: tuple[ColumnPredicate, ...],
        kept_joins: tuple[_JoinPlan, ...],
        group_attrs: tuple[Attribute, ...],
        num_groups: int,
        measures: tuple[Measure, ...],
    ):
        """Close the compiled plan over engine-independent state.

        The returned function is deterministic, opens exactly one
        pipeline, and touches only the engine-proxy surface — the
        streaming executor's plan-pass/morsel-replay contract.
        """
        model_fact = self.model.fact

        def fn(engine) -> dict[int, int]:
            db = engine.db
            lookups = []
            for jp in kept_joins:
                dim = db.table(jp.join.table)
                mask = None
                if jp.dim_filters:
                    mask = np.ones(
                        np.asarray(dim[jp.join.key]).size, dtype=bool
                    )
                    for pred in jp.dim_filters:
                        mask &= pred.row_mask(np.asarray(dim[pred.column]))
                payload = None
                if jp.payload_attrs:
                    first = jp.payload_attrs[0]
                    payload = (
                        np.asarray(dim[first.column], dtype=np.int64) - first.base
                    )
                    for attr in jp.payload_attrs[1:]:
                        payload = payload * attr.domain + (
                            np.asarray(dim[attr.column], dtype=np.int64)
                            - attr.base
                        )
                lookups.append(
                    engine.build_lookup(
                        jp.join.table, jp.join.key, payload=payload, mask=mask
                    )
                )

            p = engine.pipeline(name)
            if pushdown is not None:
                p.filter_pushdown(pushdown)
            loaded: dict[str, np.ndarray] = {}

            def load(col: str) -> np.ndarray:
                if col not in loaded:
                    loaded[col] = p.load(col)
                return loaded[col]

            for pred in ordered_filters:
                p.filter_predicate(pred, load(pred.column))

            attr_codes: dict[str, np.ndarray] = {}
            for jp, lookup in zip(kept_joins, lookups):
                payload = p.probe(lookup, load(jp.join.fact_key))
                if jp.filtered:
                    p.filter(payload != MISS)
                if jp.payload_attrs:
                    clipped = np.where(payload >= 0, payload, 0)
                    if len(jp.payload_attrs) == 1:
                        attr_codes[jp.payload_attrs[0].name] = clipped
                    else:
                        for i, attr in enumerate(jp.payload_attrs):
                            div = 1
                            for inner in jp.payload_attrs[i + 1 :]:
                                div *= inner.domain
                            attr_codes[attr.name] = (clipped // div) % attr.domain
            for attr in group_attrs:
                if attr.table == model_fact:
                    attr_codes[attr.name] = load(attr.column) - attr.base

            def value_of(m: Measure) -> np.ndarray | None:
                if m.how == "count":
                    return None
                values = load(m.column)
                if m.op == "sub":
                    return values - load(m.other)
                if m.op == "mul":
                    return values * load(m.other)
                return values

            if not group_attrs and len(measures) == 1:
                m = measures[0]
                if m.how == "sum" and m.op == "mul":
                    result = p.total_sum_product(load(m.column), load(m.other))
                elif m.how == "sum":
                    result = p.total_sum(value_of(m))
                else:
                    result = p.group_aggregate(
                        np.zeros(p.n, dtype=np.int64), value_of(m), 1, m.how
                    )
                p.finish()
                return result

            if group_attrs:
                first = group_attrs[0]
                codes = attr_codes[first.name]
                for attr in group_attrs[1:]:
                    codes = codes * attr.domain + attr_codes[attr.name]
            else:
                codes = np.zeros(p.n, dtype=np.int64)
            n_measures = len(measures)
            result: dict[int, int] = {}
            for i, m in enumerate(measures):
                mcodes = codes * n_measures + i if n_measures > 1 else codes
                result.update(
                    p.group_aggregate(
                        mcodes, value_of(m), num_groups * n_measures, m.how
                    )
                )
            p.finish()
            return result

        return fn

    # -- plan trace --------------------------------------------------------

    def _build_trace(
        self,
        query: Query,
        measures: tuple[Measure, ...],
        group_attrs: tuple[Attribute, ...],
        num_groups: int,
        join_plans: list[_JoinPlan],
        pushdown_conjuncts: tuple[ColumnPredicate, ...],
        ordered_filters: tuple[ColumnPredicate, ...],
        pushdown: And | None,
    ) -> dict:
        """The compiled plan's decisions, snapshot-test stable."""
        trace: dict = {
            "model": self.model.name,
            "query": query.name,
            "measures": [m.name for m in measures],
            "group_by": [a.name for a in group_attrs],
            "num_groups": int(num_groups),
            "joins": [
                {
                    "table": jp.join.table,
                    "fact_key": jp.join.fact_key,
                    "filtered": jp.filtered,
                    "payload": [a.name for a in jp.payload_attrs],
                    "reduction": (
                        None
                        if jp.reduction is None
                        else list(jp.reduction.cache_key())
                    ),
                    "exact": jp.exact,
                    "dropped": jp.dropped,
                }
                for jp in join_plans
            ],
            "pushdown": [list(p.cache_key()) for p in pushdown_conjuncts],
            "filter_order": [p.column for p in ordered_filters],
        }
        if self._engine is not None:
            engine = self._engine
            trace["filter_cost_ms"] = {
                p.column: round(self._decode_cost(p.column), 4)
                for p in ordered_filters
            }
            trace["fused_filter_columns"] = sorted(
                p.column
                for p in pushdown_conjuncts
                if p.column in self.store.columns
                and engine.column_inline(p.column)
            )
            surviving = int(engine.surviving_tiles(pushdown).sum())
            trace["surviving_tiles"] = surviving
            trace["total_tiles"] = int(engine.num_tiles)
            trace["late_materialization"] = surviving < engine.num_tiles
        return trace
