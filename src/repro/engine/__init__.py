"""Crystal-style tile-based query engine and the 13 SSB queries."""

from repro.engine.crystal import (
    TILE,
    CrystalEngine,
    FactPipeline,
    QueryResult,
    SSBQuery,
)
from repro.engine.coprocessor import (
    CacheStats,
    CoprocessorExecutor,
    CoprocessorResult,
    DeviceCache,
)
from repro.engine.lookup import MISS, Lookup, make_lookup
from repro.engine.primitives import (
    block_max_scan,
    block_prefix_sum,
    block_rle_expand,
)
from repro.engine.ssb_queries import QUERIES

__all__ = [
    "CacheStats",
    "CoprocessorExecutor",
    "CoprocessorResult",
    "DeviceCache",
    "block_max_scan",
    "block_prefix_sum",
    "block_rle_expand",
    "CrystalEngine",
    "FactPipeline",
    "Lookup",
    "MISS",
    "QUERIES",
    "QueryResult",
    "SSBQuery",
    "TILE",
    "make_lookup",
]
