"""Batched tile decode: ``decode_tiles_into`` and the entry points derived from it.

Every tile codec implements one batched ``decode_tiles_into``;
``decode``, ``decode_tile``, ``decode_tiles``, ``decode_range`` and
``decode_range_into`` are derived from it in ``TileCodec``.  Each entry
point must reproduce the encode input for every tile codec, honour the
empty-column contract, and reject out-of-range tiles with ``IndexError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.random_access import coalesce_tile_runs
from repro.formats.base import TileCodec, compact_tile_chunks_inplace, ragged_arange
from repro.formats.registry import get_codec, is_tile_codec

TILE_CODECS = ("gpu-for", "gpu-dfor", "gpu-rfor", "gpu-bp", "gpu-simdbp128")


def _workload(codec_name: str, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if codec_name == "gpu-rfor":
        # Run-heavy data so RLE has real runs to compress.
        return np.repeat(
            rng.integers(0, 100, max(1, n // 8)), 8
        )[:n].astype(np.int64)
    lo = 0 if codec_name == "gpu-bp" else -500
    return rng.integers(lo, 5000, n).astype(np.int64)


@pytest.mark.parametrize("codec_name", TILE_CODECS)
@pytest.mark.parametrize("n", [1, 100, 512, 4096, 10_000, 20_001])
class TestBatchedMatchesPerTile:
    def test_full_column_bit_identical(self, codec_name, n):
        codec = get_codec(codec_name)
        values = _workload(codec_name, n)
        enc = codec.encode(values)
        n_tiles = codec.num_tiles(enc)
        loop = np.concatenate(
            [codec.decode_tile(enc, t) for t in range(n_tiles)]
        )
        batched = codec.decode_tiles(enc, np.arange(n_tiles))
        ranged = codec.decode_range(enc, 0, n_tiles)
        assert batched.dtype == loop.dtype
        assert np.array_equal(loop, batched)
        assert np.array_equal(loop, ranged)
        assert np.array_equal(batched.astype(np.int64), values)

    def test_arbitrary_subset_order_and_duplicates(self, codec_name, n):
        codec = get_codec(codec_name)
        values = _workload(codec_name, n)
        enc = codec.encode(values)
        n_tiles = codec.num_tiles(enc)
        rng = np.random.default_rng(7)
        subset = rng.integers(0, n_tiles, size=min(2 * n_tiles, 16))
        expected = np.concatenate(
            [codec.decode_tile(enc, int(t)) for t in subset]
        )
        assert np.array_equal(expected, codec.decode_tiles(enc, subset))


@pytest.mark.parametrize("codec_name", TILE_CODECS)
class TestTileContract:
    def test_empty_column_round_trip(self, codec_name):
        """Empty columns encode to zero tiles and round-trip cleanly."""
        codec = get_codec(codec_name)
        empty = np.zeros(0, dtype=np.int32)
        enc = codec.encode(empty)
        assert enc.count == 0
        assert codec.num_tiles(enc) == 0
        decoded = codec.decode(enc)
        assert decoded.shape == (0,) and decoded.dtype == empty.dtype
        # Tile iteration covers the (empty) grid without error.
        tiles = [codec.decode_tile(enc, t) for t in range(codec.num_tiles(enc))]
        assert tiles == []
        assert codec.decode_tiles(enc, []).shape == (0,)
        assert codec.decode_range(enc, 0, 0).shape == (0,)
        starts, lengths = codec.tile_segments(enc)
        assert starts.size == lengths.size == 0

    def test_empty_column_rejects_every_tile(self, codec_name):
        codec = get_codec(codec_name)
        enc = codec.encode(np.zeros(0, dtype=np.int32))
        for bad in (0, 1, -1):
            with pytest.raises(IndexError):
                codec.decode_tile(enc, bad)
            with pytest.raises(IndexError):
                codec.decode_tiles(enc, [bad])
        with pytest.raises(IndexError):
            codec.decode_range(enc, 0, 1)

    def test_out_of_range_tiles_raise(self, codec_name):
        codec = get_codec(codec_name)
        enc = codec.encode(_workload(codec_name, 5000))
        n_tiles = codec.num_tiles(enc)
        for bad in (-1, n_tiles, n_tiles + 5):
            with pytest.raises(IndexError):
                codec.decode_tile(enc, bad)
            with pytest.raises(IndexError):
                codec.decode_tiles(enc, [0, bad])
        with pytest.raises(IndexError):
            codec.decode_range(enc, 0, n_tiles + 1)
        with pytest.raises(IndexError):
            codec.decode_range(enc, -1, n_tiles)

    def test_decode_range_partial(self, codec_name):
        codec = get_codec(codec_name)
        values = _workload(codec_name, 30_000)
        enc = codec.encode(values)
        n_tiles = codec.num_tiles(enc)
        first, last = 1, max(2, n_tiles - 1)
        expected = np.concatenate(
            [codec.decode_tile(enc, t) for t in range(first, last)]
        )
        assert np.array_equal(expected, codec.decode_range(enc, first, last))


def test_default_fallback_loops_per_tile():
    """The base class's derived decodes serve a codec subclass as-is."""
    from repro.formats.gpufor import GpuFor

    class NoOverride(GpuFor):
        name = "gpu-for-no-override"
        decode_tiles = TileCodec.decode_tiles
        decode_range = TileCodec.decode_range

    codec = NoOverride()
    values = np.arange(5000, dtype=np.int64)
    enc = codec.encode(values)
    n_tiles = codec.num_tiles(enc)
    out = codec.decode_tiles(enc, np.arange(n_tiles))
    assert np.array_equal(out.astype(np.int64), values)
    assert codec.decode_tiles(enc, []).shape == (0,)


#: The entry points ``TileCodec`` derives from ``decode_tiles_into``.
DERIVED = ("decode", "decode_tile", "decode_tiles", "decode_range", "decode_range_into")


def _expected_tiles(codec, enc, values, tiles) -> np.ndarray:
    """The encode input's slices for ``tiles``, concatenated in order."""
    per = codec.tile_elements(enc)
    parts = [values[t * per : (t + 1) * per] for t in tiles]
    return np.concatenate(parts) if parts else values[:0]


def _every_entry_point(codec, enc, tiles) -> dict[str, np.ndarray]:
    """Decode ``tiles`` through every public decode entry point."""
    tiles = np.asarray(tiles, dtype=np.int64)
    cap = tiles.size * codec.tile_elements(enc)
    out = np.full(cap, -7, dtype=np.int64)
    written = codec.decode_tiles_into(enc, tiles, out)
    got = {
        "decode_tiles": codec.decode_tiles(enc, tiles),
        "decode_tiles_into": out[:written],
    }
    if tiles.size:
        got["decode_tile"] = np.concatenate(
            [codec.decode_tile(enc, int(t)) for t in tiles]
        )
    if tiles.size and np.array_equal(tiles, np.arange(tiles[0], tiles[-1] + 1)):
        lo, hi = int(tiles[0]), int(tiles[-1]) + 1
        got["decode_range"] = codec.decode_range(enc, lo, hi)
        out[:] = -7
        got["decode_range_into"] = out[: codec.decode_range_into(enc, lo, hi, out)]
    return got


@pytest.mark.parametrize("codec_name", TILE_CODECS)
class TestDerivedDecodeContract:
    """Every derived entry point agrees with the encode input."""

    def test_empty_column(self, codec_name):
        codec = get_codec(codec_name)
        values = np.zeros(0, dtype=np.int32)
        enc = codec.encode(values)
        out = codec.decode(enc)
        assert out.dtype == values.dtype and out.size == 0
        assert codec.decode_range(enc, 0, 0).dtype == values.dtype
        assert codec.decode_range_into(enc, 0, 0, np.empty(1, np.int64)) == 0
        for name, got in _every_entry_point(codec, enc, []).items():
            assert got.size == 0, name

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_partial_last_tile(self, codec_name, dtype):
        codec = get_codec(codec_name)
        values = _workload(codec_name, 3 * 4096 + 77, seed=3).astype(dtype)
        enc = codec.encode(values)
        n_tiles = codec.num_tiles(enc)
        assert values.size % codec.tile_elements(enc)  # last tile is short
        full = codec.decode(enc)
        assert full.dtype == values.dtype
        assert np.array_equal(full, values)
        for tiles in (np.arange(n_tiles), np.arange(n_tiles - 2, n_tiles)):
            expected = _expected_tiles(codec, enc, values, tiles)
            for name, got in _every_entry_point(codec, enc, tiles).items():
                assert np.array_equal(got, expected), name
                if name != "decode_tiles_into" and name != "decode_range_into":
                    assert got.dtype == values.dtype, name

    def test_repeated_and_unsorted_indices(self, codec_name):
        codec = get_codec(codec_name)
        values = _workload(codec_name, 5 * 4096 + 300, seed=4)
        enc = codec.encode(values)
        last = codec.num_tiles(enc) - 1
        tiles = np.array([last, 2, 0, 2, last, 1, 0])
        expected = _expected_tiles(codec, enc, values, tiles)
        for name, got in _every_entry_point(codec, enc, tiles).items():
            assert np.array_equal(got, expected), name

    def test_out_of_range_index_raises(self, codec_name):
        codec = get_codec(codec_name)
        enc = codec.encode(_workload(codec_name, 9000))
        n_tiles = codec.num_tiles(enc)
        out = np.empty((n_tiles + 2) * codec.tile_elements(enc), dtype=np.int64)
        for bad in (-1, n_tiles):
            with pytest.raises(IndexError):
                codec.decode_tile(enc, bad)
            with pytest.raises(IndexError):
                codec.decode_tiles(enc, [1, bad, 0])
            with pytest.raises(IndexError):
                codec.decode_tiles_into(enc, [1, bad, 0], out)
        for lo, hi in ((-1, 1), (0, n_tiles + 1), (2, 1)):
            with pytest.raises(IndexError):
                codec.decode_range(enc, lo, hi)
            with pytest.raises(IndexError):
                codec.decode_range_into(enc, lo, hi, out)


def test_no_tile_codec_overrides_derived_decodes():
    """Registered tile codecs implement one batched decode, not a fork of it."""
    from repro.formats.registry import codec_names

    for name in codec_names():
        if not is_tile_codec(name):
            continue
        cls = type(get_codec(name))
        assert "decode_tiles_into" in vars(cls), name
        for klass in cls.__mro__[: cls.__mro__.index(TileCodec)]:
            overridden = sorted(set(DERIVED) & set(vars(klass)))
            assert not overridden, f"{klass.__name__} overrides {overridden}"


def test_registry_tile_codecs_covered():
    """Every registered tile codec is in the equivalence matrix above."""
    from repro.formats.registry import codec_names

    registered = {n for n in codec_names() if is_tile_codec(n)}
    assert registered == set(TILE_CODECS)


class TestHelpers:
    def test_ragged_arange(self):
        assert np.array_equal(
            ragged_arange(np.array([3, 1, 2])), [0, 1, 2, 0, 0, 1]
        )
        assert ragged_arange(np.zeros(0, dtype=np.int64)).size == 0

    def test_compact_tile_chunks_inplace(self):
        vals = np.arange(10)
        kept = compact_tile_chunks_inplace(vals, np.array([4, 6]), np.array([2, 5]))
        assert np.array_equal(vals[:kept], [0, 1, 4, 5, 6, 7, 8])
        with pytest.raises(ValueError):
            compact_tile_chunks_inplace(vals[:3], np.array([4]), np.array([2]))

    def test_coalesce_tile_runs(self):
        assert coalesce_tile_runs(np.array([0, 1, 2, 5, 6, 9])) == [
            (0, 3),
            (5, 7),
            (9, 10),
        ]
        assert coalesce_tile_runs(np.zeros(0, dtype=np.int64)) == []
        assert coalesce_tile_runs(np.array([4])) == [(4, 5)]
