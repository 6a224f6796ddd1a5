"""GPU-RFOR: run-length encoding + FOR + bit-packing (paper Section 6).

The column is partitioned into **blocks of 512 logical integers** and RLE
is applied to each block independently, producing a values array and a
run-lengths array per block.  Both arrays are FOR + miniblock-bit-packed
(the ragged generalization of the GPU-FOR block format) and stored as two
separate streams; the run count of each block is extra per-block metadata.

Because every block's runs and lengths decode independently, one thread
block can load both compressed blocks into shared memory, bit-unpack them,
and expand the runs with two scatters and two block-wide prefix sums
(the four steps of Fang et al. [18]) — a single global-memory pass.

GPU-RFOR needs twice the shared memory and registers of GPU-DFOR (two
input streams), which the kernel resources below reflect.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import (
    CascadePass,
    EncodedColumn,
    KernelResources,
    TileCodec,
    compact_tile_chunks_inplace,
    ragged_arange,
    require_mask_buffer,
    require_out_buffer,
)
from repro.formats.ragged import RaggedPacked, pack_ragged, unpack_ragged_blocks

#: Logical values per RFOR block (Section 6).
RFOR_BLOCK = 512


def run_length_encode(values: np.ndarray, block: int = RFOR_BLOCK):
    """Split ``values`` into runs that never cross block boundaries.

    Returns:
        ``(run_values, run_lengths, runs_per_block)`` covering the input
        exactly; ``values.size`` must be a multiple of ``block``.
    """
    values = np.asarray(values, dtype=np.int64)
    n = values.size
    if n % block:
        raise ValueError(f"run_length_encode needs a multiple of {block} values")
    if n == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(values[1:], values[:-1], out=is_start[1:])
    is_start[::block] = True
    starts = np.flatnonzero(is_start)
    run_values = values[starts]
    run_lengths = np.diff(np.append(starts, n))
    runs_per_block = np.bincount(starts // block, minlength=n // block)
    return run_values, run_lengths, runs_per_block


class GpuRFor(TileCodec):
    """The paper's GPU-RFOR scheme (Section 6)."""

    name = "gpu-rfor"
    block_elements = RFOR_BLOCK

    def __init__(self, d_blocks: int = 1):
        if d_blocks < 1:
            raise ValueError(f"d_blocks must be >= 1, got {d_blocks}")
        self._d_blocks = d_blocks

    # -- ColumnCodec --------------------------------------------------------

    def encode(self, values: np.ndarray) -> EncodedColumn:
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("encode expects a 1-D integer array")
        v = values.astype(np.int64)
        n = v.size
        if n:
            pad = (-n) % RFOR_BLOCK
            if pad:
                # Padding with the last value merely extends the final run.
                v = np.concatenate([v, np.full(pad, v[-1], dtype=np.int64)])
        run_values, run_lengths, runs_per_block = run_length_encode(v)
        if runs_per_block.size:
            vals_packed = pack_ragged(run_values, runs_per_block)
            lens_packed = pack_ragged(run_lengths, runs_per_block)
        else:
            vals_packed = pack_ragged(run_values, runs_per_block)
            lens_packed = pack_ragged(run_lengths, runs_per_block)
        header = np.array([n, RFOR_BLOCK], dtype=np.uint32)
        enc = EncodedColumn(
            codec=self.name,
            count=n,
            arrays={
                "header": header,
                "run_counts": runs_per_block.astype(np.uint32),
                "values_starts": vals_packed.block_starts,
                "values_data": vals_packed.data,
                "lengths_starts": lens_packed.block_starts,
                "lengths_data": lens_packed.data,
            },
            meta={
                "d_blocks": self._d_blocks,
                "avg_run_length": float(n / max(1, run_values.size)),
            },
            dtype=values.dtype,
        )
        self.attach_tile_checksums(enc, v[:n])
        return enc

    def cascade_passes(self, enc: EncodedColumn) -> list[CascadePass]:
        """Eight kernel passes (Section 9.2): FOR+BitPack for both streams,
        then the four RLE expansion steps of Fang et al."""
        n_runs = int(enc.arrays["run_counts"].astype(np.int64).sum())
        runs_bytes = n_runs * 4
        decoded_bytes = enc.count * 4
        n_blocks = self._num_blocks(enc)
        vstarts, vlens = self._stream_segments(enc, "values")
        lstarts, llens = self._stream_segments(enc, "lengths")
        passes = []
        for stream, (starts, lengths) in (
            ("values", (vstarts, vlens)),
            ("lengths", (lstarts, llens)),
        ):
            passes.append(
                CascadePass(
                    name=f"unpack-{stream}",
                    read_bytes=0,
                    write_bytes=runs_bytes,
                    compute_ops=n_runs * 7,
                    read_segments=(starts, lengths),
                )
            )
            passes.append(
                CascadePass(
                    name=f"add-reference-{stream}",
                    read_bytes=runs_bytes,
                    write_bytes=runs_bytes,
                    compute_ops=n_runs * 2,
                    gathers=(n_blocks, 4),
                )
            )
        passes.extend(
            [
                CascadePass(
                    name="scan-lengths",
                    read_bytes=2 * runs_bytes,
                    write_bytes=runs_bytes,
                    compute_ops=n_runs * 4,
                ),
                CascadePass(
                    name="scatter-flags",
                    read_bytes=runs_bytes,
                    write_bytes=decoded_bytes,
                    compute_ops=n_runs * 2,
                    scatters=(n_runs, 4, decoded_bytes),
                ),
                CascadePass(
                    name="scan-flags",
                    read_bytes=2 * decoded_bytes,
                    write_bytes=decoded_bytes,
                    compute_ops=enc.count * 4,
                ),
                CascadePass(
                    name="gather-values",
                    read_bytes=decoded_bytes,
                    write_bytes=decoded_bytes,
                    compute_ops=enc.count * 2,
                    gathers=(n_runs, 4, runs_bytes),
                ),
            ]
        )
        return passes

    # -- TileCodec ----------------------------------------------------------

    def decode_tiles_into(
        self, enc: EncodedColumn, tile_indices: np.ndarray, out: np.ndarray
    ) -> int:
        # Runs never cross block boundaries and each block's lengths sum
        # to exactly RFOR_BLOCK, so one repeat expands the whole batch.
        # np.repeat has no out-parameter, so the expansion is a transient
        # copied into the caller's scratch; the run streams are run-sized
        # (tiny for run-heavy columns), so the arena still bounds the
        # dominant decoded footprint.
        tiles = self._validate_tile_indices(enc, tile_indices)
        require_out_buffer(out, tiles.size * self.tile_elements(enc))
        if tiles.size == 0:
            return 0
        run_values, run_lengths, chunk_lens, keep = self._tile_runs(enc, tiles)
        out[: chunk_lens.sum()] = np.repeat(run_values, run_lengths)
        written = compact_tile_chunks_inplace(out, chunk_lens, keep)
        self.verify_decoded_tiles(enc, tiles, out[:written])
        return written

    def decode_filter_tiles_into(
        self,
        enc: EncodedColumn,
        tile_indices: np.ndarray,
        predicate,
        out: np.ndarray,
        mask: np.ndarray,
    ) -> int:
        """Fused decode+filter for GPU-RFOR: evaluate on runs, not rows.

        The predicate is applied to the *run values* before expansion —
        ``n_runs`` comparisons instead of one per logical row — and the
        run mask expands with the same ``np.repeat`` as the values.  Any
        predicate shape works (runs are plain value-domain integers), and
        values are fully materialized so checksum coverage is preserved.
        """
        tiles = self._validate_tile_indices(enc, tile_indices)
        needed = tiles.size * self.tile_elements(enc)
        require_out_buffer(out, needed)
        require_mask_buffer(mask, needed)
        if tiles.size == 0:
            return 0
        run_values, run_lengths, chunk_lens, keep = self._tile_runs(enc, tiles)
        total = int(chunk_lens.sum())
        out[:total] = np.repeat(run_values, run_lengths)
        mask[:total] = np.repeat(predicate.row_mask(run_values), run_lengths)
        written = compact_tile_chunks_inplace(out, chunk_lens, keep)
        compact_tile_chunks_inplace(mask, chunk_lens, keep)
        self.verify_decoded_tiles(enc, tiles, out[:written])
        return written

    def tile_bounds(self, enc: EncodedColumn) -> tuple[np.ndarray, np.ndarray]:
        """Zero-decode bounds from the run-values stream's metadata.

        Run lengths never change a block's value set, so only the values
        stream matters: its ragged-FOR reference is the exact minimum of
        the block's run values (= the block minimum), and ``reference +
        2**widest_miniblock - 1`` bounds every run value from the stored
        bitwidth bytes alone.
        """
        counts = enc.arrays["run_counts"].astype(np.int64)
        n_blocks = counts.size
        if n_blocks == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        from repro.formats.gpufor import MINIBLOCK

        data = enc.arrays["values_data"]
        bstarts = enc.arrays["values_starts"].astype(np.int64)[:-1]
        references = data[bstarts].view(np.int32).astype(np.int64)

        # Walk the bitwidth bytes exactly as unpack_ragged_blocks does,
        # but stop there: no payload words are touched.
        padded_counts = np.maximum(-(-counts // MINIBLOCK), 1) * MINIBLOCK
        minis_per_block = padded_counts // MINIBLOCK
        mini_offsets = np.zeros(n_blocks + 1, dtype=np.int64)
        np.cumsum(minis_per_block, out=mini_offsets[1:])
        mini_block_of = np.repeat(np.arange(n_blocks), minis_per_block)
        within = np.arange(int(mini_offsets[-1])) - mini_offsets[mini_block_of]
        bw_word_idx = bstarts[mini_block_of] + 1 + within // 4
        bits = ((data[bw_word_idx] >> ((within % 4) * 8)) & 0xFF).astype(np.int64)
        widest = np.maximum.reduceat(bits, mini_offsets[:-1])

        block_max = references + (np.int64(1) << widest) - 1
        edges = np.arange(0, n_blocks, self.d_blocks(enc), dtype=np.int64)
        return (
            np.minimum.reduceat(references, edges),
            np.maximum.reduceat(block_max, edges),
        )

    def tile_segments(self, enc: EncodedColumn) -> tuple[np.ndarray, np.ndarray]:
        d = self.d_blocks(enc)
        vstarts_arr = enc.arrays["values_starts"].astype(np.int64)
        lstarts_arr = enc.arrays["lengths_starts"].astype(np.int64)
        n_blocks = vstarts_arr.size - 1
        tile_first = np.arange(0, n_blocks, d, dtype=np.int64)
        tile_last = np.minimum(tile_first + d, n_blocks)

        # Lay the four physical arrays out back to back so segments from
        # different arrays never alias.
        v_bytes = int(vstarts_arr[-1]) * 4
        l_base = v_bytes
        l_bytes = int(lstarts_arr[-1]) * 4
        meta_base = l_base + l_bytes

        segs = [
            (vstarts_arr[tile_first] * 4, (vstarts_arr[tile_last] - vstarts_arr[tile_first]) * 4),
            (l_base + lstarts_arr[tile_first] * 4, (lstarts_arr[tile_last] - lstarts_arr[tile_first]) * 4),
            # block starts (both streams) + run counts, read per tile.
            (meta_base + tile_first * 4, (tile_last - tile_first + 1) * 4),
            (meta_base + (n_blocks + 1) * 4 + tile_first * 4, (tile_last - tile_first + 1) * 4),
            (meta_base + 2 * (n_blocks + 1) * 4 + tile_first * 4, (tile_last - tile_first) * 4),
        ]
        return (
            np.concatenate([s for s, _ in segs]),
            np.concatenate([l for _, l in segs]),
        )

    def kernel_resources(self, enc: EncodedColumn) -> KernelResources:
        d = self.d_blocks(enc)
        # Two compressed streams staged plus the 512-entry decode buffer:
        # twice GPU-DFOR's footprint (Section 6).
        return KernelResources(
            registers_per_thread=18 + 4 * d,
            shared_mem_per_block=d * RFOR_BLOCK * 4 * 2 + 512,
            compute_ops_per_element=25.0,
            tile_prologue_ops=8000.0,
            shared_bytes_per_element=48.0,
        )

    # -- helpers ------------------------------------------------------------

    def _tile_runs(self, enc: EncodedColumn, tiles: np.ndarray):
        """Unpack and check the run streams of a batch of tiles.

        Returns ``(run_values, run_lengths, chunk_lens, keep)``: the
        batch's runs in tile order, each tile's block-padded expanded
        length, and its logical length.  Corrupt run lengths are rejected
        *before* expansion allocates output — each block's lengths must
        be positive and sum to exactly ``RFOR_BLOCK``, or a flipped bit
        in the packed lengths stream would make ``np.repeat`` allocate an
        arbitrarily large (or misaligned) expansion.  The report names
        the tile of the first bad block.
        """
        self.validate_for_decode(enc)
        d = self.d_blocks(enc)
        first = tiles * d
        nb = np.minimum(first + d, self._num_blocks(enc)) - first
        blocks = np.repeat(first, nb) + ragged_arange(nb)
        counts = enc.arrays["run_counts"]
        run_values, _ = unpack_ragged_blocks(
            RaggedPacked(enc.arrays["values_data"], enc.arrays["values_starts"], counts),
            blocks,
        )
        run_lengths, runs = unpack_ragged_blocks(
            RaggedPacked(enc.arrays["lengths_data"], enc.arrays["lengths_starts"], counts),
            blocks,
        )
        starts = np.cumsum(runs) - runs
        bad = (np.add.reduceat(run_lengths, starts) != RFOR_BLOCK) | (
            np.minimum.reduceat(run_lengths, starts) < 1
        )
        if bad.any():
            from repro.formats.validate import CorruptTileError

            block = int(np.argmax(bad))
            lo = int(starts[block])
            total = int(run_lengths[lo : lo + runs[block]].sum())
            tile = int(tiles[np.searchsorted(np.cumsum(nb), block, side="right")])
            raise CorruptTileError(
                enc.column_name, tile,
                f"run lengths of block {int(blocks[block])} sum to {total}, "
                f"expected {RFOR_BLOCK}",
            )
        keep = (
            np.minimum((tiles + 1) * d * RFOR_BLOCK, enc.count)
            - tiles * d * RFOR_BLOCK
        )
        return run_values, run_lengths, nb * RFOR_BLOCK, keep

    def _num_blocks(self, enc: EncodedColumn) -> int:
        return enc.arrays["run_counts"].size

    def _stream_segments(self, enc: EncodedColumn, stream: str):
        starts_arr = enc.arrays[f"{stream}_starts"].astype(np.int64)
        n_blocks = starts_arr.size - 1
        first = np.arange(n_blocks, dtype=np.int64)
        return starts_arr[first] * 4, (starts_arr[first + 1] - starts_arr[first]) * 4
