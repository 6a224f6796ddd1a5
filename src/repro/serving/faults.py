"""Deterministic fault injection for the codec and serving stack.

The robustness layer needs faults on demand: the fuzz suite drives every
registry codec through a corruption matrix, and the serving tests push a
:class:`QueryServer` through transient failures, persistent corruption,
and concurrent corruption storms.  Everything here is seeded and
reproducible — the same seed produces the same flipped bit.

``FaultInjector`` mutates *encoded* columns (payload bit flips, metadata
bit flips, truncation, logical-length mutation) and always clears the
runtime verification marks afterwards so lazy checksum state never masks
the injected fault.  :class:`TransientDecodeError` plus
:meth:`FaultInjector.transient_faults` model recoverable failures (a
dropped DMA transfer, an evicted page) that succeed on retry.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.formats.base import EncodedColumn

#: The corruption matrix's four modes.
FAULT_MODES = ("payload-bit", "meta-bit", "truncate", "length")

#: Runtime-only meta keys that must not survive a mutation (or a copy).
_RUNTIME_MARKS = ("_crc_seen", "_validated")


class TransientDecodeError(RuntimeError):
    """A decode failure that is expected to succeed when retried."""


def copy_encoded(enc: EncodedColumn) -> EncodedColumn:
    """Deep-copy an encoded column (fresh arrays, fresh meta, no marks)."""
    meta = {
        k: (v.copy() if isinstance(v, np.ndarray) else copy.deepcopy(v))
        for k, v in enc.meta.items()
        if k not in _RUNTIME_MARKS
    }
    return EncodedColumn(
        codec=enc.codec,
        count=enc.count,
        arrays={name: arr.copy() for name, arr in enc.arrays.items()},
        meta=meta,
        dtype=enc.dtype,
    )


class FaultInjector:
    """Seeded source of reproducible corruption and transient failures.

    Args:
        seed: seeds the injector's private generator; two injectors with
            the same seed apply identical faults in identical order.
    """

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        #: One record per applied fault: {"mode", "target", "detail"}.
        self.log: list[dict] = []

    # -- encoded-column corruption ------------------------------------------

    def corrupt(self, enc: EncodedColumn, mode: str) -> dict:
        """Apply one fault of ``mode`` to ``enc`` in place.

        Modes: ``payload-bit`` flips a bit in the largest physical array
        (the packed data), ``meta-bit`` flips a bit in a metadata array
        (block starts, headers, run counts), ``truncate`` drops a tail
        slice of the payload, ``length`` mutates the declared logical
        count.  Runtime verification marks are cleared so the fault is
        visible to the next decode.  Returns a description of what was
        mutated (also appended to :attr:`log`).
        """
        if mode == "payload-bit":
            info = self._flip_bit(enc, self._payload_name(enc))
        elif mode == "meta-bit":
            info = self._flip_bit(enc, self._metadata_name(enc))
        elif mode == "truncate":
            info = self._truncate(enc)
        elif mode == "length":
            info = self._mutate_length(enc)
        else:
            raise ValueError(f"unknown fault mode {mode!r}; known: {FAULT_MODES}")
        self._reset_marks(enc)
        info["mode"] = mode
        self.log.append(info)
        return info

    def corrupt_copy(self, enc: EncodedColumn, mode: str) -> EncodedColumn:
        """Like :meth:`corrupt`, but on a deep copy; the original is untouched."""
        clone = copy_encoded(enc)
        self.corrupt(clone, mode)
        return clone

    def flip_decoded_bit(self, values: np.ndarray) -> dict:
        """Flip one bit of an already-decoded image in place.

        Models silent in-memory corruption of a pinned decoded column
        (the case ``verify_cached`` re-decode recovery exists for).
        """
        flat = values.view(np.uint8).reshape(-1)
        if flat.size == 0:
            raise ValueError("cannot corrupt an empty decoded image")
        byte = int(self._rng.integers(flat.size))
        bit = int(self._rng.integers(8))
        flat[byte] ^= np.uint8(1 << bit)
        info = {"mode": "decoded-bit", "target": "<decoded>", "detail": f"byte {byte} bit {bit}"}
        self.log.append(info)
        return info

    # -- transient failures -------------------------------------------------

    def transient_faults(self, columns=None, times: int = 1):
        """A decode hook raising :class:`TransientDecodeError` ``times`` times.

        Returns a callable suitable for ``CrystalEngine.fault_hook``: it
        is invoked with a column name before each source decode and
        raises for the first ``times`` decodes of each matching column
        (every column when ``columns`` is None), then succeeds — the
        retry-with-backoff path's test fixture.
        """
        remaining: dict[str, int] = {}
        watched = None if columns is None else set(columns)

        def hook(column: str) -> None:
            if watched is not None and column not in watched:
                return
            left = remaining.setdefault(column, times)
            if left > 0:
                remaining[column] = left - 1
                raise TransientDecodeError(
                    f"simulated transient decode failure for column {column!r} "
                    f"({left} remaining)"
                )

        return hook

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _reset_marks(enc: EncodedColumn) -> None:
        for key in _RUNTIME_MARKS:
            enc.meta.pop(key, None)

    @staticmethod
    def _payload_name(enc: EncodedColumn) -> str:
        """The payload array: the largest physical buffer."""
        return max(enc.arrays, key=lambda k: enc.arrays[k].nbytes)

    def _metadata_name(self, enc: EncodedColumn) -> str:
        """A metadata array: any non-empty array other than the payload.

        Single-array codecs (delta, simple8b) have no separate metadata
        stream, so the fault lands in the payload's leading header-like
        bytes instead — still a distinct failure surface from the random
        payload flip.
        """
        payload = self._payload_name(enc)
        candidates = sorted(
            k for k, a in enc.arrays.items() if k != payload and a.nbytes > 0
        )
        if not candidates:
            return payload
        return candidates[int(self._rng.integers(len(candidates)))]

    def _flip_bit(self, enc: EncodedColumn, array_name: str) -> dict:
        arr = enc.arrays[array_name]
        flat = arr.view(np.uint8).reshape(-1)
        if flat.size == 0:
            # Nothing to flip (empty column): fall back to a length fault.
            return self._mutate_length(enc)
        byte = int(self._rng.integers(flat.size))
        bit = int(self._rng.integers(8))
        flat[byte] ^= np.uint8(1 << bit)
        return {"target": array_name, "detail": f"byte {byte} bit {bit}"}

    def _truncate(self, enc: EncodedColumn) -> dict:
        name = self._payload_name(enc)
        arr = enc.arrays[name]
        if arr.size == 0:
            return self._mutate_length(enc)
        drop = int(self._rng.integers(1, max(2, arr.size // 4 + 1)))
        enc.arrays[name] = arr[: arr.size - drop].copy()
        return {"target": name, "detail": f"dropped {drop} trailing elements"}

    def _mutate_length(self, enc: EncodedColumn) -> dict:
        old = enc.count
        # Flip a low bit of the declared count (never producing a negative
        # or astronomically large count — a *plausible* wrong length is the
        # dangerous one).
        new = old ^ (1 << int(self._rng.integers(4)))
        if new < 0:
            new = old + 1
        enc.count = int(new)
        return {"target": "count", "detail": f"{old} -> {enc.count}"}
