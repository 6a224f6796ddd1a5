"""Optional numba-JIT backend (``REPRO_KERNEL_BACKEND=numba``).

A straight scalar transcription of the CUDA extraction loop, compiled
with ``@njit(nogil=True)`` so concurrent decodes (one per shard dispatch
thread) overlap instead of serialising on the GIL.  The module always imports — when numba is
absent, :data:`AVAILABLE` is False and :data:`UNAVAILABLE_REASON` says
why; :func:`repro.formats.kernels.set_backend` then falls back to the
shift-table backend with a warning rather than failing.
"""

from __future__ import annotations

import numpy as np

from repro.formats.kernels import KernelBackend

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    AVAILABLE = True
    UNAVAILABLE_REASON: str | None = None
except ImportError as exc:  # numba not in the environment
    njit = None
    AVAILABLE = False
    UNAVAILABLE_REASON = str(exc)

_WORD_BITS = 32


def _words_needed(count: int, bits: int) -> int:
    return -(-count * bits // _WORD_BITS)


if AVAILABLE:  # pragma: no cover - exercised only where numba is installed

    @njit(nogil=True, cache=True)
    def _unpack_kernel(words, count, bits, out):
        # words carries one sentinel word past the stream end, so the
        # two-word window read is always in bounds.
        mask = (np.uint64(1) << np.uint64(bits)) - np.uint64(1)
        for i in range(count):
            bitpos = i * bits
            w = bitpos >> 5
            s = np.uint64(bitpos & 31)
            window = np.uint64(words[w]) | (np.uint64(words[w + 1]) << np.uint64(32))
            out[i] = np.uint32((window >> s) & mask)

    @njit(nogil=True, cache=True)
    def _pack_kernel(values, bits, acc):
        # acc is one word longer than the stream; the spill of the last
        # value lands in the sentinel and is provably zero.
        for i in range(values.size):
            bitpos = i * bits
            w = bitpos >> 5
            s = np.uint64(bitpos & 31)
            v = np.uint64(values[i]) << s
            acc[w] |= v & np.uint64(0xFFFFFFFF)
            acc[w + 1] |= v >> np.uint64(32)


class NumbaBackend(KernelBackend):
    """JIT-compiled scalar loops (compiled on first call per bitwidth)."""

    name = "numba"

    def __init__(self):
        if not AVAILABLE:
            raise ModuleNotFoundError(UNAVAILABLE_REASON)

    def unpack(self, words: np.ndarray, count: int, bits: int) -> np.ndarray:
        needed = _words_needed(count, bits)
        w = np.empty(needed + 1, dtype=np.uint32)
        w[:needed] = words[:needed]
        w[needed] = 0
        out = np.empty(count, dtype=np.uint32)
        _unpack_kernel(w, count, bits, out)
        return out

    def pack(self, values: np.ndarray, bits: int) -> np.ndarray:
        nwords = _words_needed(values.size, bits)
        acc = np.zeros(nwords + 1, dtype=np.uint64)
        _pack_kernel(values, bits, acc)
        return acc[:nwords].astype(np.uint32)
