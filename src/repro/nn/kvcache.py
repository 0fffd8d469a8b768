"""Paged KV cache: the one key/value store behind every cached forward.

Key/value storage is a fixed pool of fixed-size *blocks* shared by all
sequences; each sequence maps its positions onto pool blocks through a
block table (vLLM's PagedAttention layout), so sequences of any length
join and leave a running batch and a freed sequence returns its blocks at
once.  A contiguous per-sequence cache is the case of one block per
sequence: :meth:`~repro.nn.transformer.LlamaModel.new_cache` builds one
``max_seq_len`` block per row for ``generate_cached`` and LLM-QAT, while
the serving worker runs many small blocks.  :class:`RaggedView` is the
only adapter; it is what
:meth:`~repro.nn.transformer.LlamaModel.forward_cached` consumes.

Gathers move bytes and never round, and histories are returned read-only,
so attention over any block geometry is bit-identical — the serving
layer's determinism contract.  :meth:`PagedKVCache.reserve` raises
:class:`~repro.runtime.errors.CacheExhausted` *before* any byte is
written, so the scheduler can preempt and retry without ever observing a
half-written cache.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.runtime.errors import CacheExhausted

__all__ = ["PagedKVCache", "RaggedView"]


class PagedKVCache:
    """Block-pooled KV storage shared by a set of sequences.

    ``num_blocks`` blocks of ``block_size`` token slots each are shared
    across sequences; every block stores all ``n_layers`` layers, so one
    block reservation covers the whole depth of the model.  Pools are
    allocated lazily on the first append (head count, head dimension and
    dtype are taken from the first key tensor seen).
    """

    def __init__(
        self, n_layers: int, block_size: int = 16, num_blocks: int = 64
    ) -> None:
        if n_layers < 1:
            raise ValueError("n_layers must be positive")
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if num_blocks < 1:
            raise ValueError("num_blocks must be positive")
        self.n_layers = int(n_layers)
        self.block_size = int(block_size)
        self.num_blocks = int(num_blocks)
        # Free list is a stack; blocks are handed out from the end and
        # returned in free() order, keeping allocation deterministic for a
        # deterministic sequence of operations.
        self._free: list[int] = list(range(self.num_blocks - 1, -1, -1))
        self._tables: dict[str, list[int]] = {}
        self._lengths: dict[str, list[int]] = {}
        self._keys: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None

    # -- pool accounting -------------------------------------------------
    @property
    def free_blocks(self) -> int:
        """Blocks currently available in the pool."""
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        """Blocks currently assigned to live sequences."""
        return self.num_blocks - len(self._free)

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` positions."""
        if tokens <= 0:
            return 0
        return -(-tokens // self.block_size)

    def can_reserve(self, seq_id: str, total_tokens: int) -> bool:
        """Whether :meth:`reserve` for ``total_tokens`` would succeed."""
        held = len(self._tables.get(seq_id, ()))
        return self.blocks_for(total_tokens) - held <= len(self._free)

    def seq_ids(self) -> tuple[str, ...]:
        """Live sequence ids, in allocation order."""
        return tuple(self._tables)

    def length(self, seq_id: str, layer: int = 0) -> int:
        """Committed token count of a sequence at ``layer``."""
        return self._lengths[seq_id][layer]

    # -- sequence lifecycle ----------------------------------------------
    def allocate(self, seq_id: str) -> None:
        """Register an empty sequence (no blocks reserved yet)."""
        if seq_id in self._tables:
            raise ValueError(f"sequence {seq_id!r} is already allocated")
        self._tables[seq_id] = []
        self._lengths[seq_id] = [0] * self.n_layers

    def reserve(self, seq_id: str, total_tokens: int) -> None:
        """Grow the block table to cover ``total_tokens`` positions.

        Allocation-only — no cache bytes are touched — so a
        :class:`CacheExhausted` here leaves every sequence consistent and
        the scheduler free to preempt and retry.
        """
        table = self._tables[seq_id]
        needed = self.blocks_for(total_tokens) - len(table)
        if needed <= 0:
            return
        if needed > len(self._free):
            raise CacheExhausted(
                f"KV block pool exhausted: sequence {seq_id!r} needs "
                f"{needed} more block(s), {len(self._free)} free "
                f"(pool {self.num_blocks} x {self.block_size} tokens)"
            )
        for _ in range(needed):
            table.append(self._free.pop())

    def free(self, seq_id: str) -> int:
        """Release a sequence's blocks back to the pool; returns the count."""
        table = self._tables.pop(seq_id, None)
        self._lengths.pop(seq_id, None)
        if table is None:
            return 0
        self._free.extend(table)
        return len(table)

    def free_all(self) -> None:
        """Release every sequence (worker reset)."""
        for seq_id in list(self._tables):
            self.free(seq_id)

    # -- storage ----------------------------------------------------------
    def append(
        self, layer: int, seq_id: str, k: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Append ``(1, heads, t, d_head)`` keys/values for one sequence.

        Returns the sequence's full cached history at ``layer`` as two
        read-only ``(1, heads, length, d_head)`` arrays (see
        :meth:`gather`).
        """
        if k.ndim != 4 or k.shape[0] != 1:
            raise ValueError(
                f"expected (1, heads, t, d_head) keys, got {k.shape}"
            )
        if self._keys is None:
            heads, d_head = k.shape[1], k.shape[3]
            shape = (self.n_layers, self.num_blocks, heads, self.block_size,
                     d_head)
            self._keys = np.zeros(shape, dtype=k.dtype)
            self._values = np.zeros(shape, dtype=k.dtype)
        lengths = self._lengths[seq_id]
        start = lengths[layer]
        end = start + k.shape[2]
        table = self._tables[seq_id]
        if end > len(table) * self.block_size:
            self.reserve(seq_id, end)
        pos = start
        while pos < end:
            block = table[pos // self.block_size]
            offset = pos % self.block_size
            take = min(self.block_size - offset, end - pos)
            sel = (layer, block, slice(None), slice(offset, offset + take))
            self._keys[sel] = k[0, :, pos - start : pos - start + take]
            self._values[sel] = v[0, :, pos - start : pos - start + take]
            pos += take
        lengths[layer] = end
        return self.gather(layer, seq_id)

    def gather(
        self, layer: int, seq_id: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """The sequence's cached ``(1, heads, length, d_head)`` history.

        Both arrays have the write flag cleared, so callers cannot corrupt
        pool state through them.  A history inside one block is a view of
        the pool, valid until the sequence is freed (later appends write
        only past its end); a longer one is gathered into a fresh copy.
        """
        length = self._lengths[seq_id][layer]
        table = self._tables[seq_id]
        if 0 < length <= self.block_size:
            block = slice(table[0], table[0] + 1)
            keys = self._keys[layer, block, :, :length]
            values = self._values[layer, block, :, :length]
        else:
            blocks = np.asarray(table[: self.blocks_for(length)], dtype=np.intp)
            keys, values = (
                _flatten(pool[layer, blocks], length)
                for pool in (self._keys, self._values)
            )
        keys.flags.writeable = False
        values.flags.writeable = False
        return keys, values

    def ragged_view(self, seq_ids: Sequence[str]) -> "RaggedView":
        """Batch row ``b`` → sequence ``seq_ids[b]``, at layer 0."""
        return RaggedView(self, seq_ids)


def _flatten(stacked: np.ndarray, length: int) -> np.ndarray:
    """``(n_blocks, heads, block, d)`` → contiguous ``(1, heads, length, d)``."""
    heads, d_head = stacked.shape[1], stacked.shape[3]
    flat = stacked.transpose(1, 0, 2, 3).reshape(heads, -1, d_head)
    return np.ascontiguousarray(flat[None, :, :length])


class RaggedView:
    """Maps the rows of a batch onto paged sequences at one layer.

    The cache handle :meth:`~repro.nn.transformer.LlamaModel.forward_cached`
    takes: row ``b`` reads and extends sequence ``seq_ids[b]``.  Rows may
    hold different lengths; :attr:`lengths` is where each row's new tokens
    start, so the cache is the single source of truth for positions.
    """

    def __init__(
        self, cache: PagedKVCache, seq_ids: Sequence[str], layer: int = 0
    ) -> None:
        self._cache = cache
        self._seq_ids = list(seq_ids)
        self._layer = layer

    @property
    def lengths(self) -> list[int]:
        """Cached length of every row at this view's layer."""
        lengths, layer = self._cache._lengths, self._layer
        return [lengths[seq_id][layer] for seq_id in self._seq_ids]

    def at_layer(self, layer: int) -> "RaggedView":
        """The same rows at another layer."""
        return RaggedView(self._cache, self._seq_ids, layer)

    def append(
        self, row: int, k: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Append row ``row``'s new K/V; returns its read-only history."""
        return self._cache.append(self._layer, self._seq_ids[row], k, v)
