"""LRU block store backing ``RDD.cache()``.

Cached partitions are lists of records (often single NumPy-block records
in SBGT, so "list of one array").  Sizes are estimated with
``sys.getsizeof`` plus ``nbytes`` for NumPy payloads; the store evicts
least-recently-used whole partitions when over budget, never splitting a
partition.

Entries carry a **cache generation**: the epoch ``RDD.unpersist`` bumps
on the RDD object, which process-mode tasks receive pickled into their
body.  The driver store invalidates eagerly (``unpersist`` calls ``drop_rdd``),
so its generations always match; worker-resident stores have no channel
back to the driver, so a ``get`` carrying a newer generation is how a
worker learns an entry went stale — the entry is purged (counted as an
eviction) and the access is a miss.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.listener import CacheEvict, CacheHit, CacheMiss, EventBus
from repro.engine.lockorder import OrderedLock

__all__ = ["BlockStore"]

BlockKey = Tuple[int, int]  # (rdd_id, partition_id)


def _estimate_size(records: List[Any]) -> int:
    total = sys.getsizeof(records)
    for r in records[:1000]:  # sample cap: huge partitions estimate from prefix
        if isinstance(r, np.ndarray):
            total += r.nbytes
        elif isinstance(r, tuple) and any(isinstance(x, np.ndarray) for x in r):
            total += sum(x.nbytes if isinstance(x, np.ndarray) else sys.getsizeof(x) for x in r)
        else:
            total += sys.getsizeof(r)
    if len(records) > 1000:
        total = int(total * len(records) / 1000)
    return total


class BlockStore:
    """Thread-safe LRU cache of materialized RDD partitions."""

    def __init__(self, capacity_bytes: int, bus: Optional[EventBus] = None) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self._blocks: "OrderedDict[BlockKey, List[Any]]" = OrderedDict()
        self._sizes: Dict[BlockKey, int] = {}
        self._gens: Dict[BlockKey, int] = {}
        self._used = 0
        self._lock = OrderedLock("BlockStore._lock")
        self._bus = bus
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: BlockKey, generation: int = 0) -> Optional[List[Any]]:
        stale_size = 0
        with self._lock:
            block = self._blocks.get(key)
            if block is not None and self._gens.get(key, 0) != generation:
                # Stale generation: the driver unpersisted this RDD since
                # the entry was cached.  Purge and treat as a miss.
                stale_size = self._sizes.pop(key)
                self._gens.pop(key, None)
                del self._blocks[key]
                self._used -= stale_size
                self.evictions += 1
                block = None
            if block is None:
                self.misses += 1
            else:
                self._blocks.move_to_end(key)
                self.hits += 1
        bus = self._bus
        if bus:
            if stale_size:
                bus.post(CacheEvict(key[0], key[1], stale_size))
            bus.post(CacheMiss(*key) if block is None else CacheHit(*key))
        return block

    def put(self, key: BlockKey, records: List[Any], generation: int = 0) -> None:
        size = _estimate_size(records)
        evicted: List[tuple] = []
        with self._lock:
            if key in self._blocks:
                self._used -= self._sizes[key]
                del self._blocks[key]
            # A single partition bigger than the whole budget is stored
            # anyway (dropping it would livelock callers); it just evicts
            # everything else.
            while self._used + size > self.capacity_bytes and self._blocks:
                old_key, _ = self._blocks.popitem(last=False)
                old_size = self._sizes.pop(old_key)
                self._gens.pop(old_key, None)
                self._used -= old_size
                self.evictions += 1
                evicted.append((old_key, old_size))
            self._blocks[key] = records
            self._sizes[key] = size
            self._gens[key] = generation
            self._used += size
        bus = self._bus
        if bus:
            for (rdd_id, partition), old_size in evicted:
                bus.post(CacheEvict(rdd_id, partition, old_size))

    def size_of(self, key: BlockKey) -> Optional[int]:
        """Recorded size of a held block, or ``None``; a read-only lookup
        (no LRU touch, no hit/miss count, no event)."""
        with self._lock:
            return self._sizes.get(key)

    def drop_rdd(self, rdd_id: int) -> int:
        """Evict every cached partition of one RDD; returns count dropped."""
        evicted: List[Tuple[BlockKey, int]] = []
        with self._lock:
            keys = [k for k in self._blocks if k[0] == rdd_id]
            for k in keys:
                size = self._sizes.pop(k)
                self._gens.pop(k, None)
                self._used -= size
                del self._blocks[k]
                self.evictions += 1
                evicted.append((k, size))
        bus = self._bus
        if bus:
            for (rid, partition), size in evicted:
                bus.post(CacheEvict(rid, partition, size))
        return len(evicted)

    def clear(self) -> None:
        with self._lock:
            self._blocks.clear()
            self._sizes.clear()
            self._gens.clear()
            self._used = 0

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._used

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)
