"""Worker-resident block cache and the cache-generation protocol.

Serial and thread tasks hit the driver's block store directly; process
tasks hit a store resident in each forked worker, with cache events
relayed back through the task result.  The accounting must look the same
from the driver's bus either way, and a generation bump (``unpersist``)
must invalidate worker entries the driver cannot reach.
"""

import pytest

from repro.engine import Context
from repro.engine.blockstore import BlockStore
from repro.engine.listener import CacheEvict, CacheHit, CacheMiss, RecordingListener


class TestGenerationAwareStore:
    def test_put_get_same_generation(self):
        store = BlockStore(1 << 20)
        store.put((0, 0), [1, 2], generation=3)
        assert store.get((0, 0), generation=3) == [1, 2]
        assert store.hits == 1

    def test_default_generation_is_zero(self):
        store = BlockStore(1 << 20)
        store.put((0, 0), [1])
        assert store.get((0, 0), generation=0) == [1]

    def test_stale_generation_purges_and_misses(self):
        store = BlockStore(1 << 20)
        store.put((0, 0), [1, 2], generation=0)
        assert store.get((0, 0), generation=1) is None
        assert store.misses == 1
        assert store.evictions == 1
        assert len(store) == 0
        # A fresh put at the new generation works as usual.
        store.put((0, 0), [3], generation=1)
        assert store.get((0, 0), generation=1) == [3]

    def test_stale_purge_posts_evict_event(self):
        from repro.engine.listener import EventBus

        bus = EventBus()
        rec = bus.register(RecordingListener())
        store = BlockStore(1 << 20, bus=bus)
        store.put((7, 0), [1], generation=0)
        store.get((7, 0), generation=2)
        evicts = rec.of_type(CacheEvict)
        assert [(e.rdd_id, e.partition) for e in evicts] == [(7, 0)]
        assert rec.of_type(CacheMiss)


def _cache_counts(rec: RecordingListener, rdd_id: int):
    hits = sum(1 for e in rec.of_type(CacheHit) if e.rdd_id == rdd_id)
    misses = sum(1 for e in rec.of_type(CacheMiss) if e.rdd_id == rdd_id)
    evicts = sum(1 for e in rec.of_type(CacheEvict) if e.rdd_id == rdd_id)
    return hits, misses, evicts


@pytest.fixture(params=["serial", "threads", "processes"])
def cache_ctx(request):
    # parallelism=1 keeps process mode deterministic: one worker serves
    # every task, so its resident cache sees every repeated partition.
    with Context(mode=request.param, parallelism=1) as c:
        yield c


class TestCacheAccountingAcrossModes:
    def test_miss_then_hit(self, cache_ctx):
        rec = cache_ctx.add_listener(RecordingListener())
        try:
            rdd = cache_ctx.parallelize(list(range(8)), 1).map(lambda x: x * 2).cache()
            rdd.count()
            hits, misses, _ = _cache_counts(rec, rdd.id)
            assert misses == 1 and hits == 0
            rec.clear()
            rdd.count()
            rdd.count()
            hits, misses, _ = _cache_counts(rec, rdd.id)
            assert hits == 2 and misses == 0
        finally:
            cache_ctx.remove_listener(rec)

    def test_generation_bump_invalidates(self, cache_ctx):
        rec = cache_ctx.add_listener(RecordingListener())
        try:
            rdd = cache_ctx.parallelize(list(range(4)), 1).map(lambda x: x + 1).cache()
            rdd.count()
            rdd.count()
            rec.clear()
            rdd.unpersist()
            rdd.cache()
            rdd.count()
            hits, misses, _ = _cache_counts(rec, rdd.id)
            # The stale entry (wherever it lives) must not serve: the
            # re-cached access is a miss, not a hit.
            assert misses == 1 and hits == 0
            rec.clear()
            rdd.count()
            hits, misses, _ = _cache_counts(rec, rdd.id)
            assert hits == 1 and misses == 0
        finally:
            cache_ctx.remove_listener(rec)


class TestWorkerResidentCache:
    """Process-mode specifics: the cache lives in the forked worker."""

    def test_build_runs_once_per_partition_per_generation(self, tmp_path):
        with Context(mode="processes", parallelism=1) as ctx:
            log = tmp_path / "builds"  # file-counted: survives the fork boundary
            log.touch()

            def tap(x):
                with open(log, "a") as fh:
                    fh.write("x")
                return x

            def builds():
                return len(log.read_text())

            rdd = ctx.parallelize(list(range(6)), 1).map(tap).cache()
            rdd.count()
            assert builds() == 6  # first action builds the partition
            rdd.count()
            rdd.collect()
            assert builds() == 6  # served from the worker store, no rebuild
            rdd.unpersist()
            rdd.cache()
            rdd.count()
            assert builds() == 12  # new generation: exactly one rebuild

    def test_worker_evict_relayed_to_driver_bus(self):
        # A worker store too small for two partitions must evict, and the
        # eviction must surface on the driver bus despite happening in a
        # forked process.
        import numpy as np

        from repro.engine.config import EngineConfig

        config = EngineConfig(
            mode="processes", parallelism=1, worker_cache_capacity_bytes=40_000
        )
        with Context(config=config) as ctx:
            rec = ctx.add_listener(RecordingListener())
            a = ctx.parallelize([np.zeros(4096)], 1).map(lambda x: x + 1).cache()
            b = ctx.parallelize([np.zeros(4096)], 1).map(lambda x: x + 2).cache()
            a.count()
            b.count()  # caching b (32 KB) must push a (32 KB) out
            a.count()
            _hits_a, misses_a, evicts_a = _cache_counts(rec, a.id)
            assert evicts_a >= 1
            assert misses_a == 2  # initial build + post-eviction rebuild

    def test_cached_blocks_survive_across_jobs(self):
        # The point of the worker-resident store: repeated actions against
        # a cached RDD must not re-run its lineage in process mode.
        with Context(mode="processes", parallelism=1) as ctx:
            rec = ctx.add_listener(RecordingListener())
            rdd = ctx.parallelize(list(range(10)), 1).map(lambda x: x * x).cache()
            total = rdd.sum()
            for _ in range(3):
                assert rdd.sum() == total
            hits, misses, _ = _cache_counts(rec, rdd.id)
            assert misses == 1
            assert hits == 3
