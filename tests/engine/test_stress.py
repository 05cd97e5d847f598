"""Stress and interaction tests: many partitions, eviction, deep chains."""

import numpy as np

from repro.engine import Context, EngineConfig


class TestManyPartitions:
    def test_many_small_partitions(self, ctx):
        rdd = ctx.parallelize(list(range(64)), 64)
        assert rdd.num_partitions == 64
        assert rdd.map(lambda x: x * x).sum() == sum(i * i for i in range(64))

    def test_deep_narrow_chain(self, ctx):
        rdd = ctx.range(100, num_partitions=4)
        for _ in range(60):
            rdd = rdd.map(lambda x: x + 1)
        assert rdd.sum() == sum(range(100)) + 60 * 100

    def test_iterated_cached_updates(self, ctx):
        """The lattice's update loop, 40 rounds deep: each round maps the
        previous cached blocks, caches the result, aggregates it and
        unpersists its predecessor."""
        blocks = [np.full(256, float(i)) for i in range(8)]
        cached_before = len(ctx.block_store)
        rdd = ctx.parallelize(blocks, 8).cache()
        for step in range(40):
            updated = rdd.map(lambda b: b + 1.0).cache()
            total = updated.tree_aggregate(
                0.0, lambda acc, b: acc + float(b.sum()), lambda a, b: a + b
            )
            assert total == 256 * (sum(range(8)) + 8 * (step + 1))
            rdd.unpersist()
            rdd = updated
        # only the live RDD's partitions remain cached
        assert len(ctx.block_store) == cached_before + 8


class TestCacheEviction:
    def test_eviction_does_not_break_results(self):
        cfg = EngineConfig(mode="serial", cache_capacity_bytes=4096)
        with Context(config=cfg) as ctx:
            rdds = [
                ctx.parallelize(list(range(i * 100, i * 100 + 100)), 2).cache()
                for i in range(8)
            ]
            for r in rdds:
                r.count()  # fill far beyond capacity → evictions
            assert ctx.block_store.evictions > 0
            # Every RDD still answers correctly (evicted ones recompute).
            for i, r in enumerate(rdds):
                assert r.sum() == sum(range(i * 100, i * 100 + 100))

    def test_numpy_partition_caching(self, ctx):
        arrays = ctx.parallelize([np.arange(1000) for _ in range(4)], 4).cache()
        first = arrays.map(lambda a: float(a.sum())).sum()
        second = arrays.map(lambda a: float(a.sum())).sum()
        assert first == second == 4 * float(np.arange(1000).sum())


class TestMixedWorkload:
    def test_cached_base_reused_by_downstream_branches(self, ctx):
        base = ctx.range(50, num_partitions=4).map(lambda x: x * x).cache()
        total = base.sum()
        hits_before = ctx.block_store.hits
        doubled = base.map(lambda v: v * 2).tree_aggregate(
            0, lambda a, x: a + x, lambda a, b: a + b
        )
        assert doubled == 2 * total == 2 * sum(i * i for i in range(50))
        assert ctx.block_store.hits == hits_before + 4  # the branch read the cache
