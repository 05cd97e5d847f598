"""Narrow transformations and dataset constructors."""

import pytest


class TestParallelize:
    def test_collect_round_trip(self, ctx):
        data = list(range(37))
        assert ctx.parallelize(data, 5).collect() == data

    def test_partition_count_capped_by_size(self, ctx):
        rdd = ctx.parallelize([1, 2], 16)
        assert rdd.num_partitions == 2

    def test_empty_collection(self, ctx):
        rdd = ctx.parallelize([], 4)
        assert rdd.collect() == []
        assert rdd.num_partitions == 1

    def test_partitions_cover_all_data(self, ctx):
        parts = ctx.run_job(ctx.parallelize(list(range(10)), 3), list)
        assert sorted(x for p in parts for x in p) == list(range(10))
        assert len(parts) == 3


class TestRange:
    def test_basic(self, ctx):
        assert ctx.range(10).collect() == list(range(10))

    def test_start_stop_step(self, ctx):
        assert ctx.range(2, 20, 3, num_partitions=4).collect() == list(range(2, 20, 3))

    def test_negative_step(self, ctx):
        assert ctx.range(10, 0, -2, num_partitions=3).collect() == list(range(10, 0, -2))

    def test_empty_range(self, ctx):
        assert ctx.range(5, 5).collect() == []

    def test_zero_step_raises(self, ctx):
        with pytest.raises(ValueError):
            ctx.range(0, 10, 0)


class TestMapFilter:
    def test_map(self, ctx):
        assert ctx.range(5, num_partitions=2).map(lambda x: x * x).collect() == [0, 1, 4, 9, 16]

    def test_filter(self, ctx):
        out = ctx.range(10, num_partitions=3).filter(lambda x: x % 2 == 0).collect()
        assert out == [0, 2, 4, 6, 8]

    def test_chained_pipeline(self, ctx):
        out = (
            ctx.range(20, num_partitions=4)
            .map(lambda x: x + 1)
            .filter(lambda x: x % 3 == 0)
            .map(str)
            .collect()
        )
        assert out == ["3", "6", "9", "12", "15", "18"]

    def test_map_partitions(self, ctx):
        out = ctx.range(10, num_partitions=2).map_partitions(lambda it: [sum(it)]).collect()
        assert sum(out) == 45
        assert len(out) == 2

    def test_map_partitions_with_index(self, ctx):
        out = ctx.range(4, num_partitions=2).map_partitions_with_index(
            lambda i, it: [(i, x) for x in it]
        ).collect()
        assert out == [(0, 0), (0, 1), (1, 2), (1, 3)]


class TestTakeFirst:
    def test_take_fewer_than_available(self, ctx):
        assert ctx.range(100, num_partitions=8).take(5) == [0, 1, 2, 3, 4]

    def test_take_more_than_available(self, ctx):
        assert ctx.range(3, num_partitions=2).take(10) == [0, 1, 2]

    def test_take_zero(self, ctx):
        assert ctx.range(10).take(0) == []
