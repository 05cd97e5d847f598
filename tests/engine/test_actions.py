"""Actions: reductions, aggregations, counting."""

import numpy as np
import pytest

from repro.engine.errors import EngineError, JobFailedError


class TestReduceFold:
    def test_reduce_sum(self, ctx):
        assert ctx.range(100, num_partitions=7).reduce(lambda a, b: a + b) == 4950

    def test_reduce_single_element(self, ctx):
        assert ctx.parallelize([42], 1).reduce(lambda a, b: a + b) == 42

    def test_reduce_empty_raises(self, ctx):
        with pytest.raises(EngineError):
            ctx.parallelize([], 1).reduce(lambda a, b: a + b)

    def test_reduce_with_empty_partitions(self, ctx):
        # 3 records over 4 partitions: at least one partition is empty.
        assert ctx.parallelize([1, 2, 3], 4).reduce(lambda a, b: a + b) == 6

    def test_fold(self, ctx):
        assert ctx.range(10, num_partitions=3).fold(0, lambda a, b: a + b) == 45

    def test_fold_applies_zero_per_partition_like_spark(self, ctx):
        # Spark semantics: the zero is folded into every partition and
        # once more at the driver — 1 empty partition with zero=7 → 14.
        assert ctx.parallelize([], 1).fold(7, lambda a, b: a + b) == 14
        # The conventional identity zero is therefore safe:
        assert ctx.parallelize([], 1).fold(0, lambda a, b: a + b) == 0


class TestAggregate:
    def test_aggregate_mean(self, ctx):
        total, count = ctx.range(10, num_partitions=4).aggregate(
            (0, 0),
            lambda acc, x: (acc[0] + x, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        assert (total, count) == (45, 10)

    def test_mutable_zero_is_copied_per_partition(self, ctx):
        # SBGT's partial aggregations add into their accumulator in place;
        # a zero shared between partitions (or with the driver fold)
        # would double-count.
        zero = np.zeros(3)

        def add_in_place(acc, x):
            acc += x
            return acc

        rdd = ctx.parallelize([np.ones(3)] * 12, 4)
        for total in (
            rdd.aggregate(zero, add_in_place, add_in_place),
            rdd.fold(zero, add_in_place),
            rdd.tree_aggregate(zero, add_in_place, add_in_place, scale=2),
        ):
            assert total.tolist() == [12.0] * 3
        assert zero.tolist() == [0.0] * 3

    def test_tree_aggregate_matches_aggregate(self, ctx):
        rdd = ctx.range(1000, num_partitions=32)
        flat = rdd.aggregate(0, lambda a, x: a + x, lambda a, b: a + b)
        tree = rdd.tree_aggregate(0, lambda a, x: a + x, lambda a, b: a + b, depth=3)
        assert flat == tree == 499500

    def test_tree_aggregate_depth_one(self, ctx):
        out = ctx.range(10, num_partitions=4).tree_aggregate(
            0, lambda a, x: a + x, lambda a, b: a + b, depth=1
        )
        assert out == 45

    def test_tree_aggregate_invalid_depth(self, ctx):
        with pytest.raises(ValueError):
            ctx.range(10).tree_aggregate(0, lambda a, x: a, lambda a, b: a, depth=0)


class TestNumericActions:
    def test_sum(self, ctx):
        assert ctx.range(5, num_partitions=2).sum() == 10

    def test_sum_empty(self, ctx):
        assert ctx.parallelize([], 2).sum() == 0

    def test_count(self, ctx):
        assert ctx.range(123, num_partitions=7).count() == 123

    def test_count_empty(self, ctx):
        assert ctx.parallelize([], 3).count() == 0

    def test_max_min(self, ctx):
        rdd = ctx.parallelize([3, 9, 1, 7], 2)
        assert rdd.max() == 9
        assert rdd.min() == 1

    def test_max_with_key(self, ctx):
        rdd = ctx.parallelize(["a", "ccc", "bb"], 2)
        assert rdd.max(key=len) == "ccc"
        assert rdd.min(key=len) == "a"

    def test_mean(self, ctx):
        assert ctx.range(11, num_partitions=3).mean() == 5.0

    def test_mean_empty_raises(self, ctx):
        with pytest.raises(EngineError):
            ctx.parallelize([], 2).mean()


class TestRunJobPartitions:
    def test_specific_partitions(self, ctx):
        rdd = ctx.range(10, num_partitions=5)
        out = ctx.run_job(rdd, list, partitions=[1, 3])
        assert out == [[2, 3], [6, 7]]

    def test_out_of_range_partition_raises(self, ctx):
        rdd = ctx.range(10, num_partitions=2)
        with pytest.raises(JobFailedError):
            ctx.run_job(rdd, list, partitions=[5])
