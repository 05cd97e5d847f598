"""RDD.debug_string: the lineage chain as text."""


class TestDebugString:
    def test_shows_lineage(self, ctx):
        rdd = ctx.range(10, num_partitions=2).map(lambda x: x * x).filter(lambda x: x % 2)
        lines = rdd.debug_string().splitlines()
        # child first, one level of indent per ancestor, source last
        assert [ln.strip().split("[")[0] for ln in lines] == [
            "(2) MapPartitionsRDD", "(2) MapPartitionsRDD", "(2) RangeRDD",
        ]
        assert [len(ln) - len(ln.lstrip()) for ln in lines] == [0, 2, 4]
        assert lines[0].endswith(f"[{rdd.id}]")

    def test_narrow_only(self, ctx):
        out = ctx.range(4).map(lambda x: x).debug_string()
        assert "MapPartitionsRDD" in out
        assert "shuffle" not in out
