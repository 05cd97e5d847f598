"""Broadcast variables."""

import pytest

from repro.engine.broadcast import Broadcast


class TestBroadcast:
    def test_value_visible_in_tasks(self, ctx):
        bc = ctx.broadcast([10, 20, 30])
        out = ctx.range(3, num_partitions=3).map(lambda i: bc.value[i]).collect()
        assert out == [10, 20, 30]

    def test_large_object(self, ctx):
        bc = ctx.broadcast({i: i * i for i in range(1000)})
        assert ctx.range(10, num_partitions=2).map(lambda i: bc.value[i]).sum() == 285

    def test_destroy_blocks_access(self, ctx):
        bc = ctx.broadcast("x")
        bc.destroy()
        with pytest.raises(ValueError):
            _ = bc.value

    def test_unique_ids(self):
        assert Broadcast(1).id != Broadcast(1).id

    def test_pickle_round_trip(self):
        import pickle

        bc = Broadcast({"a": 1})
        clone = pickle.loads(pickle.dumps(bc))
        assert clone.value == {"a": 1}
        assert clone.id == bc.id
