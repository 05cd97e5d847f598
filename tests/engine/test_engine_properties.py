"""Property-based engine tests: RDD ops agree with Python built-ins."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import Context

# One shared serial context: hypothesis generates many examples and
# process/thread pools would dominate runtime.
_CTX = Context(mode="serial", parallelism=2)

ints = st.lists(st.integers(min_value=-1000, max_value=1000), max_size=60)
parts = st.integers(min_value=1, max_value=7)

common = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow]
)


@common
@given(data=ints, n=parts)
def test_collect_is_identity(data, n):
    assert _CTX.parallelize(data, n).collect() == data


@common
@given(data=ints, n=parts)
def test_map_matches_builtin(data, n):
    assert _CTX.parallelize(data, n).map(lambda x: x * 2 + 1).collect() == [
        x * 2 + 1 for x in data
    ]


@common
@given(data=ints, n=parts)
def test_filter_matches_builtin(data, n):
    assert _CTX.parallelize(data, n).filter(lambda x: x % 3 == 0).collect() == [
        x for x in data if x % 3 == 0
    ]


@common
@given(data=ints, n=parts)
def test_count_and_sum(data, n):
    rdd = _CTX.parallelize(data, n)
    assert rdd.count() == len(data)
    assert rdd.sum() == sum(data)


@common
@given(data=ints, n=parts)
def test_distinct_matches_set(data, n):
    assert sorted(_CTX.parallelize(data, n).distinct().collect()) == sorted(set(data))


@common
@given(data=ints, n=parts)
def test_sort_matches_sorted(data, n):
    assert _CTX.parallelize(data, n).sort_by(lambda x: x).collect() == sorted(data)


@common
@given(data=ints, n=parts, m=parts)
def test_repartition_preserves_multiset(data, n, m):
    out = _CTX.parallelize(data, n).repartition(m).collect()
    assert sorted(out) == sorted(data)


@common
@given(data=st.lists(st.tuples(st.integers(0, 5), st.integers(-50, 50)), max_size=50), n=parts)
def test_reduce_by_key_matches_dict_fold(data, n):
    expected: dict = {}
    for k, v in data:
        expected[k] = expected.get(k, 0) + v
    out = dict(_CTX.parallelize(data, n).reduce_by_key(lambda a, b: a + b).collect())
    assert out == expected


@common
@given(data=st.lists(st.tuples(st.integers(0, 5), st.integers(-50, 50)), max_size=50), n=parts)
def test_group_by_key_matches_dict(data, n):
    expected: dict = {}
    for k, v in data:
        expected.setdefault(k, []).append(v)
    out = {k: sorted(v) for k, v in _CTX.parallelize(data, n).group_by_key().collect()}
    assert out == {k: sorted(v) for k, v in expected.items()}


@common
@given(data=st.lists(st.integers(0, 100), min_size=1, max_size=60), n=parts)
def test_reduce_max_matches_builtin(data, n):
    assert _CTX.parallelize(data, n).reduce(max) == max(data)


@common
@given(data=ints, n=parts, k=st.integers(0, 10))
def test_take_matches_prefix(data, n, k):
    assert _CTX.parallelize(data, n).take(k) == data[:k]


pairs_st = st.lists(st.tuples(st.integers(0, 6), st.integers(-9, 9)), max_size=40)


@common
@given(left=pairs_st, right=pairs_st, n=parts)
def test_inner_join_matches_oracle(left, right, n):
    expected = sorted(
        (k, (lv, rv)) for k, lv in left for k2, rv in right if k == k2
    )
    got = sorted(_CTX.parallelize(left, n).join(_CTX.parallelize(right, n)).collect())
    assert got == expected


@common
@given(left=pairs_st, right=pairs_st, n=parts)
def test_full_outer_join_covers_all_keys(left, right, n):
    got = _CTX.parallelize(left, n).full_outer_join(_CTX.parallelize(right, n)).collect()
    got_keys = {k for k, _ in got}
    assert got_keys == {k for k, _ in left} | {k for k, _ in right}


@common
@given(
    left=st.lists(st.integers(0, 20), max_size=40),
    right=st.lists(st.integers(0, 20), max_size=40),
    n=parts,
)
def test_subtract_matches_oracle(left, right, n):
    expected = sorted(x for x in left if x not in set(right))
    got = sorted(_CTX.parallelize(left, n).subtract(_CTX.parallelize(right, n)).collect())
    assert got == expected


@common
@given(
    left=st.lists(st.integers(0, 20), max_size=40),
    right=st.lists(st.integers(0, 20), max_size=40),
    n=parts,
)
def test_intersection_matches_oracle(left, right, n):
    expected = sorted(set(left) & set(right))
    got = sorted(
        _CTX.parallelize(left, n).intersection(_CTX.parallelize(right, n)).collect()
    )
    assert got == expected


@common
@given(data=st.lists(st.floats(-100, 100), min_size=1, max_size=60), n=parts)
def test_stats_matches_numpy(data, n):
    import numpy as np

    st_out = _CTX.parallelize(data, n).stats()
    assert st_out.count == len(data)
    assert st_out.mean == pytest.approx(float(np.mean(data)), abs=1e-9)
    assert st_out.stdev == pytest.approx(float(np.std(data)), abs=1e-9)


@common
@given(data=ints, n=parts, k=st.integers(1, 8))
def test_take_ordered_matches_sorted_prefix(data, n, k):
    assert _CTX.parallelize(data, n).take_ordered(k) == sorted(data)[:k]
