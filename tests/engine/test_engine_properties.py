"""Property-based engine tests: RDD ops agree with Python built-ins."""

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
@given(data=st.lists(st.integers(0, 100), min_size=1, max_size=60), n=parts)
def test_reduce_max_matches_builtin(data, n):
    assert _CTX.parallelize(data, n).reduce(max) == max(data)


@common
@given(data=ints, n=parts, k=st.integers(0, 10))
def test_take_matches_prefix(data, n, k):
    assert _CTX.parallelize(data, n).take(k) == data[:k]
