"""Closure serialization: lambdas, nested functions, captured globals."""

import numpy as np
import pytest

from repro.engine.closure import deserialize_oob, serialize_oob
from repro.engine.errors import SerializationError

GLOBAL_FACTOR = 13


def roundtrip(obj):
    return deserialize_oob(*serialize_oob(obj))


def top_level_double(x):
    return x * 2


def uses_global(x):
    return x * GLOBAL_FACTOR


class TestSerializeFunctions:
    def test_top_level_function(self):
        fn = roundtrip(top_level_double)
        assert fn(21) == 42

    def test_lambda(self):
        fn = roundtrip(lambda x: x + 1)
        assert fn(1) == 2

    def test_lambda_with_closure(self):
        n = 10
        fn = roundtrip(lambda x: x + n)
        assert fn(5) == 15

    def test_nested_function(self):
        def outer(k):
            def inner(x):
                return x * k

            return inner

        fn = roundtrip(outer(3))
        assert fn(4) == 12

    def test_global_reference(self):
        fn = roundtrip(uses_global)
        assert fn(2) == 26

    def test_lambda_referencing_module(self):
        fn = roundtrip(lambda x: np.sqrt(x))
        assert fn(4.0) == 2.0

    def test_default_arguments(self):
        fn = roundtrip(lambda x, y=5: x + y)
        assert fn(1) == 6

    def test_kwonly_defaults(self):
        def f(x, *, scale=2):
            return x * scale

        fn = roundtrip(f)
        assert fn(3) == 6
        assert fn(3, scale=10) == 30


class TestSerializeData:
    def test_plain_objects(self):
        payload = {"a": [1, 2], "b": (3, 4)}
        assert roundtrip(payload) == payload

    def test_numpy_arrays(self):
        arr = np.arange(10)
        out = roundtrip(arr)
        assert np.array_equal(out, arr)

    def test_module_object(self):
        out = roundtrip(np)
        assert out is np

    def test_unpicklable_raises_serialization_error(self):
        import threading

        with pytest.raises(SerializationError):
            serialize_oob(threading.Lock())
