"""EngineConfig validation."""

import dataclasses

import pytest

from repro.engine.config import EngineConfig


class TestEngineConfig:
    def test_defaults(self):
        cfg = EngineConfig()
        assert cfg.mode == "threads"
        assert cfg.effective_parallelism >= 1

    def test_explicit_parallelism(self):
        assert EngineConfig(parallelism=3).effective_parallelism == 3

    def test_option_surface(self):
        # Every field is an option tests and benchmarks must cover.
        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "mode", "parallelism", "max_task_retries", "cache_capacity_bytes",
            "worker_cache_capacity_bytes", "enable_events", "flight_recorder",
            "flight_capacity", "slow_threshold_s", "lock_sanitizer",
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "bogus"},
            {"parallelism": -1},
            {"max_task_retries": -1},
            {"cache_capacity_bytes": 0},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    def test_with_replaces_fields(self):
        cfg = EngineConfig(parallelism=2).with_(mode="serial")
        assert cfg.mode == "serial"
        assert cfg.parallelism == 2

    def test_frozen(self):
        cfg = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.mode = "serial"

