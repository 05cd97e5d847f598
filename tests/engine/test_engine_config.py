"""EngineConfig validation and metrics objects."""

import dataclasses

import pytest

from repro.engine.config import EngineConfig
from repro.engine.metrics import JobMetrics, MetricsRegistry, StageMetrics, TaskMetrics


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


class TestMetricsObjects:
    def test_stage_rollups(self):
        stage = StageMetrics(1, "result", num_tasks=2)
        stage.tasks = [TaskMetrics(1, 0, wall_s=1.0), TaskMetrics(1, 1, wall_s=3.0)]
        assert stage.task_time_s == 4.0
        assert stage.max_task_s == 3.0
        assert stage.skew == 1.5

    def test_stage_skew_empty(self):
        assert StageMetrics(0, "result").skew == 1.0

    def test_job_summary(self):
        job = JobMetrics(0, wall_s=2.0)
        stage = StageMetrics(1, "result", num_tasks=1, wall_s=1.5)
        stage.tasks = [TaskMetrics(1, 0, wall_s=1.4)]
        job.stages.append(stage)
        summary = job.summary()
        assert summary["tasks"] == 1.0
        assert summary["overhead_s"] == pytest.approx(0.5)

    def test_registry_bounded(self):
        reg = MetricsRegistry(keep_last=3)
        for i in range(10):
            reg.record(JobMetrics(i))
        assert len(reg.jobs) == 3
        assert reg.last().job_id == 9

    def test_registry_clear(self):
        reg = MetricsRegistry()
        reg.record(JobMetrics(0))
        reg.clear()
        assert reg.last() is None
