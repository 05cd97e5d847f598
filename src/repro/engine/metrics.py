"""Job / stage / task metrics.

The scheduler stamps every task with wall time and record counts and rolls
them up into :class:`StageMetrics` / :class:`JobMetrics`.  The benchmark
harness reads these to report scheduling overhead separately from kernel
time (the distinction the paper's Spark evaluation cares about).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.engine.lockorder import OrderedLock

__all__ = [
    "TaskMetrics",
    "StageMetrics",
    "JobMetrics",
    "MetricsRegistry",
    "simulated_makespan",
    "simulated_stage_time",
]


def simulated_makespan(task_times_s: List[float], workers: int, per_task_overhead_s: float = 0.0) -> float:
    """Projected stage wall time on *workers* parallel executors.

    Greedy longest-processing-time (LPT) assignment of the measured task
    durations to ``workers`` slots; the makespan is the loaded slot's
    total.  This is how single-node task profiles are projected onto a
    cluster when physical cores are unavailable (the R4 substitution —
    see DESIGN.md).  ``per_task_overhead_s`` models per-task dispatch
    cost (serialization, scheduling RPC).
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    slots = [0.0] * workers
    for t in sorted(task_times_s, reverse=True):
        slot = min(range(workers), key=slots.__getitem__)
        slots[slot] += float(t) + per_task_overhead_s
    return max(slots) if slots else 0.0


def simulated_stage_time(stage: "StageMetrics", workers: int, per_task_overhead_s: float = 0.0) -> float:
    """Projected wall time of one recorded stage on *workers* executors."""
    return simulated_makespan([t.wall_s for t in stage.tasks], workers, per_task_overhead_s)


@dataclass
class TaskMetrics:
    stage_id: int
    partition: int
    wall_s: float = 0.0
    records_out: int = 0
    attempts: int = 1
    #: CPU seconds on the executing thread's CPU clock.
    cpu_s: float = 0.0
    #: Growth of the executing process's peak RSS during the task, KiB.
    rss_peak_kb: int = 0
    #: GC collection passes that ran during the task.
    gc_collections: int = 0


@dataclass
class StageMetrics:
    stage_id: int
    kind: str  # always "result": a job is one stage
    num_tasks: int = 0
    wall_s: float = 0.0
    tasks: List[TaskMetrics] = field(default_factory=list)

    @property
    def task_time_s(self) -> float:
        return sum(t.wall_s for t in self.tasks)

    @property
    def max_task_s(self) -> float:
        return max((t.wall_s for t in self.tasks), default=0.0)

    @property
    def cpu_time_s(self) -> float:
        return sum(t.cpu_s for t in self.tasks)

    @property
    def rss_peak_kb(self) -> int:
        """Largest per-task peak-RSS growth in the stage, KiB."""
        return max((t.rss_peak_kb for t in self.tasks), default=0)

    @property
    def gc_collections(self) -> int:
        return sum(t.gc_collections for t in self.tasks)

    @property
    def skew(self) -> float:
        """Max/mean task time — 1.0 is perfectly balanced partitions."""
        if not self.tasks:
            return 1.0
        mean = self.task_time_s / len(self.tasks)
        return self.max_task_s / mean if mean > 0 else 1.0


@dataclass
class JobMetrics:
    job_id: int
    description: str = ""
    wall_s: float = 0.0
    stages: List[StageMetrics] = field(default_factory=list)
    #: Originating trace id ("" when the job ran outside a trace scope).
    trace_id: str = ""
    #: Wall-clock epoch seconds at job start/end (0.0 = not stamped);
    #: derived from perf_counter + tracing.EPOCH_OFFSET so JSONL rollups
    #: join against tracer and flight-recorder output.
    t0_wall: float = 0.0
    t1_wall: float = 0.0
    succeeded: bool = True

    @property
    def num_tasks(self) -> int:
        return sum(s.num_tasks for s in self.stages)

    @property
    def scheduling_overhead_s(self) -> float:
        """Job wall time not attributable to the critical stage path."""
        return max(0.0, self.wall_s - sum(s.wall_s for s in self.stages))

    def summary(self) -> Dict[str, float]:
        return {
            "wall_s": self.wall_s,
            "stages": float(len(self.stages)),
            "tasks": float(self.num_tasks),
            "task_time_s": sum(s.task_time_s for s in self.stages),
            "overhead_s": self.scheduling_overhead_s,
            "cpu_s": sum(s.cpu_time_s for s in self.stages),
            "rss_peak_kb": float(max((s.rss_peak_kb for s in self.stages), default=0)),
            "gc_collections": float(sum(s.gc_collections for s in self.stages)),
        }


class MetricsRegistry:
    """Thread-safe sink for completed job metrics.

    When bound to a :class:`~repro.obs.metrics.MetricsHub` (duck-typed;
    this module never imports the obs layer), every recorded job also
    rolls into the hub's labelled ``repro_engine_*`` families, so the
    Prometheus exposition and the serve ``/metrics`` document see job,
    task, CPU, RSS and GC totals in every executor mode — the registry
    is fed by the scheduler directly, bus or no bus.
    """

    def __init__(self, keep_last: int = 256, hub=None) -> None:
        self._jobs: List[JobMetrics] = []
        self._keep = keep_last
        self._lock = OrderedLock("MetricsRegistry._lock")
        self._hub = None
        if hub is not None:
            self.bind_hub(hub)

    def bind_hub(self, hub) -> None:
        """Publish job rollups into *hub* from now on."""
        self._hub = hub
        self._h_jobs = hub.counter(
            "repro_engine_jobs_total", "Completed engine jobs by outcome",
            labels=("status",),
        )
        self._h_job_seconds = hub.histogram(
            "repro_engine_job_seconds", "End-to-end job wall time"
        )
        self._h_tasks = hub.counter(
            "repro_engine_tasks_total", "Tasks that produced a result"
        )
        self._h_task_seconds = hub.histogram(
            "repro_engine_task_seconds", "Per-task wall time"
        )
        self._h_cpu = hub.counter(
            "repro_engine_task_cpu_seconds_total", "CPU seconds consumed by tasks"
        )
        self._h_gc = hub.counter(
            "repro_engine_task_gc_collections_total",
            "GC collection passes observed during tasks",
        )
        self._h_rss = hub.gauge(
            "repro_engine_task_rss_peak_kb",
            "Largest single-task peak-RSS growth seen, KiB",
        )
        self._h_overhead = hub.counter(
            "repro_engine_scheduler_overhead_seconds_total",
            "Job wall time outside the critical stage path",
        )

    def _publish(self, job: JobMetrics) -> None:
        self._h_jobs.labels(status="ok" if job.succeeded else "failed").inc()
        self._h_job_seconds.observe(job.wall_s, trace_id=job.trace_id or None)
        self._h_overhead.inc(job.scheduling_overhead_s)
        for stage in job.stages:
            for task in stage.tasks:
                self._h_tasks.inc()
                self._h_task_seconds.observe(task.wall_s)
                self._h_cpu.inc(task.cpu_s)
                self._h_gc.inc(task.gc_collections)
                self._h_rss.set_max(task.rss_peak_kb)

    def record(self, job: JobMetrics) -> None:
        with self._lock:
            self._jobs.append(job)
            if len(self._jobs) > self._keep:
                del self._jobs[: len(self._jobs) - self._keep]
        if self._hub is not None:
            self._publish(job)

    @property
    def jobs(self) -> List[JobMetrics]:
        with self._lock:
            return list(self._jobs)

    def last(self) -> Optional[JobMetrics]:
        with self._lock:
            return self._jobs[-1] if self._jobs else None

    def total_task_time(self) -> float:
        with self._lock:
            return sum(s.task_time_s for j in self._jobs for s in j.stages)

    def dump_jsonl(self, path: Union[str, os.PathLike]) -> int:
        """Write one JSON line per recorded job; returns the line count.

        The layout mirrors the in-memory hierarchy (job → stages →
        tasks) so a trace viewer can reconstruct the stage tree without
        this package installed.  Each job line carries its wall-clock
        start/end (``t0_wall``/``t1_wall``, epoch seconds via
        ``tracing.EPOCH_OFFSET``) and originating ``trace_id``, so these
        rollups join against tracer and flight-recorder output.
        """
        jobs = self.jobs
        with open(path, "w", encoding="utf-8") as fh:
            for job in jobs:
                fh.write(
                    json.dumps(
                        {
                            "record": "job",
                            "job_id": job.job_id,
                            "description": job.description,
                            "wall_s": job.wall_s,
                            "t0_wall": job.t0_wall,
                            "t1_wall": job.t1_wall,
                            "trace_id": job.trace_id,
                            "stages": [
                                {
                                    "stage_id": s.stage_id,
                                    "kind": s.kind,
                                    "wall_s": s.wall_s,
                                    "num_tasks": s.num_tasks,
                                    "tasks": [
                                        {
                                            "partition": t.partition,
                                            "wall_s": t.wall_s,
                                            "attempts": t.attempts,
                                        }
                                        for t in s.tasks
                                    ],
                                }
                                for s in job.stages
                            ],
                        }
                    )
                    + "\n"
                )
        return len(jobs)

    def clear(self) -> None:
        with self._lock:
            self._jobs.clear()
