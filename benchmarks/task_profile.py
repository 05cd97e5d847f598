"""Task profiles read off the event stream, and their LPT projection (R4).

The engine tells every task's wall time once, as ``TaskEnd.wall_s`` on
the context's event bus, next to the ``StageEnd`` / ``JobEnd`` walls of
the stage and job it ran in.  R4 records that stream for a serial
many-block workload and projects it onto p simulated executors (the
DESIGN.md substitution for the cores this host does not have).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.engine.listener import EngineEvent, JobEnd, StageEnd, TaskEnd

__all__ = ["simulated_makespan", "task_profile", "projected_time"]


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


def task_profile(events: Iterable[EngineEvent]) -> Tuple[List[List[float]], float]:
    """``(task walls per stage, dispatch overhead per task)`` of a recorded stream.

    The overhead is the job wall time outside the stages' task waves
    (``JobEnd.wall_s`` − ``StageEnd.wall_s``), shared over every task.
    """
    stages: Dict[int, List[float]] = {}
    job_wall = stage_wall = 0.0
    for event in events:
        if isinstance(event, TaskEnd):
            stages.setdefault(event.stage_id, []).append(event.wall_s)
        elif isinstance(event, StageEnd):
            stage_wall += event.wall_s
        elif isinstance(event, JobEnd):
            job_wall += event.wall_s
    tasks = sum(len(walls) for walls in stages.values())
    return list(stages.values()), max(0.0, job_wall - stage_wall) / max(tasks, 1)


def projected_time(stages: List[List[float]], workers: int, per_task_overhead_s: float = 0.0) -> float:
    """Stages run one after another, each LPT-scheduled onto *workers*."""
    return sum(simulated_makespan(walls, workers, per_task_overhead_s) for walls in stages)
