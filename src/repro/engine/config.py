"""Engine configuration.

The configuration mirrors the knobs the paper's Spark deployment exposes
(executor count, default parallelism) plus the execution-mode switch that replaces cluster deployment in this
reproduction: ``serial`` (debugging / baseline), ``threads`` (default —
NumPy kernels release the GIL so partition tasks genuinely overlap), and
``processes`` (fork-based isolation, closest to separate executors).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace


__all__ = ["EngineConfig", "ExecMode"]

ExecMode = str  # "serial" | "threads" | "processes"

_VALID_MODES = ("serial", "threads", "processes")


@dataclass(frozen=True)
class EngineConfig:
    """Immutable engine settings.

    Parameters
    ----------
    mode:
        Execution backend: ``"serial"``, ``"threads"`` or ``"processes"``.
    parallelism:
        Number of concurrent task slots (and the default partition count
        for new RDDs).  ``0`` means "number of CPUs".
    max_task_retries:
        How many times a failing task is retried before the job aborts.
    cache_capacity_bytes:
        LRU budget of the block store for ``cache()``-ed partitions.
    worker_cache_capacity_bytes:
        Process mode only: LRU budget of each forked worker's resident
        block store (every worker holds its own).  Smaller than the
        driver budget by default because the total is multiplied by the
        worker count.
    enable_events:
        Master switch of the listener bus.  ``False`` hard-disables
        event delivery even with listeners registered (overhead
        experiments); the default ``True`` still costs nothing until a
        listener subscribes.
    flight_recorder:
        Register the always-on :class:`~repro.obs.flight.FlightRecorder`
        on the context's bus (the black box behind ``/debug`` endpoints
        and failure post-mortems).  Requires ``enable_events``.
    flight_capacity:
        Ring-buffer size of the flight recorder, events.
    slow_threshold_s:
        Operations (tasks, stages, jobs, requests) slower than this are
        copied into the recorder's slow-op log.
    lock_sanitizer:
        Runtime lock-order sanitizer mode applied when the context is
        created: ``"off"``, ``"record"`` (log violations, post bus
        events, count them in the hub) or ``"raise"`` (fail loudly at
        the inverted acquisition).  The default ``""`` leaves the
        process-wide mode alone (i.e. whatever ``REPRO_LOCK_SANITIZER``
        or an earlier :func:`repro.engine.lockorder.set_sanitizer_mode`
        call selected).
    """

    mode: ExecMode = "threads"
    parallelism: int = 0
    max_task_retries: int = 2
    cache_capacity_bytes: int = 1 << 30
    worker_cache_capacity_bytes: int = 256 << 20
    enable_events: bool = True
    flight_recorder: bool = True
    flight_capacity: int = 4096
    slow_threshold_s: float = 0.1
    lock_sanitizer: str = ""

    def __post_init__(self) -> None:
        if self.mode not in _VALID_MODES:
            raise ValueError(f"mode must be one of {_VALID_MODES}, got {self.mode!r}")
        if self.parallelism < 0:
            raise ValueError("parallelism must be >= 0")
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        if self.cache_capacity_bytes <= 0:
            raise ValueError("cache_capacity_bytes must be positive")
        if self.worker_cache_capacity_bytes <= 0:
            raise ValueError("worker_cache_capacity_bytes must be positive")
        if self.flight_capacity <= 0:
            raise ValueError("flight_capacity must be positive")
        if self.slow_threshold_s < 0:
            raise ValueError("slow_threshold_s must be >= 0")
        if self.lock_sanitizer not in ("", "off", "record", "raise"):
            raise ValueError(
                "lock_sanitizer must be '', 'off', 'record' or 'raise', "
                f"got {self.lock_sanitizer!r}"
            )

    @property
    def effective_parallelism(self) -> int:
        if self.parallelism:
            return self.parallelism
        return max(1, os.cpu_count() or 1)

    def with_(self, **kwargs) -> "EngineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
