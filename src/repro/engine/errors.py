"""Exception taxonomy for the dataflow engine."""

from __future__ import annotations

__all__ = [
    "EngineError",
    "JobFailedError",
    "TaskFailedError",
    "SerializationError",
    "ClosureSerializationError",
    "ContextStoppedError",
]


class EngineError(RuntimeError):
    """Base class for all engine failures.

    When the owning context has a flight recorder, the scheduler
    attaches the last event window to any failure escaping ``run_job``
    as :attr:`post_mortem` (a list of event dicts, oldest first), so the
    traceback carries the engine's black box with it.
    """

    #: Last-N engine events before the failure (None = no recorder).
    post_mortem = None


class TaskFailedError(EngineError):
    """A single task exhausted its retries.

    Carries the stage/partition coordinates and the last underlying
    exception so job-level handlers can report precisely what died.
    """

    def __init__(self, stage_id: int, partition: int, attempts: int, cause: BaseException):
        super().__init__(
            f"task failed: stage={stage_id} partition={partition} "
            f"after {attempts} attempt(s): {cause!r}"
        )
        self.stage_id = stage_id
        self.partition = partition
        self.attempts = attempts
        self.cause = cause


class JobFailedError(EngineError):
    """A job aborted because one of its stages could not complete."""


class SerializationError(EngineError):
    """A closure or record could not be pickled for process execution."""


class ClosureSerializationError(SerializationError):
    """A task closure failed to serialize, with the capture localized.

    Raised instead of a bare :class:`SerializationError` when the
    :mod:`repro.lint` bridge can name the unpicklable capture — the
    message then carries the capture path (function definition site,
    closure cell / default name), the lint rule that flags it
    statically, and :attr:`capture_path` / :attr:`rule` for
    programmatic handling.
    """

    def __init__(self, message: str, *, capture_path=(), rule=None):
        super().__init__(message)
        self.capture_path = tuple(capture_path)
        self.rule = rule


class ContextStoppedError(EngineError):
    """An operation was attempted on a stopped :class:`~repro.engine.Context`."""
