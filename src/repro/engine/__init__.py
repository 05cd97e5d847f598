"""A from-scratch Spark-like dataflow engine (the paper's substrate).

SBGT is written against Spark's RDD model and uses its narrow-map +
tree-reduce subset.  This package reimplements that subset natively:
lazy single-parent lineage, one-stage jobs of pipelined partition
tasks, broadcast variables, an LRU partition cache, and three executor
backends (serial / threads / processes).  See DESIGN.md for the
substitution rationale.
"""

from repro.engine.broadcast import Broadcast
from repro.engine.config import EngineConfig
from repro.engine.context import Context
from repro.engine.errors import (
    ClosureSerializationError,
    ContextStoppedError,
    EngineError,
    JobFailedError,
    SerializationError,
    TaskFailedError,
)
from repro.engine.listener import EngineEvent, EngineListener, EventBus, RecordingListener
from repro.engine.rdd import RDD
from repro.engine.tracing import (
    TraceContext,
    current_trace,
    current_trace_id,
    ensure_trace,
    phase_scope,
    trace_scope,
)

__all__ = [
    "Context",
    "EngineConfig",
    "TraceContext",
    "trace_scope",
    "ensure_trace",
    "phase_scope",
    "current_trace",
    "current_trace_id",
    "RDD",
    "Broadcast",
    "EngineEvent",
    "EngineListener",
    "EventBus",
    "RecordingListener",
    "EngineError",
    "JobFailedError",
    "TaskFailedError",
    "SerializationError",
    "ClosureSerializationError",
    "ContextStoppedError",
]
