"""repro.serve — asyncio serving layer for the SBGT engine.

Stdlib-only HTTP front end over the dataflow engine: request
micro-batching, an LRU result cache, one bounded, idle-expiring
registry each for interactive screen sessions and stepped campaigns,
and ``/metrics`` fed by the engine's listener bus.  Entry point:
``python -m repro serve``.
"""

from repro.serve.app import ReproServer, ServeConfig, serve
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import ResultCache
from repro.serve.events import (
    BatchExecuted,
    RequestEnd,
    ServeMetricsListener,
    SessionEvent,
)
from repro.serve.http import HttpError, HttpServer, Request, Response, json_response
from repro.serve.protocol import (
    AssaySpec,
    BadRequest,
    CalculatorRequest,
    ScreenRequest,
    SessionCreateRequest,
    SurveilRequest,
)
from repro.serve.sessions import (
    CampaignSession,
    ServeSession,
    SessionLimitError,
    SessionRegistry,
)

__all__ = [
    "ReproServer",
    "ServeConfig",
    "serve",
    "MicroBatcher",
    "ResultCache",
    "RequestEnd",
    "BatchExecuted",
    "SessionEvent",
    "ServeMetricsListener",
    "HttpError",
    "HttpServer",
    "Request",
    "Response",
    "json_response",
    "AssaySpec",
    "BadRequest",
    "CalculatorRequest",
    "ScreenRequest",
    "SurveilRequest",
    "SessionCreateRequest",
    "ServeSession",
    "SessionRegistry",
    "SessionLimitError",
    "CampaignSession",
]
