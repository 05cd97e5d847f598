"""Observability for SBGT workloads.

Sits between the engine's listener bus (:mod:`repro.engine.listener`)
and the SBGT layers: a :class:`Tracer` tags work by SBGT phase
(``lattice-op`` / ``selection`` / ``analysis``), collects per-stage
screen telemetry, and exports JSON-lines traces readable by
``python -m repro trace``.

The :mod:`repro.obs.flight` flight recorder is the always-on
counterpart (registered by every :class:`~repro.engine.Context` unless
configured off), and :mod:`repro.obs.chrome` renders either source into
Chrome trace-event JSON for ``chrome://tracing`` / Perfetto.

:mod:`repro.obs.metrics` is the labelled metrics core — every
:class:`~repro.engine.Context` owns a :class:`MetricsHub` that its
event stream folds into (engine, serve and surveil alike), with one
snapshot feeding both the JSON ``/metrics`` document and the Prometheus
text exposition.
:mod:`repro.obs.sampler` adds a wall-clock sampling profiler whose
collapsed stacks render to self-contained flamegraph HTML
(:mod:`repro.obs.flamegraph`).
"""

from repro.obs.chrome import chrome_trace, read_jsonl_records, validate_chrome_trace
from repro.obs.flamegraph import flamegraph_html, folded_lines
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HubMetricsListener,
    MetricsHub,
    bucket_quantile,
    render_prometheus,
    validate_prometheus_text,
)
from repro.obs.sampler import Sampler, current_profile_hz, current_sampler
from repro.obs.tracer import (
    PHASE_ANALYSIS,
    PHASE_LATTICE,
    PHASE_SELECTION,
    PHASES,
    PhaseSpan,
    StageTelemetry,
    Tracer,
    current_tracer,
    trace_phase,
    traced,
)

__all__ = [
    "PHASE_LATTICE",
    "PHASE_SELECTION",
    "PHASE_ANALYSIS",
    "PHASES",
    "PhaseSpan",
    "StageTelemetry",
    "Tracer",
    "current_tracer",
    "trace_phase",
    "traced",
    "FlightRecorder",
    "chrome_trace",
    "read_jsonl_records",
    "validate_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsHub",
    "HubMetricsListener",
    "DEFAULT_BUCKETS",
    "bucket_quantile",
    "render_prometheus",
    "validate_prometheus_text",
    "Sampler",
    "current_sampler",
    "current_profile_hz",
    "flamegraph_html",
    "folded_lines",
]
