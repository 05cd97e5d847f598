"""Trace-context propagation: scopes, event stamping, executor hand-off.

The correlation contract: every event the engine emits while a
``trace_scope`` is open carries that scope's trace_id/span_id and the
innermost SBGT phase, in *all three* executor modes — thread pools copy
the contextvars context per task, and the process executor posts events
driver-side where the scope is live.
"""

import os
import time

import pytest

from repro.engine import (
    Context,
    EngineConfig,
    TraceContext,
    current_trace,
    current_trace_id,
    ensure_trace,
    phase_scope,
    trace_scope,
)
from repro.engine.listener import JobStart, TaskEnd
from repro.engine.tracing import (
    EPOCH_OFFSET,
    current_phase,
    new_trace_id,
)

MODES = ["serial", "threads", "processes"]


# ---------------------------------------------------------------------------
# Scope semantics (pure contextvars, no engine)


class TestScopes:
    def test_no_scope_means_empty_ids(self):
        assert current_trace() is None
        assert current_trace_id() == ""
        assert current_phase() == ""

    def test_root_scope_generates_ids_and_resets(self):
        with trace_scope(name="root") as tc:
            assert isinstance(tc, TraceContext)
            assert len(tc.trace_id) == 16
            assert tc.parent_id == ""
            assert tc.name == "root"
            assert current_trace() is tc
            assert current_trace_id() == tc.trace_id
        assert current_trace() is None

    def test_nested_scope_is_child_span_of_same_trace(self):
        with trace_scope(name="outer") as outer:
            with trace_scope(name="inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.span_id != outer.span_id
                assert inner.parent_id == outer.span_id
            assert current_trace() is outer

    def test_explicit_trace_id_forces_root(self):
        with trace_scope(name="outer"):
            with trace_scope(trace_id="cafebabe12345678") as forced:
                assert forced.trace_id == "cafebabe12345678"
                assert forced.parent_id == ""

    def test_ensure_trace_reuses_active_scope(self):
        with trace_scope(name="outer") as outer:
            with ensure_trace(name="ignored") as tc:
                assert tc is outer

    def test_ensure_trace_opens_root_when_none(self):
        with ensure_trace(name="batch") as tc:
            assert tc.name == "batch"
            assert current_trace_id() == tc.trace_id
        assert current_trace() is None

    def test_phase_scope_nests_and_restores(self):
        assert current_phase() == ""
        with phase_scope("selection"):
            assert current_phase() == "selection"
            with phase_scope("lattice-op"):
                assert current_phase() == "lattice-op"
            assert current_phase() == "selection"
        assert current_phase() == ""

    def test_new_trace_ids_are_distinct(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64


# ---------------------------------------------------------------------------
# Event stamping


class TestEventStamping:
    def test_event_outside_scope_is_unstamped(self):
        e = JobStart(job_id=1)
        assert e.trace_id == "" and e.span_id == "" and e.phase == ""

    def test_event_inside_scope_is_stamped(self):
        with trace_scope(name="op") as tc, phase_scope("analysis"):
            e = TaskEnd(stage_id=0, partition=0, wall_s=0.1, attempts=1)
        assert e.trace_id == tc.trace_id
        assert e.span_id == tc.span_id
        assert e.phase == "analysis"
        d = e.to_dict()
        assert d["trace_id"] == tc.trace_id
        assert d["phase"] == "analysis"
        assert "trace" not in d  # the raw TraceContext stays off the wire

    def test_wall_is_epoch_seconds(self):
        """Satellite regression: ``wall`` must be comparable to
        ``time.time()``, not a raw ``perf_counter`` stamp (whose origin
        is per-process and ordered events across a fork boundary wrong
        before the ``EPOCH_OFFSET`` fix)."""
        before = time.time()
        e = JobStart(job_id=0)
        after = time.time()
        assert before - 0.5 <= e.wall <= after + 0.5
        # and it is exactly the perf_counter stamp shifted by the offset
        assert e.wall == pytest.approx(e.time + EPOCH_OFFSET)


# ---------------------------------------------------------------------------
# End-to-end propagation through the scheduler, per executor mode


@pytest.mark.parametrize("mode", MODES)
class TestPropagation:
    def test_job_events_carry_trace_and_phase(self, mode):
        with Context(mode=mode, parallelism=2) as ctx:
            recorder = ctx.flight_recorder
            assert recorder is not None  # on by default
            with trace_scope(name="test-op") as tc, phase_scope("lattice-op"):
                out = ctx.range(20, num_partitions=2).map(lambda x: x % 4).sum()
            assert out == 30

            events = recorder.trace(tc.trace_id)
            kinds = [d["kind"] for d in events]
            assert kinds[:2] == ["job_start", "stage_start"]
            assert kinds[-2:] == ["stage_end", "job_end"]
            assert sorted(kinds[2:-2]) == ["task_end"] * 2 + ["task_start"] * 2
            assert all(d["trace_id"] == tc.trace_id for d in events)
            assert all(d["phase"] == "lattice-op" for d in events)
            # the trace is discoverable without knowing its id
            assert tc.trace_id in recorder.traces()

    def test_untraced_job_events_have_empty_trace(self, mode):
        with Context(mode=mode, parallelism=2) as ctx:
            assert ctx.range(10, num_partitions=2).sum() == 45
            events = ctx.flight_recorder.events(kind="task_end")
            assert events
            assert all(d["trace_id"] == "" for d in events)

    def test_task_end_worker_attribution_and_t0_wall(self, mode):
        """Satellite regression: ``t0_wall`` is the worker-side wall
        clock at task start — epoch seconds in every mode, stamped in
        the worker process under fork."""
        t_before = time.time()
        with Context(mode=mode, parallelism=2) as ctx:
            assert ctx.range(10, num_partitions=2).sum() == 45
            ends = ctx.flight_recorder.events(kind="task_end")
        t_after = time.time()

        assert ends
        for d in ends:
            assert t_before - 1.0 <= d["t0_wall"] <= t_after + 1.0
            # t0_wall is a live time.time() read; d["wall"] is
            # perf_counter + an EPOCH_OFFSET frozen at import.  The two
            # clock domains jitter a few microseconds apart, so the
            # "start precedes end" check needs millisecond slack.
            assert d["t0_wall"] <= d["wall"] + 5e-3
            pid_s, _, thread = d["worker"].partition("/")
            assert thread
            if mode == "processes":
                assert int(pid_s) != os.getpid(), "fork task ran in the driver?"
            else:
                assert int(pid_s) == os.getpid()

    def test_two_interleaved_traces_stay_separate(self, mode):
        with Context(mode=mode, parallelism=2) as ctx:
            recorder = ctx.flight_recorder
            with trace_scope(name="a") as ta:
                ctx.range(8, num_partitions=2).count()
            with trace_scope(name="b") as tb:
                ctx.range(8, num_partitions=2).count()
            a_events = recorder.trace(ta.trace_id)
            b_events = recorder.trace(tb.trace_id)
            assert a_events and b_events
            assert {d["trace_id"] for d in a_events} == {ta.trace_id}
            assert {d["trace_id"] for d in b_events} == {tb.trace_id}
            assert ta.trace_id != tb.trace_id


def test_events_off_means_no_stamping_cost_path():
    """With events disabled the bus is falsy and no events exist to stamp;
    a trace scope must not break jobs."""
    cfg = EngineConfig(mode="serial", enable_events=False)
    with Context(config=cfg) as ctx:
        assert ctx.flight_recorder is None
        with trace_scope(name="silent"):
            assert ctx.range(10, num_partitions=2).sum() == 45
