"""Chrome trace-event export and the structural validator."""

import json

import pytest

from repro.engine import Context, trace_scope
from repro.obs.chrome import chrome_trace, validate_chrome_trace


def _events(doc, ph=None):
    evs = doc["traceEvents"]
    return [e for e in evs if ph is None or e["ph"] == ph]


def _task_end(wall, wall_s, t0_wall, worker, **kw):
    d = {
        "kind": "task_end",
        "time": 0.0,
        "wall": wall,
        "wall_s": wall_s,
        "t0_wall": t0_wall,
        "worker": worker,
        "trace_id": "t" * 16,
        "span_id": "s" * 16,
        "phase": "",
        "stage_id": 0,
        "attempts": 1,
    }
    d.update(kw)
    return d


# ---------------------------------------------------------------------------
# Exporter on synthetic records


class TestExporter:
    def test_task_slices_go_on_per_worker_tracks(self):
        recs = [
            _task_end(100.02, 0.02, 100.0, "41/w0", partition=0),
            _task_end(100.05, 0.02, 100.03, "42/w0", partition=1),
        ]
        doc = chrome_trace(recs, title="unit")
        xs = _events(doc, "X")
        assert len(xs) == 2
        assert {e["pid"] for e in xs} == {41, 42}
        assert all(e["tid"] >= 2 for e in xs), "worker tids must not collide with driver"
        # process/thread metadata exists for both workers
        meta_names = [
            (e["pid"], e["args"]["name"])
            for e in _events(doc, "M")
            if e["name"] == "process_name"
        ]
        assert (41, "unit worker pid 41") in meta_names
        assert (42, "unit worker pid 42") in meta_names

    def test_cross_process_ordering_uses_worker_wall_stamp(self):
        """Satellite regression for the clock fix: slices are placed at
        the worker-side epoch stamp (``t0_wall``), so a task that
        started *earlier* in another process renders earlier even when
        the driver saw its completion later."""
        recs = [
            _task_end(wall=100.50, wall_s=0.40, t0_wall=100.10, worker="41/w0", partition=0),
            _task_end(wall=100.45, wall_s=0.05, t0_wall=100.40, worker="42/w0", partition=1),
        ]
        doc = chrome_trace(recs)
        xs = sorted(_events(doc, "X"), key=lambda e: e["ts"])
        assert xs[0]["args"]["partition"] == 0, "earlier t0_wall must render first"
        # normalized to the earliest record: first slice opens at ts == 0
        assert xs[0]["ts"] == 0.0
        assert xs[1]["ts"] == pytest.approx((100.40 - 100.10) * 1e6, abs=1)
        assert xs[0]["dur"] == pytest.approx(0.40 * 1e6, abs=1)

    def test_driver_slices_derive_start_from_wall_minus_duration(self):
        recs = [
            {"kind": "job_end", "wall": 10.0, "wall_s": 2.0, "job_id": 3,
             "trace_id": "", "span_id": "", "phase": ""},
        ]
        doc = chrome_trace(recs)
        (x,) = _events(doc, "X")
        assert x["pid"] == 0 and x["tid"] == 0
        assert x["ts"] == 0.0  # base is wall - wall_s = 8.0
        assert x["dur"] == pytest.approx(2e6)
        assert x["name"] == "job 3"

    def test_serve_request_slice_named_by_endpoint(self):
        recs = [
            {"kind": "request_end", "wall": 5.0, "wall_s": 0.5,
             "endpoint": "/screen", "status": 200, "source": "computed",
             "trace_id": "", "span_id": "", "phase": ""},
        ]
        (x,) = _events(chrome_trace(recs), "X")
        assert x["name"] == "request /screen"

    def test_tracer_spans_emit_balanced_nested_pairs(self):
        spans = [
            {"record": "span", "phase": "selection", "label": "outer",
             "t0_wall": 100.0, "wall_s": 1.0, "self_s": 0.5},
            {"record": "span", "phase": "lattice-op", "label": "inner",
             "t0_wall": 100.2, "wall_s": 0.3, "self_s": 0.3},
        ]
        doc = chrome_trace(spans)
        bs, es = _events(doc, "B"), _events(doc, "E")
        assert [b["name"] for b in bs] == ["outer", "inner"]
        assert len(es) == 2
        assert all(e["tid"] == 1 for e in bs + es), "phases live on the phases track"
        # inner closes (100.5) before outer (101.0)
        assert es[0]["ts"] < es[1]["ts"]
        validate_chrome_trace(doc)

    def test_counters_accumulate(self):
        recs = [
            {"kind": "cache_miss", "wall": 1.0, "partition": 0,
             "trace_id": "", "span_id": "", "phase": ""},
            {"kind": "cache_hit", "wall": 2.0, "partition": 0,
             "trace_id": "", "span_id": "", "phase": ""},
            {"kind": "cache_hit", "wall": 3.0, "partition": 0,
             "trace_id": "", "span_id": "", "phase": ""},
        ]
        cs = _events(chrome_trace(recs), "C")
        assert [c["args"].get("hits", 0.0) for c in cs] == [0.0, 1.0, 2.0]
        assert cs[0]["args"]["misses"] == 1.0

    def test_retry_renders_as_instant(self):
        recs = [
            {"kind": "task_retry", "wall": 1.0, "stage_id": 2, "partition": 1,
             "attempt": 1, "error": "boom", "trace_id": "", "span_id": "", "phase": ""},
        ]
        (i,) = _events(chrome_trace(recs), "i")
        assert i["name"] == "retry s2p1"

    def test_unknown_and_malformed_records_are_skipped(self):
        doc = chrome_trace([
            {"record": "stage", "stage": 1},      # tracer stage summary
            {"kind": "job_start", "wall": 1.0,
             "trace_id": "", "span_id": "", "phase": ""},  # no slice/counter kind
            "not-a-dict",
            {},
        ])
        assert _events(doc, "X") == []
        validate_chrome_trace(doc)


# ---------------------------------------------------------------------------
# Validator


class TestValidator:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([1, 2])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"displayTimeUnit": "ms"})

    def test_rejects_unknown_ph_and_bad_fields(self):
        doc = {"traceEvents": [
            {"ph": "Z", "pid": 0, "tid": 0, "ts": 0, "name": "x"},
            {"ph": "X", "pid": "zero", "tid": 0, "ts": 0, "name": "x", "dur": -1},
            {"ph": "E", "pid": 0, "tid": 0, "ts": 0},
        ]}
        with pytest.raises(ValueError) as excinfo:
            validate_chrome_trace(doc)
        msg = str(excinfo.value)
        assert "unknown ph" in msg
        assert "pid must be an int" in msg
        assert "dur >= 0" in msg
        assert "E without matching B" in msg

    def test_rejects_unclosed_b(self):
        doc = {"traceEvents": [{"ph": "B", "pid": 0, "tid": 0, "ts": 0, "name": "x"}]}
        with pytest.raises(ValueError, match="unclosed B"):
            validate_chrome_trace(doc)

    def test_counts_valid_events(self):
        doc = {"traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 0, "tid": 0, "args": {"name": "p"}},
            {"ph": "X", "pid": 0, "tid": 0, "ts": 1.0, "dur": 2.0, "name": "x"},
        ]}
        assert validate_chrome_trace(doc) == 2


# ---------------------------------------------------------------------------
# end-to-end


@pytest.mark.parametrize("mode", ["serial", "processes"])
def test_live_recorder_round_trips_through_exporter(mode, tmp_path):
    with Context(mode=mode, parallelism=2) as ctx:
        with trace_scope(name="e2e"):
            squares = ctx.range(20, num_partitions=2).map(lambda x: x * x).cache()
            assert squares.count() == 20  # cache misses
            assert squares.sum() == sum(x * x for x in range(20))  # cache hits
        records = ctx.flight_recorder.events()

    doc = chrome_trace(records, title="e2e")
    n = validate_chrome_trace(doc)
    assert n > len(records) // 2  # slices+counters+meta, some kinds skipped
    # it must survive an actual json round-trip (what the CLI writes)
    out = tmp_path / "trace.json"
    out.write_text(json.dumps(doc), encoding="utf-8")
    reloaded = json.loads(out.read_text(encoding="utf-8"))
    assert validate_chrome_trace(reloaded) == n
    phs = {e["ph"] for e in reloaded["traceEvents"]}
    assert {"X", "M", "C"} <= phs
    if mode == "processes":
        pids = {e["pid"] for e in reloaded["traceEvents"] if e["ph"] == "X"}
        assert any(p != 0 for p in pids), "worker tracks expected under fork"
