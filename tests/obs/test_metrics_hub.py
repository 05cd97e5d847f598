"""MetricsHub contract: instruments, labels, exemplars, exposition.

The hub is the single vocabulary every layer folds into, so its
semantics are pinned here: get-or-create declaration, label handling,
exemplar stamping from the active trace scope, the JSON snapshot shape,
and a byte-stable Prometheus text exposition that the bundled validator
accepts.
"""

import pytest

from repro.bayes.dilution import BinaryErrorModel
from repro.bayes.priors import PriorSpec
from repro.engine import Context, EngineConfig, RecordingListener
from repro.engine.listener import CacheHit, CacheMiss, JobEnd, TaskEnd, TaskRetry
from repro.engine.tracing import trace_scope
from repro.halving.policy import BHAPolicy
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    HubMetricsListener,
    MetricsHub,
    bucket_quantile,
    render_prometheus,
    validate_prometheus_text,
)
from repro.sbgt.session import SBGTSession


class TestInstruments:
    def test_counter_counts(self):
        hub = MetricsHub()
        c = hub.counter("repro_x_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        hub = MetricsHub()
        c = hub.counter("repro_x_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_counter_name_must_end_total(self):
        hub = MetricsHub()
        with pytest.raises(ValueError, match="_total"):
            hub.counter("repro_x_count")

    def test_gauge_set_and_ratchet(self):
        hub = MetricsHub()
        g = hub.gauge("repro_depth")
        g.set(5)
        g.dec(2)
        assert g.value == pytest.approx(3.0)
        g.set_max(10)
        g.set_max(7)  # ratchet: never goes down
        assert g.value == pytest.approx(10.0)

    def test_histogram_buckets_sum_count_max(self):
        hub = MetricsHub()
        h = hub.histogram("repro_lat_seconds", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 5.0):
            h.observe(v)
        child = h.labels()
        assert child.counts == [1, 1, 1]  # one overflow
        assert child.count == 3
        assert child.sum == pytest.approx(7.0)
        assert child.max == pytest.approx(5.0)

    def test_invalid_metric_name_rejected(self):
        hub = MetricsHub()
        with pytest.raises(ValueError):
            hub.gauge("repro bad name")


class TestLabels:
    def test_label_children_are_independent(self):
        hub = MetricsHub()
        c = hub.counter("repro_req_total", labels=("code",))
        c.labels(code=200).inc(3)
        c.labels(code=404).inc()
        assert c.labels(code=200).value == 3
        assert c.labels(code=404).value == 1

    def test_label_mismatch_raises(self):
        hub = MetricsHub()
        c = hub.counter("repro_req_total", labels=("code",))
        with pytest.raises(ValueError):
            c.labels(status=200)

    def test_solo_access_with_labels_raises(self):
        hub = MetricsHub()
        c = hub.counter("repro_req_total", labels=("code",))
        with pytest.raises(ValueError, match="labels"):
            c.inc()

    def test_series_sorted_by_label_values(self):
        hub = MetricsHub()
        c = hub.counter("repro_req_total", labels=("code",))
        for code in (500, 200, 404):
            c.labels(code=code).inc()
        assert [labels["code"] for labels, _ in c.series()] == ["200", "404", "500"]


class TestDeclaration:
    def test_get_or_create_returns_same_family(self):
        hub = MetricsHub()
        assert hub.counter("repro_x_total") is hub.counter("repro_x_total")

    def test_kind_mismatch_raises(self):
        hub = MetricsHub()
        hub.gauge("repro_x")
        with pytest.raises(ValueError, match="already declared"):
            hub.histogram("repro_x")

    def test_labelset_mismatch_raises(self):
        hub = MetricsHub()
        hub.counter("repro_x_total", labels=("a",))
        with pytest.raises(ValueError, match="already declared"):
            hub.counter("repro_x_total", labels=("b",))

    def test_get_accessor(self):
        hub = MetricsHub()
        assert hub.get("repro_x_total") is None
        fam = hub.counter("repro_x_total")
        assert hub.get("repro_x_total") is fam


class TestExemplars:
    def test_observe_stamps_active_trace_id(self):
        hub = MetricsHub()
        h = hub.histogram("repro_lat_seconds")
        with trace_scope(name="req") as tc:
            h.observe(0.2)
        child = h.labels()
        assert child.exemplar == {"trace_id": tc.trace_id, "value": 0.2}

    def test_no_scope_no_exemplar(self):
        hub = MetricsHub()
        h = hub.histogram("repro_lat_seconds")
        h.observe(0.2)
        assert h.labels().exemplar is None

    def test_explicit_trace_id_wins(self):
        hub = MetricsHub()
        h = hub.histogram("repro_lat_seconds")
        h.observe(0.2, trace_id="tid-42")
        assert h.labels().exemplar["trace_id"] == "tid-42"

    def test_exemplar_rides_snapshot_not_exposition(self):
        hub = MetricsHub()
        hub.histogram("repro_lat_seconds").observe(0.2, trace_id="tid-42")
        assert (
            hub.snapshot()["repro_lat_seconds"]["series"][0]["exemplar"]["trace_id"]
            == "tid-42"
        )
        assert "tid-42" not in hub.render_prometheus()


class TestSnapshotAndExposition:
    def _hub(self) -> MetricsHub:
        hub = MetricsHub()
        c = hub.counter("repro_req_total", "requests", labels=("code",))
        c.labels(code=200).inc(3)
        c.labels(code=404).inc()
        hub.gauge("repro_depth", "queue depth").set(2)
        hub.histogram("repro_lat_seconds", "latency", buckets=(0.1, 1.0)).observe(0.5)
        return hub

    def test_snapshot_shape(self):
        snap = self._hub().snapshot()
        assert set(snap) == {"repro_depth", "repro_lat_seconds", "repro_req_total"}
        req = snap["repro_req_total"]
        assert req["type"] == "counter"
        assert req["labelnames"] == ["code"]
        assert [s["labels"] for s in req["series"]] == [{"code": "200"}, {"code": "404"}]
        lat = snap["repro_lat_seconds"]["series"][0]
        assert lat["buckets"] == [0.1, 1.0]
        assert lat["counts"] == [0, 1, 0]
        assert lat["count"] == 1

    def test_exposition_is_byte_stable_under_fixed_replay(self):
        # The same event history always renders to the same bytes.
        assert self._hub().render_prometheus() == self._hub().render_prometheus()

    def test_exposition_validates(self):
        text = self._hub().render_prometheus()
        assert validate_prometheus_text(text) > 0

    def test_histogram_exposition_is_cumulative_with_inf(self):
        text = self._hub().render_prometheus()
        lines = [ln for ln in text.splitlines() if ln.startswith("repro_lat_seconds")]
        assert 'repro_lat_seconds_bucket{le="0.1"} 0' in lines
        assert 'repro_lat_seconds_bucket{le="1"} 1' in lines
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_lat_seconds_sum 0.5" in lines
        assert "repro_lat_seconds_count 1" in lines

    def test_render_from_snapshot_matches_hub_render(self):
        hub = self._hub()
        assert render_prometheus(hub.snapshot()) == hub.render_prometheus()

    def test_no_timestamps_in_exposition(self):
        for line in self._hub().render_prometheus().splitlines():
            if line.startswith("#"):
                continue
            assert len(line.split(" ")) == 2  # name{labels} value — nothing after


class TestValidator:
    def test_rejects_malformed_sample(self):
        with pytest.raises(ValueError, match="malformed sample"):
            validate_prometheus_text("# TYPE x gauge\nx 1 2 3 extra junk here\n")

    def test_rejects_sample_without_type(self):
        with pytest.raises(ValueError, match="no TYPE"):
            validate_prometheus_text("orphan_metric 1\n")

    def test_rejects_counter_without_total_suffix(self):
        with pytest.raises(ValueError, match="_total"):
            validate_prometheus_text("# TYPE x counter\nx 1\n")

    def test_rejects_non_cumulative_histogram(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="2"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
        )
        with pytest.raises(ValueError, match="non-cumulative"):
            validate_prometheus_text(text)

    def test_rejects_histogram_without_inf(self):
        text = "# TYPE h histogram\n" 'h_bucket{le="1"} 1\n'
        with pytest.raises(ValueError, match=r"\+Inf"):
            validate_prometheus_text(text)


class TestBucketQuantile:
    def test_empty_distribution(self):
        assert bucket_quantile(0.5, (1.0, 2.0), [0, 0, 0], 0, 0.0) == 0.0

    def test_interpolates_within_bucket(self):
        # 10 samples in (1, 2]: p50 sits halfway through the bucket.
        q = bucket_quantile(0.5, (1.0, 2.0), [0, 10, 0], 10, 2.0)
        assert q == pytest.approx(1.5)

    def test_clamps_to_observed_max(self):
        q = bucket_quantile(1.0, (1.0, 2.0), [0, 1, 0], 1, 1.2)
        assert q == pytest.approx(1.2)

    def test_overflow_reports_max(self):
        q = bucket_quantile(0.9, (1.0, 2.0), [0, 0, 3], 3, 17.0)
        assert q == pytest.approx(17.0)

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


class TestHubMetricsListener:
    def test_folds_bus_only_vocabularies(self):
        hub = MetricsHub()
        listener = HubMetricsListener(hub)
        listener.on_event(TaskRetry(1, 0, 1, "boom"))
        listener.on_event(CacheHit(7, 0))
        listener.on_event(CacheHit(7, 1))
        listener.on_event(CacheMiss(7, 2))
        assert hub.get("repro_engine_task_retries_total").value == 1
        cache = hub.get("repro_engine_cache_events_total")
        assert cache.labels(event="hit").value == 2
        assert cache.labels(event="miss").value == 1

    def test_declares_job_families(self):
        # The listener is the hub's only feed, so it owns every engine
        # family — the job and task ones included.
        hub = MetricsHub()
        HubMetricsListener(hub)
        assert hub.get("repro_engine_jobs_total").labelnames == ("status",)
        assert hub.get("repro_engine_job_seconds").buckets == DEFAULT_BUCKETS
        for name in (
            "repro_engine_tasks_total",
            "repro_engine_task_seconds",
            "repro_engine_task_cpu_seconds_total",
            "repro_engine_task_gc_collections_total",
            "repro_engine_task_rss_peak_kb",
            "repro_engine_scheduler_overhead_seconds_total",
        ):
            assert hub.get(name).labelnames == ()


def _cohort12_screen(ctx):
    session = SBGTSession(ctx, PriorSpec.uniform(12, 0.05), BinaryErrorModel(0.99, 0.99))
    try:
        session.run_screen(BHAPolicy(), rng=7)
    finally:
        session.close()


class TestHubIsAFunctionOfTheEventStream:
    def test_replayed_stream_renders_identical_bytes(self):
        with Context(mode="serial") as ctx:
            rec = ctx.add_listener(RecordingListener())
            _cohort12_screen(ctx)
            live = ctx.metrics_hub.snapshot()
        # The one family no event feeds: Context's sanitizer counter.
        del live["repro_lock_order_violations_total"]
        replayed = MetricsHub()
        listener = HubMetricsListener(replayed)
        for event in rec.events:
            listener.on_event(event)
        assert live == replayed.snapshot()  # exemplars included
        assert render_prometheus(live) == replayed.render_prometheus()

        task_walls = [e.wall_s for e in rec.of_type(TaskEnd)]
        series = replayed.get("repro_engine_task_seconds").labels()
        assert series.count == len(task_walls) > 0
        assert series.sum == pytest.approx(sum(task_walls), rel=1e-12)
        assert replayed.get("repro_engine_jobs_total").labels(status="ok").value == len(
            rec.of_type(JobEnd)
        )

    def test_failed_job_is_all_overhead(self):
        with Context(mode="serial", max_task_retries=0) as ctx:
            rec = ctx.add_listener(RecordingListener())
            with pytest.raises(Exception):
                ctx.range(4, num_partitions=2).map(lambda x: 1 // 0).count()
            hub = ctx.metrics_hub
            (end,) = rec.of_type(JobEnd)
            jobs = hub.get("repro_engine_jobs_total")
            assert jobs.labels(status="failed").value == 1
            assert jobs.labels(status="ok").value == 0
            assert hub.get("repro_engine_scheduler_overhead_seconds_total").value == end.wall_s

    def test_events_off_renders_no_engine_sample(self):
        with Context(config=EngineConfig(mode="serial", enable_events=False)) as ctx:
            assert ctx.range(10, num_partitions=2).sum() == 45
            text = ctx.metrics_hub.render_prometheus()
        assert "repro_engine_" not in text
        assert validate_prometheus_text(text) == 0
