"""The ``/metrics`` latency block: quantile edges and snapshot shape.

A hub histogram over ``LATENCY_BUCKETS_MS`` backs every ``/metrics``
latency block, so its edge behaviour (no observations, one observation,
q at the extremes) and the block's keys are locked down here —
dashboards parse these fields.
"""

import pytest

from repro.obs.metrics import MetricsHub
from repro.serve.events import (
    LATENCY_BUCKETS_MS,
    RequestEnd,
    ServeMetricsListener,
    _latency_doc,
)


class LatencyHistogram:
    """One endpoint's latency series, fed and read the way production does."""

    def __init__(self):
        self._listener = ServeMetricsListener(MetricsHub())
        self._series = self._listener._duration.labels(endpoint="/x")
        self.counts = self._series.counts

    def observe(self, wall_s):
        self._listener.on_request_end(RequestEnd("/x", 200, wall_s))

    def quantile(self, q):
        return self._series.quantile(q)

    def snapshot(self):
        return _latency_doc(self._series)


class TestQuantileEdges:
    def test_empty_histogram_returns_zero_everywhere(self):
        h = LatencyHistogram()
        assert h.quantile(0.0) == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.quantile(1.0) == 0.0

    def test_single_observation_reports_itself(self):
        # Interpolation is clamped to the observed max, so a lone 3 ms
        # sample reports 3 ms — not its bucket's 5 ms ceiling.
        h = LatencyHistogram()
        h.observe(0.003)
        assert h.quantile(0.5) == pytest.approx(3.0)
        assert h.quantile(0.95) == pytest.approx(3.0)
        assert h.quantile(1.0) == pytest.approx(3.0)

    def test_q_extremes_span_occupied_buckets(self):
        h = LatencyHistogram()
        h.observe(0.0005)   # sub-ms → first bucket (1 ms bound)
        h.observe(0.150)    # 150 ms → 200 ms bound
        # q=0 sits at the lower edge of the first occupied bucket; q=1
        # interpolates to the winning bucket's ceiling, clamped to max.
        assert h.quantile(0.0) == pytest.approx(0.0)
        assert h.quantile(1.0) == pytest.approx(150.0)

    def test_quantile_interpolates_within_bucket(self):
        h = LatencyHistogram()
        for _ in range(99):
            h.observe(0.004)   # (2, 5] ms bucket
        h.observe(1.5)         # (1000, 2000] ms bucket
        # Linear within the winning bucket: rank q*100 out of 99 samples
        # spanning (2, 5].
        assert h.quantile(0.50) == pytest.approx(2 + 3 * (50 / 99))
        assert h.quantile(0.95) == pytest.approx(2 + 3 * (95 / 99))
        # Rank 99.9 lands in the (1000, 2000] bucket; clamped to the
        # observed 1500 ms maximum.
        assert h.quantile(0.999) == pytest.approx(1500.0)

    def test_overflow_bucket_reports_observed_max(self):
        h = LatencyHistogram()
        h.observe(12.5)  # 12500 ms — beyond the last finite bound
        assert h.quantile(0.5) == pytest.approx(12500.0)
        assert h.quantile(1.0) == pytest.approx(12500.0)

    def test_quantiles_are_monotone(self):
        h = LatencyHistogram()
        for ms in (0.5, 3, 8, 40, 90, 450, 4000):
            h.observe(ms / 1000.0)
        qs = [h.quantile(q) for q in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0)]
        assert qs == sorted(qs)


class TestSnapshot:
    def test_snapshot_keys_locked_down(self):
        snap = LatencyHistogram().snapshot()
        assert set(snap) == {
            "count",
            "mean_ms",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "max_ms",
            "buckets_ms",
            "bucket_counts",
        }

    def test_empty_snapshot_is_all_zero(self):
        snap = LatencyHistogram().snapshot()
        assert snap["count"] == 0
        assert snap["mean_ms"] == 0.0
        assert snap["p50_ms"] == snap["p95_ms"] == snap["p99_ms"] == 0.0
        assert snap["max_ms"] == 0.0
        assert snap["buckets_ms"] == list(LATENCY_BUCKETS_MS)
        assert snap["bucket_counts"] == [0] * (len(LATENCY_BUCKETS_MS) + 1)

    def test_snapshot_accounts_every_observation(self):
        h = LatencyHistogram()
        h.observe(0.001)  # exactly a bucket bound: 1 ms
        h.observe(0.007)
        h.observe(0.007)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert sum(snap["bucket_counts"]) == 3
        assert snap["mean_ms"] == pytest.approx((1 + 7 + 7) / 3, abs=0.001)
        assert snap["max_ms"] == pytest.approx(7.0)

    def test_bound_observation_lands_in_its_bucket(self):
        """1 ms lands in the 1 ms bucket (bounds inclusive)."""
        h = LatencyHistogram()
        h.observe(0.001)
        assert h.counts[0] == 1
