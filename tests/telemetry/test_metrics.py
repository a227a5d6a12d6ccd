"""Metrics primitives: counters, gauges, fixed-bucket histograms, and
the registry's get-or-create + snapshot + state roundtrip surface."""

import numpy as np
import pytest

from repro.core.errors import TelemetryError
from repro.telemetry.metrics import (SHARE_BUCKETS, Counter, Gauge,
                                     Histogram, MetricsRegistry)


class TestCounter:
    def test_accumulates(self):
        c = Counter("a.b")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(TelemetryError):
            Counter("a.b").inc(-1)

    def test_registry_rejects_bad_name(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().counter("Not A Name")


class TestHistogram:
    def test_bucketing_with_overflow(self):
        h = Histogram("h.x", (1.0, 10.0))
        for value in (0.5, 0.9, 5.0, 100.0):
            h.observe(value)
        assert h.counts == [2, 1, 1]   # <=1, <=10, overflow
        assert h.total == 4

    def test_mean(self):
        h = Histogram("h.x", (10.0,))
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == pytest.approx(3.0)
        assert Histogram("h.y", (1.0,)).mean == 0.0

    def test_observe_many_matches_observe_loop(self):
        """Bulk observation is the scalar loop: values exactly on every
        boundary land in the same buckets, and ``sum`` is bitwise the
        ``+=`` chain (rounding-sensitive magnitudes included)."""
        values = list(SHARE_BUCKETS) + [0.0, 1e-17, 0.3, 0.7, 1.0,
                                         1e16, 1.0, 0.1, 0.2, 2.5]
        values += [np.nextafter(b, 2.0) for b in SHARE_BUCKETS]
        bulk, loop = Histogram("h.bulk"), Histogram("h.loop")
        bulk.observe(0.1)
        loop.observe(0.1)
        bulk.observe_many(np.array(values))
        for value in values:
            loop.observe(float(value))
        assert bulk.counts == loop.counts
        assert bulk.total == loop.total == len(values) + 1
        assert type(bulk.sum) is float
        assert np.float64(bulk.sum).view(np.uint64) == \
            np.float64(loop.sum).view(np.uint64)
        assert bulk.as_dict() == loop.as_dict()

    def test_observe_many_empty_is_a_no_op(self):
        h = Histogram("h.x", (1.0, 10.0))
        h.observe(5.0)
        before = h.dump_state()
        h.observe_many(np.zeros(0))
        h.observe_many([])
        assert h.dump_state() == before

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(TelemetryError):
            Histogram("h.x", (5.0, 1.0))

    def test_share_buckets_strictly_increasing(self):
        assert list(SHARE_BUCKETS) == sorted(SHARE_BUCKETS)
        assert len(set(SHARE_BUCKETS)) == len(SHARE_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("c.x") is reg.counter("c.x")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m.x")
        with pytest.raises(TelemetryError):
            reg.gauge("m.x")

    def test_histogram_boundary_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h.x", (1.0, 2.0))
        with pytest.raises(TelemetryError):
            reg.histogram("h.x", (1.0, 3.0))

    def test_snapshot_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc()
        reg.gauge("a.first").set(2.0)
        assert list(reg.snapshot()) == ["a.first", "z.last"]

    def test_state_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("c.x").inc(3)
        reg.gauge("g.x").set(1.5)
        reg.histogram("h.x", (1.0,)).observe(0.5)
        state = reg.dump_state()
        reg.counter("c.x").inc(10)       # diverge after capture
        reg.load_state(state)
        assert reg.counter("c.x").value == 3
        assert reg.gauge("g.x").value == 1.5
        assert reg.histogram("h.x", (1.0,)).total == 1

    def test_load_state_resets_unknown_metrics(self):
        reg = MetricsRegistry()
        reg.counter("c.x").inc(3)
        state = reg.dump_state()
        reg.counter("c.new").inc(7)      # created after the capture
        reg.load_state(state)
        assert reg.counter("c.new").value == 0
        assert reg.counter("c.x").value == 3
