"""Metrics registry semantics and the disabled-mode no-op contract."""

import pytest

from repro import obs
from repro.core.errors import TraceSchemaError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NOOP_COUNTER,
    NOOP_GAUGE,
    NOOP_HISTOGRAM,
    NOOP_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    dump_snapshot,
    load_snapshot,
)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(4)
        c.inc(0.5)
        assert c.value == 5.5

    def test_negative_rejected(self):
        c = Counter()
        with pytest.raises(ValueError, match="counters only go up"):
            c.inc(-1)
        assert c.value == 0


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge()
        g.set(7)
        g.set(3)
        assert g.value == 3

    def test_set_max_keeps_peak(self):
        g = Gauge()
        g.set_max(5)
        g.set_max(2)
        g.set_max(9)
        assert g.value == 9


class TestHistogram:
    def test_bucket_placement(self):
        h = Histogram(buckets=(10, 20, 30))
        for v in (5, 10, 11, 25, 30, 31, 1000):
            h.observe(v)
        # counts[i] tallies observations <= uppers[i]; last slot overflows.
        assert h.counts == [2, 1, 2, 2]
        assert h.count == 7
        assert h.sum == 5 + 10 + 11 + 25 + 30 + 31 + 1000

    def test_mean(self):
        h = Histogram()
        assert h.mean == 0.0
        h.observe(2)
        h.observe(4)
        assert h.mean == 3.0

    def test_default_buckets(self):
        h = Histogram()
        assert h.uppers == tuple(float(b) for b in DEFAULT_BUCKETS)
        assert len(h.counts) == len(DEFAULT_BUCKETS) + 1

    @pytest.mark.parametrize("bad", [(), (1, 1), (3, 2, 5)])
    def test_invalid_buckets_rejected(self, bad):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(buckets=bad)


class TestRegistry:
    def test_same_instrument_for_same_key(self):
        reg = MetricsRegistry()
        a = reg.counter("msgs", link="node")
        b = reg.counter("msgs", link="node")
        c = reg.counter("msgs", link="socket")
        assert a is b
        assert a is not c

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.gauge("depth", a=1, b=2)
        b = reg.gauge("depth", b=2, a=1)
        assert a is b

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered as a counter"):
            reg.gauge("x")

    def test_snapshot_shape_and_keys(self):
        reg = MetricsRegistry()
        reg.counter("runs").inc()
        reg.counter("bytes", link="node", dir="tx").inc(10)
        reg.gauge("depth").set(4)
        h = reg.histogram("lat", buckets=(1, 2))
        h.observe(1.5)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]["runs"] == 1
        # Labels render sorted by key inside {}.
        assert snap["counters"]["bytes{dir=tx,link=node}"] == 10
        assert snap["gauges"]["depth"] == 4
        assert snap["histograms"]["lat"] == {
            "buckets": [1.0, 2.0],
            "counts": [0, 1, 0],
            "sum": 1.5,
            "count": 1,
        }


class TestDisabledMode:
    def test_registry_is_noop_singleton_when_disabled(self):
        assert not obs.is_enabled()  # REPRO_OBS defaults to off
        assert obs.registry() is NOOP_REGISTRY
        assert obs.spans() is None

    def test_noop_instruments_are_shared_and_inert(self):
        assert NOOP_REGISTRY.counter("a", x=1) is NOOP_COUNTER
        assert NOOP_REGISTRY.gauge("b") is NOOP_GAUGE
        assert NOOP_REGISTRY.histogram("c", buckets=(1,)) is NOOP_HISTOGRAM
        NOOP_COUNTER.inc(5)
        NOOP_GAUGE.set(1)
        NOOP_GAUGE.set_max(2)
        NOOP_HISTOGRAM.observe(3)
        assert NOOP_REGISTRY.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_enable_disable_round_trip(self):
        try:
            registry, spans = obs.enable()
            assert obs.is_enabled()
            assert obs.registry() is registry
            assert obs.spans() is spans
            registry.counter("during").inc()
        finally:
            obs.disable()
        assert not obs.is_enabled()
        assert obs.registry() is NOOP_REGISTRY
        # enable(fresh=False) resumes the previous collectors.
        try:
            resumed, _ = obs.enable(fresh=False)
            assert resumed.snapshot()["counters"] == {"during": 1}
            fresh, _ = obs.enable()
            assert fresh.snapshot()["counters"] == {}
        finally:
            obs.disable()


class TestSnapshotFile:
    def test_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("runs").inc(3)
        path = str(tmp_path / "m.json")
        dump_snapshot(path, reg)
        assert load_snapshot(path)["counters"] == {"runs": 3}

    @pytest.mark.parametrize("body", [
        "{nope",                                # not JSON
        b"\xff\xfe\x00garbage",                  # not even text
        '{"counters": [1, 2]}',                 # counters not an object
        '{"counters": {"runs": "3"}}',          # a counter not a number
        '{"counters": {"runs": NaN}}',          # ... nor a finite one
        '[{"counters": {}}]',                   # not an object at all
    ])
    def test_malformed_file_names_the_path(self, body, tmp_path):
        path = tmp_path / "bad.json"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body)
        with pytest.raises(TraceSchemaError, match="bad.json"):
            load_snapshot(str(path))
