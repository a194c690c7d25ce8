"""The metrics registry: instruments, timers, the global toggle, profiler."""

import pytest

from repro import obs
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry


class TestToggle:
    def test_disabled_by_default(self):
        assert not obs.telemetry_enabled()

    def test_use_telemetry_scopes_and_restores(self):
        assert not obs.telemetry_enabled()
        with obs.use_telemetry():
            assert obs.telemetry_enabled()
            with obs.use_telemetry(False):
                assert not obs.telemetry_enabled()
            assert obs.telemetry_enabled()
        assert not obs.telemetry_enabled()

    def test_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.use_telemetry():
                raise RuntimeError("boom")
        assert not obs.telemetry_enabled()

    def test_set_telemetry_returns_previous(self):
        assert obs.set_telemetry(True) is False
        assert obs.set_telemetry(False) is True


class TestInstruments:
    def test_counter(self):
        counter = Counter("steps")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot() == {"type": "counter", "value": 5}

    def test_gauge_last_write_wins(self):
        gauge = Gauge("lr")
        assert gauge.value is None
        gauge.set(0.1)
        gauge.set(0.05)
        assert gauge.snapshot() == {"type": "gauge", "value": 0.05}

    def test_histogram_running_stats(self):
        histogram = Histogram("loss")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 3
        assert snap["mean"] == pytest.approx(2.0)
        assert snap["std"] == pytest.approx((2.0 / 3.0) ** 0.5)
        assert (snap["min"], snap["max"], snap["last"]) == (1.0, 3.0, 3.0)
        assert histogram.mean == pytest.approx(2.0)

    def test_empty_histogram(self):
        histogram = Histogram("empty")
        assert histogram.mean is None
        assert histogram.snapshot() == {"type": "histogram", "count": 0}


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc()
        assert registry.counter("x").value == 2
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_timer_observes_elapsed(self):
        registry = MetricsRegistry()
        with registry.timer("span") as timer:
            pass
        assert timer.elapsed >= 0.0
        snap = registry.histogram("span").snapshot()
        assert snap["count"] == 1
        assert snap["last"] == pytest.approx(timer.elapsed)

    def test_snapshot_merges_and_sorts(self):
        registry = MetricsRegistry()
        registry.counter("b.count").inc()
        registry.gauge("a.gauge").set(1.0)
        registry.histogram("c.hist").observe(2.0)
        snap = registry.snapshot()
        assert list(snap) == ["a.gauge", "b.count", "c.hist"]
        assert snap["b.count"]["type"] == "counter"

    def test_reset_drops_instruments_keeps_sinks(self):
        written = []

        class Sink:
            def write(self, record):
                written.append(record)

        registry = MetricsRegistry()
        registry.attach(Sink())
        registry.counter("x").inc()
        registry.reset()
        assert registry.snapshot() == {}
        registry.emit("still_attached")
        assert written[-1]["event"] == "still_attached"

    def test_emit_stamps_ts_and_fans_out(self):
        first, second = [], []

        class Sink:
            def __init__(self, store):
                self.store = store

            def write(self, record):
                self.store.append(record)

        registry = MetricsRegistry()
        a, b = Sink(first), Sink(second)
        registry.attach(a)
        registry.attach(b)
        registry.emit("step", loss=1.5)
        assert first == second
        assert first[0]["event"] == "step"
        assert first[0]["loss"] == 1.5
        assert first[0]["ts"] >= 0.0
        registry.detach(b)
        registry.emit("step2")
        assert len(first) == 2 and len(second) == 1


class TestModuleConveniences:
    def test_disabled_emit_is_noop(self, tmp_path):
        written = []

        class Sink:
            def write(self, record):
                written.append(record)

        obs.get_registry().attach(sink := Sink())
        try:
            obs.emit("ignored", value=1)
            assert written == []
        finally:
            obs.get_registry().detach(sink)

    def test_disabled_timer_is_shared_noop(self):
        from repro.obs.registry import _NULL_TIMER

        assert obs.timer("anything") is _NULL_TIMER

    def test_enabled_timer_records(self):
        registry = MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            with obs.use_telemetry():
                with obs.timer("t"):
                    pass
            assert registry.histogram("t").count == 1
        finally:
            obs.set_registry(previous)


class TestProfiler:
    @pytest.fixture(autouse=True)
    def _clean_profile(self):
        obs.reset_profile()
        yield
        obs.reset_profile()

    def test_spans_nest(self):
        with obs.use_telemetry():
            with obs.profile("step"):
                with obs.profile("forward"):
                    pass
                with obs.profile("backward"):
                    pass
            with obs.profile("step"):
                with obs.profile("forward"):
                    pass
        tree = obs.profile_tree()
        assert tree["step"]["count"] == 2
        children = tree["step"]["children"]
        assert children["forward"]["count"] == 2
        assert children["backward"]["count"] == 1
        # Children's time is contained in the parent's.
        assert (children["forward"]["total_s"] + children["backward"]["total_s"]
                <= tree["step"]["total_s"])

    def test_disabled_records_nothing(self):
        with obs.profile("ignored"):
            pass
        assert obs.profile_tree() == {}

    def test_report_renders_every_span(self):
        with obs.use_telemetry():
            with obs.profile("outer"):
                with obs.profile("inner"):
                    pass
        report = obs.profile_report()
        assert "outer" in report and "inner" in report
        assert "%" in report  # child share of parent

    def test_report_empty(self):
        assert "no profile spans" in obs.profile_report()

    def test_reset_while_span_open(self):
        with obs.use_telemetry():
            with obs.profile("outer"):
                obs.reset_profile()
                with obs.profile("fresh"):
                    pass
        assert "fresh" in obs.profile_tree()
