"""Unit tests for the telemetry plane (spans, metrics, RNG accounting).

The integration-level guarantees — byte-identical solver output with a
collector installed, span coverage of the real pipeline — live in
``tests/test_telemetry_integration.py``; this file exercises the package
itself: the runtime slot, span tree mechanics, the metrics registry, the
counting generator's stream identity, and the snapshot/rollup readers.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.errors import TelemetryError
from repro.telemetry import report
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry


@pytest.fixture
def collector():
    with telemetry.collect() as col:
        yield col


class TestRuntimeSlot:
    def test_disabled_by_default(self):
        assert telemetry.active() is None
        assert telemetry.span("anything") is telemetry.NOOP_SPAN

    def test_collect_installs_and_clears(self):
        with telemetry.collect() as col:
            assert telemetry.active() is col
            assert isinstance(telemetry.span("x"), telemetry.Span)
        assert telemetry.active() is None

    def test_double_install_raises(self, collector):
        with pytest.raises(TelemetryError, match="already installed"):
            telemetry.install()

    def test_collect_tolerates_reinstall_inside_block(self):
        # e17 uninstalls the ambient collector to price the disabled path,
        # then reinstalls it; collect()'s cleanup must cope with both the
        # gap and a different collector sitting in the slot at exit.
        with telemetry.collect() as col:
            assert telemetry.uninstall() is col
            other = telemetry.install()
            assert telemetry.active() is other
        assert telemetry.active() is other  # not ours to clear
        assert telemetry.uninstall() is other

    def test_snapshot_requires_collector(self):
        with pytest.raises(TelemetryError, match="no telemetry collector"):
            telemetry.snapshot()

    def test_noop_span_is_shared_and_chainable(self):
        span = telemetry.span("disabled", n=4)
        assert span.set("k", 1) is span
        with span as inner:
            assert inner is telemetry.NOOP_SPAN


class TestSpans:
    def test_nesting_builds_parent_links(self, collector):
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        inner, outer = collector.records
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.children_s <= outer.duration_s
        assert outer.children_s >= inner.duration_s

    def test_attrs_via_kwargs_and_set(self, collector):
        with telemetry.span("s", n=16) as span:
            span.set("rounds", 3.5).set("mode", "quantum")
        (record,) = collector.records
        assert record.attrs == {"n": 16, "rounds": 3.5, "mode": "quantum"}

    def test_reentry_is_an_error(self, collector):
        span = telemetry.span("once")
        with span:
            with pytest.raises(RuntimeError, match="already open"):
                span.__enter__()

    def test_span_ids_unique_and_thread_scoped_stacks(self, collector):
        def worker():
            with telemetry.span("threaded"):
                # The worker thread's stack is independent of main's.
                assert collector.current_span().name == "threaded"

        with telemetry.span("main_side"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        ids = [record.span_id for record in collector.records]
        assert len(ids) == len(set(ids))
        threaded = next(r for r in collector.records if r.name == "threaded")
        assert threaded.parent_id is None  # not a child of main's span

    def test_exception_still_closes_span(self, collector):
        with pytest.raises(ValueError):
            with telemetry.span("failing"):
                raise ValueError("boom")
        assert collector.records[0].name == "failing"
        assert collector.open_spans == 0


class TestMetrics:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(TelemetryError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(4)
        gauge.set(2.5)
        assert gauge.value == 2.5

    def test_histogram_buckets_and_stats(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 10.0):
            hist.observe(value)
        assert hist.counts == [1, 2, 1, 1]
        assert hist.count == 5
        assert hist.mean == pytest.approx(16.5 / 5)
        assert hist.as_dict()["min"] == 0.5
        assert hist.as_dict()["max"] == 10.0

    def test_histogram_quantiles_clamped_to_observed_range(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 10.0):
            hist.observe(value)
        assert hist.quantile(0.0) <= hist.quantile(0.5) <= hist.quantile(1.0)
        assert hist.quantile(1.0) <= 10.0
        assert hist.quantile(0.0) >= 0.5
        empty = Histogram("e")
        assert np.isnan(empty.quantile(0.5))
        with pytest.raises(TelemetryError):
            hist.quantile(1.5)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(TelemetryError, match="ascending"):
            Histogram("bad", bounds=(2.0, 1.0))
        with pytest.raises(TelemetryError, match="ascending"):
            Histogram("bad", bounds=())

    def test_registry_get_or_create_and_kind_conflict(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1
        assert "a" in registry
        with pytest.raises(TelemetryError, match="not a Gauge"):
            registry.gauge("a")

    def test_registry_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.inc("hits", 3)
        registry.set_gauge("depth", 2)
        registry.observe("latency", 0.01)
        snap = registry.snapshot()
        assert snap["counters"] == {"hits": 3}
        assert snap["gauges"] == {"depth": 2}
        assert snap["histograms"]["latency"]["count"] == 1


class TestCountingGenerator:
    def test_stream_identity_with_default_rng(self):
        counting = telemetry.counting_generator(99)
        plain = np.random.default_rng(99)
        assert counting.random(7).tolist() == plain.random(7).tolist()
        assert (
            counting.integers(0, 50, size=11).tolist()
            == plain.integers(0, 50, size=11).tolist()
        )
        assert (
            counting.choice(20, size=5, replace=False).tolist()
            == plain.choice(20, size=5, replace=False).tolist()
        )
        assert counting.permutation(9).tolist() == plain.permutation(9).tolist()
        a, b = np.arange(13), np.arange(13)
        counting.shuffle(a)
        plain.shuffle(b)
        assert a.tolist() == b.tolist()
        assert counting.normal(size=4).tolist() == plain.normal(size=4).tolist()

    def test_draws_charged_to_innermost_span(self, collector):
        rng = collector.counting_generator(1)
        rng.random(5)  # outside any span: unattributed
        with telemetry.span("a"):
            rng.random(3)
            with telemetry.span("b"):
                rng.integers(0, 9, size=4)
        assert collector.rng_calls == 3
        assert collector.rng_draws == 12
        assert collector.unattributed_rng_draws == 5
        by_name = {record.name: record for record in collector.records}
        assert by_name["a"].rng_draws == 3
        assert by_name["b"].rng_draws == 4

    def test_scalar_draws_count_one(self, collector):
        rng = collector.counting_generator(2)
        rng.random()
        assert collector.rng_calls == 1
        assert collector.rng_draws == 1

    def test_no_collector_still_works(self):
        rng = telemetry.counting_generator(5)
        assert rng.random(3).shape == (3,)


class TestSnapshotAndReport:
    def make_snapshot(self, collector):
        rng = collector.counting_generator(0)
        with telemetry.span("outer", n=8):
            rng.random(10)
            with telemetry.span("outer.child"):
                rng.random(20)
        collector.record_congest("phase_a", 4, 40, 2.0)
        collector.record_congest("phase_a", 2, 16, 4.0)
        return collector.snapshot()

    def test_snapshot_is_json_safe_and_versioned(self, collector):
        snap = self.make_snapshot(collector)
        assert snap["schema"] == telemetry.SCHEMA
        assert snap["version"] == telemetry.TELEMETRY_VERSION
        assert json.loads(json.dumps(snap)) == snap
        assert snap["congest"]["phase_a"] == {
            "batches": 2, "messages": 6, "words": 56, "rounds": 6.0,
        }
        assert snap["congest"]["phase_a"]["batches"] == 2
        assert not any(
            name.startswith("congest.") for name in snap["metrics"]["counters"]
        )

    def test_rollup_self_time_and_rng(self, collector):
        agg = report.rollup(self.make_snapshot(collector))
        assert agg["outer"]["count"] == 1
        assert agg["outer"]["rng_draws"] == 10
        assert agg["outer.child"]["rng_draws"] == 20
        assert agg["outer"]["self_seconds"] <= agg["outer"]["wall_seconds"]

    def test_phase_breakdown_shape(self, collector):
        breakdown = report.phase_breakdown(self.make_snapshot(collector))
        assert breakdown["schema"] == telemetry.SCHEMA
        assert set(breakdown["phases"]) == {"outer", "outer.child"}
        assert breakdown["rng"] == {"calls": 2, "draws": 30}
        assert breakdown["congest"]["phase_a"] == {"rounds": 6.0, "words": 56}

    def test_consistency_clean_and_violations(self, collector):
        snap = self.make_snapshot(collector)
        assert report.consistency_problems(snap) == []
        broken = json.loads(json.dumps(snap))
        broken["rng"]["draws"] += 1
        broken["spans"][0]["parent_id"] = "bogus"
        problems = report.consistency_problems(broken)
        assert any("rng draws" in p for p in problems)
        assert any("dangling" in p for p in problems)

    def test_validate_snapshot_rejects_wrong_schema(self, collector):
        snap = self.make_snapshot(collector)
        assert report.validate_snapshot(snap) is snap
        with pytest.raises(TelemetryError, match="unknown telemetry schema"):
            report.validate_snapshot({"schema": "other/v9"})
        with pytest.raises(TelemetryError, match="missing"):
            report.validate_snapshot({"schema": "repro.telemetry/v1"})
        with pytest.raises(TelemetryError, match="JSON object"):
            report.validate_snapshot([1, 2])

    def test_load_snapshot_roundtrip(self, collector, tmp_path):
        snap = self.make_snapshot(collector)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(snap))
        assert report.load_snapshot(path) == snap

    def test_format_snapshot_renders(self, collector):
        text = report.format_snapshot(self.make_snapshot(collector))
        assert "outer.child" in text
        assert "rng:" in text
        assert "phase_a" in text
