"""Unit tests for the metrics registry."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_BUCKETS,
    HistogramState,
    LabelKeys,
    MetricsRegistry,
    NullMetricsRegistry,
    OpCounter,
    label_key,
    render_key,
)


class TestCounters:
    def test_increment_and_read(self):
        registry = MetricsRegistry()
        registry.inc("net.requests", host="a.example")
        registry.inc("net.requests", host="a.example")
        registry.inc("net.requests", 5, host="b.example")
        assert registry.counter_value("net.requests", host="a.example") == 2
        assert registry.counter_value("net.requests", host="b.example") == 5
        assert registry.counter_total("net.requests") == 7

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.inc("x", host="h", method="GET")
        registry.inc("x", method="GET", host="h")
        assert registry.counter_value("x", host="h", method="GET") == 2
        assert list(registry.counters()) == ["x{host=h,method=GET}"]

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0

    def test_counter_total_by_label_sums_across_other_labels(self):
        registry = MetricsRegistry()
        registry.inc("serve.responses", endpoint="flagged", status="200")
        registry.inc("serve.responses", 2, endpoint="flagged", status="400")
        registry.inc("serve.responses", 4, endpoint="health", status="200")
        assert registry.counter_total_by_label(
            "serve.responses", "endpoint", "flagged") == 3
        assert registry.counter_total_by_label(
            "serve.responses", "status", "200") == 5
        assert registry.counter_total_by_label(
            "serve.responses", "endpoint", "missing") == 0

    def test_render_key_without_labels(self):
        assert render_key("plain", ()) == "plain"


class TestGaugesAndHistograms:
    def test_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.set_gauge("pool.size", 3, pool="vpn")
        registry.set_gauge("pool.size", 8, pool="vpn")
        assert registry.gauges() == {"pool.size{pool=vpn}": 8}

    def test_histogram_buckets_and_stats(self):
        registry = MetricsRegistry()
        registry.declare_histogram("latency", (1.0, 10.0))
        for value in (0.5, 2.0, 5.0, 100.0):
            registry.observe("latency", value)
        state = registry.histogram("latency")
        assert state.count == 4
        assert state.bucket_counts == [1, 2, 1]  # <=1, <=10, overflow
        assert state.minimum == 0.5
        assert state.maximum == 100.0
        assert state.mean == pytest.approx(26.875)

    def test_declare_after_observe_rejected(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0)
        with pytest.raises(ValueError):
            registry.declare_histogram("h", (1.0,))

    def test_summary_is_the_standard_percentile_shape(self):
        registry = MetricsRegistry()
        registry.declare_histogram("latency", (1.0, 10.0, 100.0))
        for value in (0.5, 2.0, 5.0, 50.0):
            registry.observe("latency", value)
        summary = registry.histogram("latency").summary()
        assert summary == {
            "count": 4,
            "mean": round((0.5 + 2.0 + 5.0 + 50.0) / 4, 1),
            "p50": 10.0,
            "p90": 50.0,  # bucket bound 100 clamped to the recorded max
            "p95": 50.0,
            "p99": 50.0,
            "min": 0.5,
            "max": 50.0,
        }
        assert summary["p50"] <= summary["p90"] <= summary["p99"]

    def test_empty_histogram_summary_is_all_zero(self):
        from repro.obs.metrics import HistogramState
        summary = HistogramState(bounds=(1.0, 10.0)).summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert summary["p99"] == 0.0
        assert summary["min"] is None and summary["max"] is None


class TestDeterminism:
    def test_snapshot_is_fully_sorted(self):
        registry = MetricsRegistry()
        registry.inc("z.last", host="b")
        registry.inc("a.first", host="z")
        registry.inc("z.last", host="a")
        snap = registry.snapshot()
        assert list(snap["counters"]) == sorted(snap["counters"])

    def test_same_calls_same_snapshot(self):
        def build():
            registry = MetricsRegistry()
            registry.inc("x", host="h")
            registry.observe("y", 3.0, kind="k")
            registry.set_gauge("g", 1)
            return registry.snapshot()

        assert build() == build()


class TestOpCounterWiring:
    def test_recording_ticks_shared_counter(self):
        ops = OpCounter()
        registry = MetricsRegistry(counter=ops)
        registry.inc("a")
        registry.set_gauge("b", 1)
        registry.observe("c", 2.0)
        assert ops.value == 3

    def test_unwired_registry_does_not_need_counter(self):
        registry = MetricsRegistry()
        registry.inc("a")  # must not raise
        assert registry.counter_total("a") == 1


class TestNullRegistry:
    def test_records_nothing(self):
        registry = NullMetricsRegistry()
        registry.inc("a", host="h")
        registry.set_gauge("b", 2)
        registry.observe("c", 3.0)
        registry.declare_histogram("d", (1.0,))
        assert registry.snapshot() == {"counters": {}, "gauges": {},
                                       "histograms": {}}
        assert not registry.enabled

    def test_keyed_methods_record_nothing(self):
        registry = NullMetricsRegistry()
        key = label_key({"host": "h"})
        registry.inc_keyed("a", key)
        registry.set_gauge_keyed("b", key, 2)
        registry.observe_keyed("c", key, 3.0)
        assert registry.snapshot() == {"counters": {}, "gauges": {},
                                       "histograms": {}}


class TestLabelKeys:
    def test_one_label_indexes_by_its_value(self):
        keys = LabelKeys("endpoint")
        assert keys["ingest"] == label_key({"endpoint": "ingest"})
        assert keys[7] == (("endpoint", "7"),)

    def test_several_labels_index_by_a_value_tuple(self):
        keys = LabelKeys("status", "host")
        assert keys["h", 200] == label_key({"host": 200, "status": "h"})
        assert keys["h", 200] == (("host", "200"), ("status", "h"))

    def test_each_key_is_built_once(self):
        keys = LabelKeys("host")
        assert keys["a"] is keys["a"]
        assert len(keys) == 1


# -- keyed and keyword recording agree ---------------------------------------

#: Custom bounds mixing ints and floats, declared on both registries.
CUSTOM_BOUNDS = (1, 2.5, 10, 1e6)

#: The bucket bounds themselves (ints and floats), signed zeros and
#: non-finites.
EDGE_VALUES = [*DEFAULT_BUCKETS, *CUSTOM_BOUNDS,
               0, 0.0, -0.0, math.nan, math.inf, -math.inf]

numbers = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.integers(min_value=-10, max_value=2000),
    st.floats(allow_nan=True, allow_infinity=True))
label_values = st.one_of(
    st.sampled_from(["a", "b", "200"]), st.integers(-1, 300), st.booleans())
# 0-3 distinct label names, in a random keyword order.
label_sets = st.lists(
    st.tuples(st.sampled_from(["host", "kind", "status"]), label_values),
    max_size=3, unique_by=lambda pair: pair[0]).flatmap(st.permutations)
operations = st.lists(st.tuples(
    st.sampled_from(["inc", "set_gauge", "observe"]),
    st.sampled_from(["m.default", "m.custom"]),
    numbers, label_sets), max_size=40)


def _record(keyword, keyed, operation):
    kind, name, value, pairs = operation
    labels = dict(pairs)
    if kind == "inc":
        keyword.inc(name, value, **labels)
        keyed.inc_keyed(name, label_key(labels), value)
    elif kind == "set_gauge":
        keyword.set_gauge(name, value, **labels)
        keyed.set_gauge_keyed(name, label_key(labels), value)
    else:
        keyword.observe(name, value, **labels)
        keyed.observe_keyed(name, label_key(labels), value)


def _dumps(data):
    """JSON text: tells 1 from 1.0 and -0.0 from 0.0, and NaN == NaN."""
    return json.dumps(data, sort_keys=True)


def _assert_same(keyword, keyed):
    assert _dumps(keyword.state_dict()) == _dumps(keyed.state_dict())
    assert _dumps(keyword.snapshot()) == _dumps(keyed.snapshot())
    assert keyword._counter.value == keyed._counter.value


def _registry():
    registry = MetricsRegistry(counter=OpCounter())
    registry.declare_histogram("m.custom", CUSTOM_BOUNDS)
    return registry


@settings(max_examples=150, deadline=None)
@given(before=operations, after=operations)
def test_keyed_recording_matches_keyword_recording(before, after):
    keyword, keyed = _registry(), _registry()
    for operation in before:
        _record(keyword, keyed, operation)
    _assert_same(keyword, keyed)
    # A checkpoint restore rebuilds every series key from JSON; keys
    # built by label_key still land on the restored series.
    state = json.loads(_dumps(keyword.state_dict()))
    keyword.load_state(state)
    keyed.load_state(state)
    for operation in after:
        _record(keyword, keyed, operation)
    _assert_same(keyword, keyed)
    merged_keyword, merged_keyed = _registry(), _registry()
    merged_keyword.load_state(state)
    merged_keyed.load_state(state)
    merged_keyword.merge(keyword)
    merged_keyed.merge(keyed)
    assert (_dumps(merged_keyword.state_dict())
            == _dumps(merged_keyed.state_dict()))


def _reference_observe(bounds, minimum, maximum, value):
    """``HistogramState.observe``'s bucket choice and extremes as first
    written: ``enumerate`` over the bounds, ``min()`` and ``max()``."""
    minimum = value if minimum is None else min(minimum, value)
    maximum = value if maximum is None else max(maximum, value)
    for index, bound in enumerate(bounds):
        if value <= bound:
            return index, minimum, maximum
    return len(bounds), minimum, maximum


def _exact(value):
    return None if value is None else (type(value), float.hex(float(value)))


@settings(max_examples=300, deadline=None)
@given(bounds=st.sampled_from([DEFAULT_BUCKETS, CUSTOM_BOUNDS, (0.0,)]),
       values=st.lists(numbers, max_size=30))
def test_histogram_observe_matches_the_reference_loop(bounds, values):
    state = HistogramState(bounds=bounds)
    counts = [0] * (len(bounds) + 1)
    minimum = maximum = None
    for value in values:
        index, minimum, maximum = _reference_observe(
            bounds, minimum, maximum, value)
        counts[index] += 1
        state.observe(value)
        assert state.bucket_counts == counts
        assert _exact(state.minimum) == _exact(minimum)
        assert _exact(state.maximum) == _exact(maximum)
