"""Deterministic metrics primitives: counters, gauges, histograms.

Every metric is keyed by ``(name, labels)`` where the labels are
canonicalised to a sorted tuple, so two call sites that pass the same
labels in different orders update the same series.  The registry never
reads the wall clock or any randomness source: snapshots are pure
functions of the sequence of recording calls, which is what makes
exports byte-identical across runs with the same scenario seed.

Each metric kind has one implementation, its keyed method
(:meth:`MetricsRegistry.inc_keyed`, ``observe_keyed``,
``set_gauge_keyed``), which takes the series key ready-made; the keyword
methods (``inc(name, **labels)`` and friends) only build that key with
:func:`label_key` first.  Hot call sites skip the build: a fixed label
set is a module constant, and labels whose values vary live in a
:class:`LabelKeys` on the site's long-lived owner.  A key is a plain
tuple, valid in every registry, so it survives ``load_state``, merges
and the task-local contexts pipelines pass per call.

A :class:`NullMetricsRegistry` accepts every call and records nothing;
instrumented code defaults to it so un-wired call sites cost almost
nothing and never fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.checkpointed import Checkpointed

Number = Union[int, float]
LabelItems = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (values above the last bound
#: land in the overflow bucket).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)

#: Bucket bounds (in obs ops) for the wild and honey pipelines' per-stage
#: op-cost histograms.  Stage costs span roughly three orders of
#: magnitude between the unit-test scale and the bench scale, hence the
#: log-ish spacing.
STAGE_OP_BOUNDS: Tuple[float, ...] = (
    100.0, 300.0, 1_000.0, 3_000.0, 10_000.0, 30_000.0,
    100_000.0, 300_000.0, 1_000_000.0)


def label_key(labels: Mapping[str, object]) -> LabelItems:
    """Canonical, hashable form of a label set.

    The no-label and single-label cases — the overwhelming majority of
    recording calls on the hot network path — skip the sort; the result
    is identical to the general branch.
    """
    if not labels:
        return ()
    if len(labels) == 1:
        ((key, value),) = labels.items()
        return ((key, value if type(value) is str else str(value)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class LabelKeys(dict):
    """Label values -> their :func:`label_key`, built on first use.

    A hot recording site whose label values vary keeps one of these on
    its long-lived owner and indexes it with the value of its one label
    name, or with the tuple of values in ``names`` order::

        self._keys = LabelKeys("host", "status")
        metrics.inc_keyed("requests", self._keys[host, status])

    Values that compare equal must render equally (do not mix ``1`` and
    ``True`` under one name), since they share one entry.
    """

    __slots__ = ("_names",)

    _TRANSIENT = {
        "items": "a memo: each key is a pure function of its label "
                 "values, refilled on first use",
    }

    def __init__(self, *names: str) -> None:
        super().__init__()
        self._names = names

    def __missing__(self, values: object) -> LabelItems:
        names = self._names
        if len(names) == 1:
            labels = {names[0]: values}
        else:
            labels = dict(zip(names, values))  # type: ignore[call-overload]
        key = self[values] = label_key(labels)
        return key


class OpCounter(Checkpointed):
    """The monotonic operation counter behind every obs timestamp.

    One counter is shared by a context's registry and tracer: every
    recorded metric and every span boundary ticks it, so a span's
    ``(end_op - start_op)`` is the number of instrumented operations
    that happened inside it — a deterministic stand-in for duration.
    A checkpoint restores it in place, under both.
    """

    _STATE = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def tick(self) -> int:
        self._value += 1
        return self._value

    def advance(self, amount: int) -> int:
        """Absorb ``amount`` ticks recorded by a merged context."""
        if amount < 0:
            raise ValueError("cannot advance the op counter backwards")
        self._value += amount
        return self._value


def render_key(name: str, labels: LabelItems) -> str:
    """``name{k=v,...}`` rendering used in snapshots and tables."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


@dataclass
class HistogramState:
    """Counts of observations against fixed bucket bounds."""

    bounds: Tuple[float, ...]
    bucket_counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.bucket_counts:
            # one bucket per bound plus the overflow bucket
            self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        # The comparisons ``min``/``max`` make: the kept extreme stays
        # unless the value is strictly beyond it (ties and NaN keep it).
        minimum = self.minimum
        if minimum is None or value < minimum:
            self.minimum = value
        maximum = self.maximum
        if maximum is None or value > maximum:
            self.maximum = value
        index = 0
        for bound in self.bounds:
            if value <= bound:
                self.bucket_counts[index] += 1
                return
            index += 1
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def copy(self) -> "HistogramState":
        return HistogramState(
            bounds=self.bounds,
            bucket_counts=list(self.bucket_counts),
            count=self.count,
            total=self.total,
            minimum=self.minimum,
            maximum=self.maximum,
        )

    def merge(self, other: "HistogramState") -> None:
        """Fold another state's observations in (bounds must match)."""
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} != {other.bounds}")
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.count += other.count
        self.total += other.total
        if other.minimum is not None:
            self.minimum = (other.minimum if self.minimum is None
                            else min(self.minimum, other.minimum))
        if other.maximum is not None:
            self.maximum = (other.maximum if self.maximum is None
                            else max(self.maximum, other.maximum))

    def quantile(self, q: float) -> float:
        """Deterministic bucket-resolution quantile estimate.

        Returns the upper bound of the bucket holding the ``q``-th
        observation (clamped to the recorded min/max); observations in
        the overflow bucket report the recorded maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if not self.count:
            return 0.0
        rank = max(1, int(q * self.count + 0.999999))
        cumulative = 0
        for index, bound in enumerate(self.bounds):
            cumulative += self.bucket_counts[index]
            if cumulative >= rank:
                low = self.minimum if self.minimum is not None else bound
                high = self.maximum if self.maximum is not None else bound
                return min(max(bound, low), high)
        return self.maximum if self.maximum is not None else self.bounds[-1]

    def summary(self) -> Dict[str, object]:
        """The standard percentile summary every exporter pins.

        One shape for every ``export_*_obs.py`` script and the serve
        report: count, mean (rounded to 0.1 for snapshot stability),
        bucket-resolution p50/p90/p95/p99, and the exact min/max.
        """
        return {
            "count": self.count,
            "mean": round(self.mean, 1),
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "min": self.minimum,
            "max": self.maximum,
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }


class MetricsRegistry(Checkpointed):
    """Labelled counters, gauges, and histograms with sorted exports.

    When given an :class:`OpCounter`, every recording call ticks it, so
    trace spans can measure their cost in instrumented operations.

    A checkpoint holds every series under its exact key: ``snapshot``
    renders label tuples into display strings, which is lossy.
    """

    _STATE = ("_counters", "_gauges", "_histograms", "_histogram_bounds")
    _counters: Dict[str, Dict[LabelItems, Number]]
    _gauges: Dict[str, Dict[LabelItems, Number]]
    _histograms: Dict[str, Dict[LabelItems, HistogramState]]
    _histogram_bounds: Dict[str, Tuple[float, ...]]

    def __init__(self, counter: Optional[OpCounter] = None) -> None:
        self._counter = counter
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._histogram_bounds = {}

    @property
    def enabled(self) -> bool:
        return True

    # -- recording -----------------------------------------------------------
    #
    # The keyed methods are the one implementation of each metric kind;
    # they tick the shared op counter inline (one tick per recording).

    def inc_keyed(self, name: str, key: LabelItems, value: Number = 1) -> None:
        """`inc` with a ready :func:`label_key` tuple (a module constant
        or a :class:`LabelKeys` entry on the call site's owner)."""
        counter = self._counter
        if counter is not None:
            counter._value += 1
        series = self._counters.get(name)
        if series is None:
            series = self._counters[name] = {}
        series[key] = series.get(key, 0) + value

    def set_gauge_keyed(self, name: str, key: LabelItems,
                        value: Number) -> None:
        counter = self._counter
        if counter is not None:
            counter._value += 1
        series = self._gauges.get(name)
        if series is None:
            series = self._gauges[name] = {}
        series[key] = value

    def observe_keyed(self, name: str, key: LabelItems,
                      value: Number) -> None:
        counter = self._counter
        if counter is not None:
            counter._value += 1
        series = self._histograms.get(name)
        if series is None:
            series = self._histograms[name] = {}
        state = series.get(key)
        if state is None:
            bounds = self._histogram_bounds.get(name, DEFAULT_BUCKETS)
            state = series[key] = HistogramState(bounds=bounds)
        state.observe(value)

    def inc(self, name: str, value: Number = 1, **labels: object) -> None:
        self.inc_keyed(name, label_key(labels), value)

    def set_gauge(self, name: str, value: Number, **labels: object) -> None:
        self.set_gauge_keyed(name, label_key(labels), value)

    def observe(self, name: str, value: Number, **labels: object) -> None:
        self.observe_keyed(name, label_key(labels), value)

    def declare_histogram(self, name: str, bounds: Tuple[float, ...]) -> None:
        """Set custom bucket bounds for ``name`` (before first observe)."""
        if name in self._histograms:
            raise ValueError(f"histogram {name!r} already has observations")
        self._histogram_bounds[name] = tuple(bounds)

    # -- merging -------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's records into this one.

        Counters and histograms are summed; gauges take the other
        registry's value (last write wins, matching what inline
        recording in merge order would have produced).  The op counter
        is deliberately *not* ticked: merging is bookkeeping, and the
        merged context's own ticks are absorbed separately by
        :meth:`Observability.merge`.
        """
        if not other.enabled:
            return
        for name, series in other._counters.items():
            mine = self._counters.setdefault(name, {})
            for key, value in series.items():
                mine[key] = mine.get(key, 0) + value
        for name, series in other._gauges.items():
            self._gauges.setdefault(name, {}).update(series)
        for name, bounds in other._histogram_bounds.items():
            self._histogram_bounds.setdefault(name, bounds)
        for name, series in other._histograms.items():
            mine_hist = self._histograms.setdefault(name, {})
            for key, state in series.items():
                if key in mine_hist:
                    mine_hist[key].merge(state)
                else:
                    mine_hist[key] = state.copy()

    # -- queries -------------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> Number:
        return self._counters.get(name, {}).get(label_key(labels), 0)

    def counter_total(self, name: str) -> Number:
        return sum(self._counters.get(name, {}).values())

    def counter_total_by_label(self, name: str, label: str,
                               value: object) -> Number:
        """Sum of every ``name`` series carrying ``label=value``
        (e.g. all ``serve.responses`` for one endpoint)."""
        wanted = (str(label), str(value))
        return sum(count
                   for key, count in self._counters.get(name, {}).items()
                   if wanted in key)

    def counters(self) -> Dict[str, Number]:
        """All counter series as ``rendered-key -> value``, sorted."""
        flat: Dict[str, Number] = {}
        for name in sorted(self._counters):
            for key in sorted(self._counters[name]):
                flat[render_key(name, key)] = self._counters[name][key]
        return flat

    def gauges(self) -> Dict[str, Number]:
        flat: Dict[str, Number] = {}
        for name in sorted(self._gauges):
            for key in sorted(self._gauges[name]):
                flat[render_key(name, key)] = self._gauges[name][key]
        return flat

    def histogram(self, name: str, **labels: object) -> Optional[HistogramState]:
        return self._histograms.get(name, {}).get(label_key(labels))

    def snapshot(self) -> Dict[str, object]:
        histograms: Dict[str, object] = {}
        for name in sorted(self._histograms):
            for key in sorted(self._histograms[name]):
                histograms[render_key(name, key)] = (
                    self._histograms[name][key].to_dict())
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": histograms,
        }


def declare_stage_histograms(metrics: MetricsRegistry,
                              names: Sequence[str]) -> None:
    """Give each of a pipeline's per-stage op-cost histograms the
    :data:`STAGE_OP_BOUNDS` buckets."""
    for name in names:
        try:
            metrics.declare_histogram(name, STAGE_OP_BOUNDS)
        except ValueError:
            pass  # an earlier run on this world already did


class NullMetricsRegistry(MetricsRegistry):
    """Accepts every recording call, stores nothing."""

    @property
    def enabled(self) -> bool:
        return False

    def inc_keyed(self, name: str, key: LabelItems, value: Number = 1) -> None:
        pass

    def set_gauge_keyed(self, name: str, key: LabelItems,
                        value: Number) -> None:
        pass

    def observe_keyed(self, name: str, key: LabelItems,
                      value: Number) -> None:
        pass

    def inc(self, name: str, value: Number = 1, **labels: object) -> None:
        pass

    def set_gauge(self, name: str, value: Number, **labels: object) -> None:
        pass

    def observe(self, name: str, value: Number, **labels: object) -> None:
        pass

    def declare_histogram(self, name: str, bounds: Tuple[float, ...]) -> None:
        pass

    def merge(self, other: MetricsRegistry) -> None:
        pass
