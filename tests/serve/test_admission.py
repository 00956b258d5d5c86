"""Admission control: token bucket refill, shed reasons, accounting."""

import math

import pytest

from repro.obs import Observability
from repro.serve import (
    ADMIT,
    SHED_QUEUE,
    SHED_RATE,
    AdmissionConfig,
    AdmissionController,
    TokenBucket,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTokenBucket:
    def test_burst_then_starve(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, capacity=3, now=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False]

    def test_refills_with_elapsed_virtual_time(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=4, now=clock)
        for _ in range(4):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.now = 1.5  # 3 tokens back at 2/s
        assert bucket.available == pytest.approx(3.0)
        assert all(bucket.try_acquire() for _ in range(3))
        assert not bucket.try_acquire()

    def test_refill_caps_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, capacity=2, now=clock)
        clock.now = 100.0
        assert bucket.available == pytest.approx(2.0)

    def test_rejects_bad_parameters(self):
        clock = FakeClock()
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0, capacity=1, now=clock)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0, now=clock)
        # NaN passes every ordered comparison's negation: a NaN rate
        # would refill the bucket to capacity on every call.
        with pytest.raises(ValueError):
            TokenBucket(rate=math.nan, capacity=1, now=clock)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=math.nan, now=clock)


class TestAdmissionConfig:
    @pytest.mark.parametrize("field, value", [
        ("qps", -1.0), ("qps", math.nan), ("burst", 0), ("burst", math.nan),
        ("max_queue", 0), ("max_queue", math.nan)])
    def test_rejects_bad_limits(self, field, value):
        with pytest.raises(ValueError):
            AdmissionConfig(**{field: value})

    def test_zero_qps_is_allowed(self):
        assert AdmissionConfig(qps=0.0).qps == 0.0


class TestAdmissionController:
    def make(self, **overrides):
        clock = FakeClock()
        defaults = dict(qps=1.0, burst=2, max_queue=3)
        defaults.update(overrides)
        controller = AdmissionController(
            AdmissionConfig(**defaults), now=clock, obs=Observability())
        return controller, clock

    def test_sheds_rate_once_the_burst_is_spent(self):
        controller, _ = self.make()
        decisions = [controller.decide("flagged", queue_depth=0)
                     for _ in range(3)]
        assert decisions == [ADMIT, ADMIT, SHED_RATE]

    def test_queue_pressure_sheds_before_spending_tokens(self):
        controller, _ = self.make()
        assert controller.decide("ingest", queue_depth=3) == SHED_QUEUE
        # The full queue did not burn a token: the burst is intact.
        assert controller.bucket.available == pytest.approx(2.0)

    def test_refill_readmits_after_virtual_time_passes(self):
        controller, clock = self.make()
        controller.decide("health", 0)
        controller.decide("health", 0)
        assert controller.decide("health", 0) == SHED_RATE
        clock.now = 1.0
        assert controller.decide("health", 0) == ADMIT

    def test_accounting_invariant_and_counters(self):
        controller, _ = self.make()
        for depth in (0, 0, 0, 3, 0):
            controller.decide("metrics", depth)
        assert controller.offered == 5
        assert controller.offered == controller.admitted + controller.shed
        assert controller.accounting_consistent()
        metrics = controller.obs.metrics
        assert metrics.counter_total("serve.requests_offered") == 5
        assert metrics.counter_value(
            "serve.shed_requests", endpoint="metrics",
            reason=SHED_QUEUE) == 1
        assert metrics.counter_value(
            "serve.shed_requests", endpoint="metrics",
            reason=SHED_RATE) == 2

    def test_unshed_overflow_is_recorded_not_expected(self):
        controller, _ = self.make()
        assert controller.unshed_overflows == 0
        controller.record_unshed_overflow("ingest")
        assert controller.unshed_overflows == 1
        assert controller.obs.metrics.counter_total(
            "serve.unshed_overflows") == 1
