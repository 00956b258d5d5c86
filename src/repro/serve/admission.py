"""Admission control: token-bucket rate limiting plus a bounded queue.

The service's frontdoor.  Every request is *offered*; it is *admitted*
only if the queue has room and the token bucket has a token, otherwise
it is *shed* with a 429 the client-side :class:`~repro.net.client.
RetryPolicy` knows how to back off from.  The controller keeps exact
accounting (``offered == admitted + shed`` always) and counts every
decision into the metrics registry, so the bench can pin shed counts
and assert that no request ever overflowed the queue without being
shed — the ``unshed_overflows`` invariant the acceptance criteria gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.checkpointed import Checkpointed
from repro.obs import NULL_OBS, LabelKeys, Observability

#: Admission decisions.
ADMIT = "admit"
SHED_RATE = "rate"
SHED_QUEUE = "queue"


@dataclass(frozen=True)
class AdmissionConfig:
    """Frontdoor limits, all in virtual-time units."""

    #: Token refill rate, tokens per virtual second.
    qps: float = 1.0
    #: Bucket capacity: the largest burst admitted at line rate.
    burst: int = 12
    #: Requests allowed to wait for a worker before queue shedding.
    max_queue: int = 48

    def __post_init__(self) -> None:
        # Negated so NaN fails too (every comparison with NaN is false).
        if not self.qps >= 0:
            raise ValueError("qps cannot be negative")
        if not self.burst >= 1:
            raise ValueError("burst must admit at least one request")
        if not self.max_queue >= 1:
            raise ValueError("max_queue must hold at least one request")


class TokenBucket(Checkpointed):
    """A classic token bucket on an injected clock.

    Refill is computed lazily from elapsed virtual time, so the bucket
    is a pure function of the acquisition sequence and the clock — no
    background refill task, nothing to drift.  Its checkpoint is the
    fill level and the refill cursor: floats survive a JSON round trip
    exactly, so refill after a restore matches the uninterrupted run
    bit for bit.
    """

    _STATE = ("_tokens", "_last_refill")

    def __init__(self, rate: float, capacity: float,
                 now: Callable[[], float]) -> None:
        if not rate >= 0:
            raise ValueError("rate cannot be negative")
        if not capacity > 0:
            raise ValueError("capacity must be positive")
        self._rate = float(rate)
        self._capacity = float(capacity)
        self._now = now
        self._tokens = float(capacity)
        self._last_refill = now()

    @property
    def available(self) -> float:
        self._refill()
        return self._tokens

    def _refill(self) -> None:
        now = self._now()
        if now > self._last_refill:
            self._tokens = min(self._capacity,
                               self._tokens + (now - self._last_refill)
                               * self._rate)
            self._last_refill = now

    def try_acquire(self) -> bool:
        """Take one token if the bucket holds one."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class AdmissionController(Checkpointed):
    """Decides admit/shed for each offered request.

    Queue pressure is checked before the bucket so a saturated service
    sheds without burning tokens that line-rate traffic could use.
    """

    _STATE = ("offered", "admitted", "shed", "unshed_overflows", "bucket")

    def __init__(self, config: AdmissionConfig,
                 now: Callable[[], float],
                 obs: Optional[Observability] = None) -> None:
        self.config = config
        self.obs = obs or NULL_OBS
        self.bucket = TokenBucket(config.qps, config.burst, now)
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        #: Requests that overflowed the queue *after* being admitted.
        #: The admit decision and the enqueue are atomic (no await
        #: between them), so this must stay zero; the serve bench
        #: asserts it.
        self.unshed_overflows = 0
        self._endpoint_keys = LabelKeys("endpoint")
        self._shed_keys = LabelKeys("endpoint", "reason")

    def decide(self, endpoint: str, queue_depth: int) -> str:
        """One admission decision; returns :data:`ADMIT` or a shed
        reason (``"queue"`` / ``"rate"``)."""
        metrics = self.obs.metrics
        key = self._endpoint_keys[endpoint]
        self.offered += 1
        metrics.inc_keyed("serve.requests_offered", key)
        if queue_depth >= self.config.max_queue:
            reason = SHED_QUEUE
        elif not self.bucket.try_acquire():
            reason = SHED_RATE
        else:
            self.admitted += 1
            metrics.inc_keyed("serve.requests_admitted", key)
            return ADMIT
        self.shed += 1
        metrics.inc_keyed("serve.shed_requests",
                          self._shed_keys[endpoint, reason])
        return reason

    def record_unshed_overflow(self, endpoint: str) -> None:
        """An admitted request found the queue full anyway — the
        accounting invariant broke.  Recorded, never expected."""
        self.unshed_overflows += 1
        self.obs.metrics.inc("serve.unshed_overflows", endpoint=endpoint)

    def accounting_consistent(self) -> bool:
        return self.offered == self.admitted + self.shed
