"""The observability context: one registry + one tracer + one op counter.

Instrumented components take an ``Observability`` and default to
:data:`NULL_OBS`, a shared no-op context, so nothing changes for call
sites that never wire one in.  ``simulation.world.World`` creates a
real context bound to the simulation clock and threads it through the
net stack, the monitor, and both paper pipelines.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.checkpointed import Checkpointed
from repro.obs.metrics import MetricsRegistry, NullMetricsRegistry, OpCounter
from repro.obs.tracing import Clock, NullTracer, Tracer


class Observability(Checkpointed):
    """Shared metrics + tracing for one world (or one test rig).

    Its checkpoint is the exact recorded state (unlike :meth:`snapshot`,
    which renders label tuples lossily), the op counter first.  It
    includes the tracer's active span stack, so a resumed run can
    re-enter the pipeline span it was checkpointed inside of (see
    :meth:`Tracer.adopt`).
    """

    _STATE = ("ops", "metrics", "tracer")

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.ops = OpCounter()
        self.metrics: MetricsRegistry = MetricsRegistry(counter=self.ops)
        self.tracer: Tracer = Tracer(clock=clock, counter=self.ops)

    @property
    def enabled(self) -> bool:
        return True

    def bind_clock(self, clock: Clock, force: bool = False) -> None:
        """Point trace timestamps at a simulation clock (idempotent)."""
        self.tracer.bind_clock(clock, force=force)

    def tick(self) -> int:
        """Next value of the shared monotonic operation counter."""
        return self.ops.tick()

    def merge(self, other: Optional["Observability"]) -> None:
        """Fold a finished task-local context into this one.

        Used by the pipelines' task fan-outs: each task records into
        its own context, and the merge — performed in canonical task
        order after the fan-out — replays the task's counters, spans,
        and op ticks as if they had been recorded inline.  Merging in
        the same order on every run is what keeps the combined export
        byte-identical.
        """
        if other is None or other is self or not other.enabled:
            return
        if not self.enabled:
            return
        base_ops = self.ops.value
        self.metrics.merge(other.metrics)
        self.tracer.absorb(other.tracer, op_offset=base_ops,
                           parent_id=self.tracer.current_span_id)
        self.ops.advance(other.ops.value)

    def snapshot(self) -> Dict[str, object]:
        return {
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.snapshot(),
            "ops": self.ops.value,
        }


class NullObservability(Observability):
    """Records nothing; safe to share as a module-level default."""

    def __init__(self) -> None:
        super().__init__()
        self.metrics = NullMetricsRegistry()
        self.tracer = NullTracer(counter=self.ops)

    @property
    def enabled(self) -> bool:
        return False

    def tick(self) -> int:
        return 0

    def snapshot(self) -> Dict[str, object]:
        return {"metrics": self.metrics.snapshot(), "spans": [], "ops": 0}


#: The shared default: every instrumented component that is not handed a
#: real context records against this and stays a no-op.
NULL_OBS = NullObservability()
