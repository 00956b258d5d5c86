"""repro.obs: deterministic metrics + tracing for the whole stack.

The subsystem has three pieces:

* :class:`MetricsRegistry` — labelled counters, gauges, histograms;
* :class:`Tracer` — nested spans timestamped with ``(simulation day,
  monotonic op counter)`` pairs, never wall-clock time;
* :class:`Observability` — one registry + one tracer sharing one op
  counter, which is what instrumented components accept.

Everything defaults to :data:`NULL_OBS` (a no-op context), so code that
never wires in observability behaves exactly as before.  ``World``
builds a real context bound to the simulation clock and threads it
through the net fabric, HTTP client/servers, the mitm proxy, the
monitor, and both paper pipelines.  Exports are byte-identical across
runs with the same scenario seed.
"""

from repro.obs.export import (
    load_snapshot,
    render_obs_table,
    save_snapshot,
    to_json,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    HistogramState,
    LabelKeys,
    MetricsRegistry,
    NullMetricsRegistry,
    OpCounter,
    label_key,
    render_key,
)
from repro.obs.observability import NULL_OBS, NullObservability, Observability
from repro.obs.tracing import NullTracer, SpanRecord, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "HistogramState",
    "LabelKeys",
    "MetricsRegistry",
    "NULL_OBS",
    "NullMetricsRegistry",
    "NullObservability",
    "NullTracer",
    "Observability",
    "OpCounter",
    "SpanRecord",
    "Tracer",
    "label_key",
    "load_snapshot",
    "render_key",
    "render_obs_table",
    "save_snapshot",
    "to_json",
]
