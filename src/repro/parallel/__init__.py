"""repro.parallel: deterministic task execution.

The Section-4 pipeline fans its per-day workload (affiliate app x
country milk runs, profile-fetch queues) out as self-contained tasks,
and every export must not depend on the order they run in:

* each task derives its own RNG from ``(seed, *key parts)`` instead of
  drawing from a shared stream, so TLS nonces and key material do not
  depend on which other tasks ran first;
* tasks run inside a **flow scope** (a contextvar naming the logical
  task), which the chaos engine folds into its per-host sequence
  counters so fault decisions are a function of the task, not of the
  global arrival order;
* :class:`ShardScheduler` returns results in **input order**, and
  callers merge side effects (dataset ingestion, per-task
  ``Observability`` contexts) in a canonical order.
"""

from repro.parallel.flow import current_flow, flow_scope
from repro.parallel.hashing import derive_rng, derive_seed, stable_hash
from repro.parallel.scheduler import ShardScheduler

__all__ = [
    "ShardScheduler",
    "current_flow",
    "derive_rng",
    "derive_seed",
    "flow_scope",
    "stable_hash",
]
