"""repro.parallel: deterministic sharded execution.

The shard scheduler lets the Section-4 pipeline fan its per-day
workload (affiliate app x country milk runs, profile-fetch queues)
across worker processes while keeping every export byte-identical to
the inline (``shards == 1``) run:

* tasks are **pinned** to workers by shard key in first-seen order, so
  every task sharing a key runs on one worker in input order;
* each task derives its own RNG from ``(seed, *key parts)`` instead of
  drawing from a shared stream, so TLS nonces and key material do not
  depend on cross-task interleaving;
* tasks run inside a **flow scope** (a contextvar naming the logical
  task), which the chaos engine folds into its per-host sequence
  counters so fault decisions are a function of the task, not of the
  global arrival order;
* results come back in **input order** regardless of which worker ran
  them, and callers merge side effects (dataset ingestion,
  per-task ``Observability`` contexts) in a canonical order.
"""

from repro.parallel.envelope import (
    apply_world_deltas,
    is_envelope,
    unwrap_result,
)
from repro.parallel.flow import current_flow, flow_scope
from repro.parallel.hashing import derive_rng, derive_seed, stable_hash
from repro.parallel.procpool import (
    ProcessWorkerPool,
    WorkerHostSpec,
    WorkerTaskError,
)
from repro.parallel.scheduler import ShardScheduler

__all__ = [
    "ProcessWorkerPool",
    "ShardScheduler",
    "WorkerHostSpec",
    "WorkerTaskError",
    "apply_world_deltas",
    "current_flow",
    "derive_rng",
    "derive_seed",
    "flow_scope",
    "is_envelope",
    "stable_hash",
    "unwrap_result",
]
