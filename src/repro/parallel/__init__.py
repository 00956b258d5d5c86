"""repro.parallel: deterministic task execution.

The Section-4 pipeline runs its per-day workload (affiliate app x
country milk runs, profile-fetch queues) as keyed task specs, serially
and in a fixed order, and every export is a pure function of the seeds:

* components whose draws must not depend on what ran before them
  derive their RNG from ``(seed, *key parts)`` instead of drawing from
  a shared stream;
* :class:`ShardScheduler` returns results in **input order**, and
  callers merge side effects (dataset ingestion, per-run
  ``Observability`` contexts) in a canonical order.
"""

from repro.parallel.hashing import derive_rng, derive_seed, stable_hash
from repro.parallel.scheduler import ShardScheduler

__all__ = [
    "ShardScheduler",
    "derive_rng",
    "derive_seed",
    "stable_hash",
]
