"""repro.recovery: crash-fault injection + deterministic checkpoint/resume.

The paper's measurement ran for months against real infrastructure; a
reproduction that loses everything when a run dies mid-way cannot claim
to model that campaign.  This package makes process death a first-class
simulated fault and recovery a provable property:

* :class:`CheckpointStore` — per-day JSON snapshots of pipeline state,
  written atomically (tmp + rename) and stamped with a content hash so
  a truncated or corrupted file is detected and skipped in favour of
  the previous day's snapshot.
* :class:`CrashPlan` — kill points in :class:`repro.net.chaos.FaultPlan`
  style: every decision is hashed from ``(crash seed, stage, day, op
  seq)``, so a same-seed run crashes at exactly the same spot, every
  time.  Explicit kill points (``stage:day[:seq]``) drive the tests and
  the CI job.
* :class:`WriteAheadLog` — per-day append-only JSONL segments of the
  serve tier's admitted ingest events, replayed into the online
  detector on resume.
* :class:`RecoveryContext` — the bundle the pipelines accept: store +
  crash plan + a *dedicated* recovery observability context.  Recovery
  counters (``recovery.checkpoints_written`` / ``crashes_injected`` /
  ``resumes`` / ``wal_replayed``) deliberately live outside the
  pipeline's own metrics registry: a resumed run must export metrics
  byte-identical to an uninterrupted one, and ``resumes == 1`` vs ``0``
  would break that.  They are exported to ``recovery_metrics.json``
  inside the checkpoint directory instead.

Why resume == uninterrupted holds
---------------------------------
Checkpoints are only written at quiescent barriers (end of a wild milk
day, end of a honey campaign merge, end of a serve virtual day with the
queue drained).  At such a barrier the pipeline's mutable state is a
finite, enumerable set of objects — RNGs, breakers, record logs, the
observability context itself — each of which serialises exactly, and
each fact is stored once: an append-only log is its cursor or its
records, and a fold of a log (the online detector, the money ledger's
balances) is rebuilt on resume by replaying the log before the
observability snapshot loads.  Everything *else* (the simulated world) is rebuilt
by re-running its deterministic constructor and replaying the
scenario's wire-free day loop, which consumes only the scenario's own
RNG stream.  Execution from a restored barrier is therefore the same
pure function of the seed as the uninterrupted run's suffix, and a
crash *between* barriers simply re-executes the partial day from the
previous barrier — deterministically, because nothing the partial day
did was persisted.
"""

from repro.recovery.checkpoint import (
    CheckpointError,
    CheckpointStore,
    RecoveryContext,
)
from repro.recovery.crash import CrashPlan, SimulatedCrash, parse_kill_point
from repro.recovery.wal import WriteAheadLog

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "CrashPlan",
    "RecoveryContext",
    "SimulatedCrash",
    "WriteAheadLog",
    "parse_kill_point",
]
