"""The deterministic shard scheduler.

``ShardScheduler.run_specs`` takes ``(shard_key, payload)`` pairs and
returns one result per pair, in input order.  ``shards`` is the one
execution knob:

``shards == 1``
    Every payload runs inline through the caller's ``local_runner``, in
    input order.
``shards > 1``
    Each payload ships to a persistent spawn-context worker process
    (see :mod:`repro.parallel.procpool`).  Keys are *pinned* first-seen
    round-robin: all tasks with one key run on one worker, in input
    order, for the scheduler's whole lifetime — so stateful cells (a
    milk country's RNG/breaker/mitm) evolve exactly as they would
    inline.  Workers are bootstrapped from a picklable
    :class:`~repro.parallel.procpool.WorkerHostSpec`, and results come
    back as plain pickled state merged post-barrier in input order.
    The pool holds ``min(shards, cores)`` processes: replicas are
    expensive to bootstrap, and because pinning + canonical-order
    merging make results worker-count-invariant, shrinking the pool
    never changes a byte of output.

Determinism contract — why a process run equals the inline run:

* tasks that share mutable state (e.g. all milk runs through one
  country's mitm cell) must share a shard key, which pins them to one
  worker in input order exactly as the inline path runs them;
* tasks that do not share state must be self-contained: own RNG
  (:func:`repro.parallel.hashing.derive_rng`), own client, own
  per-task ``Observability`` — the caller merges those in canonical
  order after ``run_specs`` returns, at which point process timing has
  no surviving trace.

Error contract: a raising task aborts the rest of its worker's batch;
once every worker has replied, the exception from the **lowest task
input index** is raised, with the other failures chained onto it via
``__context__`` (deterministic regardless of which worker finished
first).  Inline, the first raising task simply propagates.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.parallel.procpool import ProcessWorkerPool, WorkerHostSpec

T = TypeVar("T")


def _raise_chained(failures: List[Tuple[int, BaseException]]) -> None:
    """Raise the lowest-input-index failure, chaining the rest."""
    failures.sort(key=lambda item: item[0])
    exceptions = [exc for _, exc in failures]
    for earlier, later in zip(exceptions, exceptions[1:]):
        earlier.__context__ = later
    raise exceptions[0]


class ShardScheduler:
    """Runs keyed task specs inline (1 shard) or on pinned processes."""

    def __init__(self, shards: int = 1,
                 worker_host: Optional[WorkerHostSpec] = None,
                 workers: Optional[int] = None) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if shards > 1 and worker_host is None:
            raise ValueError("shards > 1 requires a worker_host spec")
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self.shards = shards
        #: Physical process count.  A worker replica's bootstrap (world
        #: rebuild + scenario replay) is pure overhead, so by default
        #: the pool never exceeds the machine's cores.  Results are
        #: worker-count-invariant: pinning keeps every key's task stream
        #: in input order on one worker regardless of how many workers
        #: exist, and the merge runs in canonical input order either way.
        self.workers = workers or min(shards, os.cpu_count() or 1)
        self._worker_host = worker_host
        self._pool: Optional[ProcessWorkerPool] = None
        #: ``key -> worker index`` pins, first-seen round-robin.  Input
        #: order is deterministic, so the pinning — and therefore each
        #: worker's task stream — is too.
        self._pins: Dict[object, int] = {}

    @property
    def uses_processes(self) -> bool:
        """True when tasks run on worker processes (``shards > 1``)."""
        return self.shards > 1

    def _worker_of(self, key: object) -> int:
        worker = self._pins.get(key)
        if worker is None:
            worker = len(self._pins) % self.workers
            self._pins[key] = worker
        return worker

    def _ensure_pool(self) -> ProcessWorkerPool:
        if self._pool is None:
            assert self._worker_host is not None
            self._pool = ProcessWorkerPool(self.workers, self._worker_host)
        return self._pool

    def broadcast(self, payload: object) -> None:
        """Advance every worker's host state (e.g. a new scenario day).
        No-op inline, where tasks see the caller's state directly."""
        if self.uses_processes:
            self._ensure_pool().broadcast(payload)

    @property
    def pins(self) -> Dict[object, int]:
        """The key -> worker-index pinning map, for checkpointing: a
        resumed pool must reuse the original pinning — re-deriving it
        first-seen from a later day's key order would route keys to
        different replicas than the original run."""
        return dict(self._pins)

    def collect_states(self) -> List[object]:
        """Every worker host's resumable state, in worker-index order
        (empty inline)."""
        if not self.uses_processes:
            return []
        return self._ensure_pool().collect_states()

    def adopt_workers(self, workers: int, pins: Dict[object, int],
                      checkpoint_dir: Optional[str] = None) -> None:
        """Arm a process resume: fix the worker count and the pinning
        map to the checkpointed values, and point the host spec at the
        checkpoint directory so each worker warms its replica via
        ``adopt_checkpoint`` at bootstrap.  Must run before the pool
        starts."""
        if self._pool is not None:
            raise RuntimeError("cannot adopt worker state after the "
                               "pool has started")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self._pins = dict(pins)
        if checkpoint_dir is not None and self._worker_host is not None:
            import dataclasses
            self._worker_host = dataclasses.replace(
                self._worker_host, checkpoint_dir=str(checkpoint_dir))

    def close(self) -> None:
        """Shut down worker processes (no-op inline)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def run_specs(self, specs: Sequence[Tuple[object, object]],
                  local_runner: Callable[[object], T]) -> List[T]:
        """Execute ``(shard_key, payload)`` specs; results in input order.

        ``local_runner`` executes one payload against the caller's own
        state (``shards == 1``).  With processes the payloads ship to
        the pinned workers instead, where the worker host interprets
        them against its replica state — so the two paths must be
        written to be behaviourally identical (the determinism tests
        enforce it end to end).
        """
        if not self.uses_processes:
            return [local_runner(payload) for _, payload in specs]
        results: List[T] = [None] * len(specs)  # type: ignore[list-item]
        if not specs:
            return results
        batches: Dict[int, List[Tuple[int, object]]] = {}
        for index, (key, payload) in enumerate(specs):
            batches.setdefault(self._worker_of(key), []).append(
                (index, payload))
        by_index, errors = self._ensure_pool().run_batches(batches)
        if errors:
            _raise_chained(list(errors))
        for index, result in by_index.items():
            results[index] = result
        return results
