"""Persistent spawn-context worker processes for the shard scheduler.

Worker processes cannot receive closures: a worker is bootstrapped once
from a picklable :class:`WorkerHostSpec` naming a module-level factory,
which builds a *host* object inside the worker (typically a full world
replica plus the measurement cells).  After that the parent only sends
plain payloads:

``("broadcast", payload)``
    Fire-and-forget state advancement (e.g. ``("day", 12)`` makes a
    wild worker replay the scenario day).  Broadcast failures are
    remembered and reported on the next batch.
``("batch", [(input_index, payload), ...])``
    Run the payloads in order through ``host.run_task``; the reply is
    ``("done", [(index, result), ...], [(index, exc_state), ...])``.
    A raising task aborts the rest of its batch.
``("collect",)``
    Gather the host's resumable state (``host.collect_state()``); the
    reply is ``("state", state_dict)``.  The wild pipeline folds each
    worker's state into its per-day checkpoint so a ``--shards N``
    run can resume.
``("stop",)``
    Clean shutdown.

A spec may carry ``checkpoint_dir``: after bootstrap the worker calls
``host.adopt_checkpoint(checkpoint_dir, worker_index)`` so a resumed
pool warms every replica back to the checkpointed day before the first
broadcast arrives.

Workers are *pinned*: the scheduler routes every task with the same
shard key to the same worker for the pool's whole lifetime, so stateful
cells (a milk country's RNG stream, breaker, and mitm) evolve in one
process exactly as they would inline.

Exceptions cross the process boundary as ``(type_name, str, repr)``
triples rebuilt into :class:`WorkerTaskError`: arbitrary exception
objects do not reliably pickle, and the determinism contract only needs
the failure to surface at the same input index with the same message.
"""

from __future__ import annotations

import importlib
import multiprocessing
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class WorkerHostSpec:
    """How a worker process builds its host: ``module:callable`` plus
    picklable keyword arguments.

    ``checkpoint_dir``, when set, points at a recovery checkpoint
    directory: right after bootstrap the worker calls
    ``host.adopt_checkpoint(checkpoint_dir, worker_index)`` (if the
    host defines it) so a resumed run's replicas restore their pinned
    cells' mid-run state instead of starting pristine.
    """

    factory: str
    config: Dict[str, object] = field(default_factory=dict)
    checkpoint_dir: Optional[str] = None

    def build(self) -> object:
        module_name, _, attr = self.factory.partition(":")
        if not attr:
            raise ValueError(f"factory must be 'module:callable', "
                             f"got {self.factory!r}")
        factory = getattr(importlib.import_module(module_name), attr)
        return factory(**self.config)


class WorkerTaskError(RuntimeError):
    """A task raised inside a worker process."""

    def __init__(self, type_name: str, message: str, detail: str = "") -> None:
        super().__init__(f"{type_name}: {message}")
        self.type_name = type_name
        self.detail = detail


def _exception_state(exc: BaseException) -> Tuple[str, str, str]:
    return (type(exc).__name__, str(exc),
            "".join(traceback.format_exception(exc)))


def worker_main(connection, spec: WorkerHostSpec,
                worker_index: int = 0) -> None:
    """Entry point of one worker process (module-level: spawn-picklable)."""
    broadcast_failure: Optional[Tuple[str, str, str]] = None
    try:
        host = spec.build()
        if spec.checkpoint_dir is not None and hasattr(host,
                                                       "adopt_checkpoint"):
            host.adopt_checkpoint(spec.checkpoint_dir, worker_index)
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        connection.send(("bootstrap_error", _exception_state(exc)))
        connection.close()
        return
    connection.send(("ready",))
    while True:
        try:
            message = connection.recv()
        except EOFError:
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "broadcast":
            if broadcast_failure is None:
                try:
                    host.on_broadcast(message[1])
                except BaseException as exc:  # noqa: BLE001
                    broadcast_failure = _exception_state(exc)
            continue
        if kind == "collect":
            try:
                connection.send(("state", host.collect_state()))
            except BaseException as exc:  # noqa: BLE001
                connection.send(("state_error", _exception_state(exc)))
            continue
        if kind == "batch":
            if broadcast_failure is not None:
                connection.send(("done", [], [(index, broadcast_failure)
                                              for index, _ in message[1]]))
                continue
            results: List[Tuple[int, object]] = []
            errors: List[Tuple[int, Tuple[str, str, str]]] = []
            for index, payload in message[1]:
                try:
                    results.append((index, host.run_task(payload)))
                except BaseException as exc:  # noqa: BLE001
                    errors.append((index, _exception_state(exc)))
                    break  # a raising task aborts the rest of its bucket
            connection.send(("done", results, errors))
            continue
        connection.send(("protocol_error", f"unknown message {kind!r}"))
    connection.close()


class ProcessWorkerPool:
    """A fixed set of pinned, persistent spawn workers."""

    def __init__(self, workers: int, host_spec: WorkerHostSpec) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        context = multiprocessing.get_context("spawn")
        self._connections = []
        self._processes = []
        for worker_index in range(workers):
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=worker_main,
                args=(child_end, host_spec, worker_index), daemon=True)
            process.start()
            child_end.close()
            self._connections.append(parent_end)
            self._processes.append(process)
        for connection in self._connections:
            reply = connection.recv()
            if reply[0] != "ready":
                self.close()
                raise WorkerTaskError(*reply[1])
        self._closed = False

    @property
    def workers(self) -> int:
        return len(self._connections)

    def broadcast(self, payload: object) -> None:
        """Send a state-advancement payload to every worker (no ack;
        a failure surfaces on the worker's next batch)."""
        for connection in self._connections:
            connection.send(("broadcast", payload))

    def collect_states(self) -> List[object]:
        """Gather every worker host's resumable state, in worker-index
        order (the order checkpoints store — and hand back — them)."""
        for connection in self._connections:
            connection.send(("collect",))
        states: List[object] = []
        for connection in self._connections:
            reply = connection.recv()
            if reply[0] == "state_error":
                raise WorkerTaskError(*reply[1])
            if reply[0] != "state":
                raise WorkerTaskError("ProtocolError", str(reply))
            states.append(reply[1])
        return states

    def run_batches(
        self,
        batches: Dict[int, Sequence[Tuple[int, object]]],
    ) -> Tuple[Dict[int, object], List[Tuple[int, WorkerTaskError]]]:
        """Run ``{worker_index: [(input_index, payload), ...]}``.

        Returns ``(results by input index, [(input index, error), ...])``.
        All batches are sent before any reply is read, so workers run
        concurrently; replies are collected in worker order (the caller
        re-establishes canonical order via the input indices).
        """
        for worker_index, batch in batches.items():
            self._connections[worker_index].send(("batch", list(batch)))
        results: Dict[int, object] = {}
        errors: List[Tuple[int, WorkerTaskError]] = []
        for worker_index in batches:
            reply = self._connections[worker_index].recv()
            if reply[0] != "done":
                raise WorkerTaskError("ProtocolError", str(reply))
            for index, result in reply[1]:
                results[index] = result
            for index, state in reply[2]:
                errors.append((index, WorkerTaskError(*state)))
        return results, errors

    def close(self) -> None:
        if getattr(self, "_closed", True):
            return
        self._closed = True
        for connection in self._connections:
            try:
                connection.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        for connection in self._connections:
            connection.close()

    def __del__(self) -> None:
        self.close()
