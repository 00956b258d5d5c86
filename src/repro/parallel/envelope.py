"""Result envelopes: merging sharded task output back into a context.

Inline (``shards == 1``) tasks hand results back as live
``(result, Observability)`` tuples — the task-local context is merged
directly.  Worker processes ship an *envelope* dict instead:

``{"result": ..., "task_obs": <state>, "world": <delta>}``

where ``task_obs`` is the task-local context's ``state_dict`` and
``world`` is the replica world's recording delta captured with
``Observability.begin_delta``/``collect_delta`` (fabric/server counters
plus op ticks the parent world never saw).

Merge discipline — why two passes: inline, every world-side tick
lands *during* task execution, i.e. before the caller merges any task
context at the post-barrier merge point.  So a parent of worker
processes must apply **all** world deltas first, then
merge **all** task contexts, both in the caller's canonical order.
Counter merges and op advances are commutative, so this reproduces the
serial op totals (and therefore the span/export bytes) exactly.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs import Observability


def is_envelope(item: object) -> bool:
    """True for a worker-process result envelope."""
    return isinstance(item, dict) and "task_obs" in item and "world" in item


def apply_world_deltas(obs: Observability, items: Iterable[object]) -> None:
    """First pass: fold every envelope's world-side recording delta
    into ``obs`` (no-op for in-process tuple results)."""
    for item in items:
        if is_envelope(item):
            obs.apply_delta(item["world"])  # type: ignore[index]
    # Inline tasks recorded world-side state directly; nothing shipped,
    # nothing to apply.


def unwrap_result(obs: Observability, item: object):
    """Second pass, per item in canonical order: merge the task-local
    context into ``obs`` and return the task's result."""
    if is_envelope(item):
        task_obs = Observability()
        task_obs.load_state(item["task_obs"])  # type: ignore[index]
        obs.merge(task_obs)
        return item["result"]  # type: ignore[index]
    result, task_obs = item  # type: ignore[misc]
    obs.merge(task_obs)
    return result
