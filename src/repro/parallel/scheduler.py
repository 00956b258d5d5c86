"""The shard scheduler: the wild pipeline's task fan-out loop.

``ShardScheduler.run_specs`` takes ``(shard_key, payload)`` pairs and
runs each payload through the caller's runner, inline and in input
order; the key names the task's cell (a milk country, a crawled
package).  The milk and crawl fan-outs both go through it, so the
per-task runners (``WildMeasurement.run_milk_payload``,
``PlayStoreCrawler.run_fetch_payload``) are the one execution path.

The runners execute in input order on the pipeline's own clients and
state; a milk run records into its own ``Observability``, which the
caller merges back in canonical ``(package, country)`` order after
``run_specs`` returns.

Error contract: the first raising task propagates, and the tasks after
it never run.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")


class ShardScheduler:
    """Runs keyed task specs inline, in input order."""

    @staticmethod
    def run_specs(specs: Sequence[Tuple[object, object]],
                  local_runner: Callable[[object], T]) -> List[T]:
        """Execute ``(shard_key, payload)`` specs; results in input order."""
        return [local_runner(payload) for _, payload in specs]
