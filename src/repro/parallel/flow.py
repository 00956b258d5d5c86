"""Flow scoping: name the logical task the current code runs inside.

The chaos engine keys its per-host sequence counters by *flow* so that
a fault decision depends on ``(chaos seed, flow, host, day, seq)`` —
never on which tasks happened to reach the fabric first.  A flow is
just a string (e.g. ``"milk:12:US:com.app.cashx"``) carried in a
:class:`contextvars.ContextVar`, so it is inherited by nested calls.

Code that never enters a flow scope sees the empty flow, which the
chaos engine leaves out of its hash.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Iterator

_FLOW: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_flow", default="")


def current_flow() -> str:
    """The active flow key, or ``""`` outside any flow scope."""
    return _FLOW.get()


@contextmanager
def flow_scope(key: object) -> Iterator[str]:
    """Run the body under the given flow key (restored on exit)."""
    token = _FLOW.set(str(key))
    try:
        yield _FLOW.get()
    finally:
        _FLOW.reset(token)
