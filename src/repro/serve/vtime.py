"""Deterministic virtual-time asyncio: the serve subsystem's clock.

A long-lived service cannot be benchmarked on wall time and stay
byte-identical across runs, so the service and its client fleet run on
a :class:`VirtualTimeEventLoop`: ``loop.time()`` reports *virtual
seconds* that only advance when every ready callback has run and the
loop jumps straight to the earliest scheduled timer.  The loop has no
selector and no file descriptors, so it never waits on anything: a
simulated day costs exactly as much wall time as the callbacks
scheduled inside it — a two-day service run with thousands of
requests finishes in seconds of real time.

Determinism contract
--------------------
The loop introduces no nondeterminism of its own: the ready queue is
FIFO, timers are a heap ordered by deadline alone, and the virtual
clock is a pure function of the timer schedule.  Timers that share a
deadline fire in heap order, not insertion order; that order is fixed
by the sequence of pushes, pops and compactions, so it too is a pure
function of the program.  Combined with the repo-wide rules (all
randomness from :func:`~repro.parallel.hashing.derive_rng` streams, no
wall clocks in outputs), two same-seed service runs execute the exact
same callback sequence and export byte-identical metrics.
``tests/serve/test_vtime.py`` holds the loop to this, and to the
callback order of the selector loop it replaced.

The simulation day clock keys off the same virtual timeline:
``day = virtual_seconds // 86400``, which :class:`VirtualClock` exposes
so the service can keep its :class:`~repro.simulation.clock.
SimulationClock` (and everything downstream that reads it) in sync.
"""

from __future__ import annotations

import asyncio
import heapq
from asyncio.base_events import (
    _MIN_CANCELLED_TIMER_HANDLES_FRACTION,
    _MIN_SCHEDULED_TIMER_HANDLES,
)
from typing import Any, Coroutine, TypeVar

from repro.checkpointed import Checkpointed

T = TypeVar("T")

#: Virtual seconds per simulation day (the ``SimulationClock`` unit).
DAY_SECONDS = 86400.0


class VirtualLoopStalled(RuntimeError):
    """The loop has neither ready callbacks nor scheduled timers.

    On a wall-clock loop this state blocks in ``select`` until an
    external event arrives; a virtual-time service has no external
    events, so the only honest outcome is an error naming the deadlock
    (typically an ``await`` on a future nothing will ever resolve).
    """


class VirtualTimeEventLoop(Checkpointed, asyncio.BaseEventLoop):
    """An event loop whose clock is simulated and that never polls.

    ``time()`` returns virtual seconds.  When the ready queue drains,
    the loop advances the virtual clock to the earliest timer deadline
    and fires every timer due by then — no wall-clock sleeping ever
    happens.  ``_run_once`` is the stock iteration with the I/O poll
    taken out: the loop owns no selector, so it offers timers, tasks
    and futures but none of the socket, pipe or signal APIs.

    Virtual time starts at 0.  The checkpoint is the virtual instant: a
    resumed service run restores it before the loop runs anything, so
    every timestamp downstream of the barrier matches the uninterrupted
    run.
    """

    _STATE = ("_virtual_now",)

    def __init__(self) -> None:
        super().__init__()
        self._virtual_now = 0.0

    def time(self) -> float:
        return self._virtual_now

    def _write_to_self(self) -> None:
        # call_soon_threadsafe (which run_forever's async-generator
        # finalizer uses) wakes a loop blocked on its self-pipe; this
        # loop never blocks, so there is nothing to wake.
        pass

    def _run_once(self) -> None:
        ready = self._ready
        scheduled = self._scheduled
        if not ready:
            if scheduled:
                # Jump to the earliest timer (cancelled handles are
                # fine to land on: they are discarded below and the
                # next pass advances again).
                when = scheduled[0]._when
                if when > self._virtual_now:
                    self._virtual_now = when
            elif not self._stopping:
                raise VirtualLoopStalled(
                    "virtual-time loop has no ready callbacks and no "
                    "timers; an await can never complete")

        # From here on this is BaseEventLoop._run_once minus the poll;
        # the compaction must match it heap for heap, because the
        # heap's layout decides the order of timers that share a
        # deadline.
        sched_count = len(scheduled)
        if (sched_count > _MIN_SCHEDULED_TIMER_HANDLES and
                self._timer_cancelled_count / sched_count >
                _MIN_CANCELLED_TIMER_HANDLES_FRACTION):
            live = []
            for handle in scheduled:
                if handle._cancelled:
                    handle._scheduled = False
                else:
                    live.append(handle)
            heapq.heapify(live)
            self._scheduled = scheduled = live
            self._timer_cancelled_count = 0
        else:
            while scheduled and scheduled[0]._cancelled:
                self._timer_cancelled_count -= 1
                heapq.heappop(scheduled)._scheduled = False

        end_time = self._virtual_now + self._clock_resolution
        while scheduled and scheduled[0]._when < end_time:
            handle = heapq.heappop(scheduled)
            handle._scheduled = False
            ready.append(handle)

        # Run only what is ready now; callbacks they schedule wait for
        # the next pass.  There is no debug-mode slow-callback timing:
        # virtual time does not move inside a callback.
        for _ in range(len(ready)):
            handle = ready.popleft()
            if not handle._cancelled:
                handle._run()


class VirtualClock:
    """Read-side facade over a virtual loop's timeline.

    The service and fleet take one of these instead of the loop so the
    only thing they can do with time is read it or sleep on it.
    """

    def __init__(self, loop: VirtualTimeEventLoop) -> None:
        self._loop = loop

    def now(self) -> float:
        """Virtual seconds since the service started."""
        return self._loop.time()

    @property
    def day(self) -> int:
        """The simulation day this virtual instant falls in."""
        return int(self._loop.time() // DAY_SECONDS)

    @property
    def hour_of_day(self) -> float:
        """Hour within the current day, in ``[0, 24)``."""
        return (self._loop.time() % DAY_SECONDS) / 3600.0

    async def sleep(self, seconds: float) -> None:
        """Advance virtual time without consuming wall time."""
        await asyncio.sleep(seconds)


def run_virtual(main: Coroutine[Any, Any, T]) -> T:
    """Run ``main`` to completion on a fresh virtual-time loop."""
    loop = VirtualTimeEventLoop()
    try:
        return loop.run_until_complete(main)
    finally:
        loop.close()
