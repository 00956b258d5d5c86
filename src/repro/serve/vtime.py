"""Deterministic virtual time: the serve subsystem's scheduling kernel.

A long-lived service cannot be benchmarked on wall time and stay
byte-identical across runs, so the service and its client fleet run on
a :class:`VirtualTimeEventLoop`: a small cooperative scheduler whose
clock reads *virtual seconds* that only advance when every ready
callback has run, and then jump straight to the earliest timer.  It
owns no selector and no file descriptor, so it never waits on anything:
a simulated day costs exactly as much wall time as the callbacks
scheduled inside it -- a two-day service run with tens of thousands of
requests finishes in seconds of real time.

The kernel offers only what the service uses: tasks, futures,
``sleep``, a bounded FIFO :class:`Queue` and ``gather``, reached
through :class:`VirtualClock`.  Coroutines ``await`` its futures; there
is no cancellation, no I/O, no signal handling and no context
variable.  It does not import ``asyncio``.

Hop contract
------------
Every serve output depends on the order callbacks run in, so the kernel
takes exactly the hops an asyncio event loop takes for the same
program:

* a new task's first step, a resolved future's callbacks (in the order
  they were added) and a task's bare ``yield`` (``sleep(0)``) go on one
  FIFO ready queue;
* a pass runs the callbacks that were ready when it began; what they
  schedule waits for the next pass;
* the clock jumps to the earliest deadline only when the ready queue is
  empty;
* at the start of every pass, timers due before ``now`` plus the
  monotonic clock's resolution (asyncio's ``_clock_resolution``) move
  to the ready queue from a heap whose entries compare as their
  deadlines alone, as ``asyncio.TimerHandle.__lt__`` does, so timers
  that share a deadline keep asyncio's heap order;
* a fired timer resolves its sleep's future, so the sleeper resumes one
  pass later;
* ``run_until_complete`` stops at the end of the pass that runs its
  task's completion callback.

The kernel adds no nondeterminism of its own.  Combined with the
repo-wide rules (all randomness from :func:`~repro.parallel.hashing.
derive_rng` streams, no wall clocks in outputs), two same-seed service
runs execute the same callback sequence and export byte-identical
metrics.  ``tests/serve/test_vtime.py`` runs seeded programs on this
kernel and on stock asyncio with the same clock jump and compares their
traces.

The simulation day clock keys off the same virtual timeline:
``day = virtual_seconds // 86400``, which :class:`VirtualClock` exposes
so the service can keep its :class:`~repro.simulation.clock.
SimulationClock` (and everything downstream that reads it) in sync.
"""

from __future__ import annotations

import time
import types
from collections import deque
from functools import partial
from heapq import heappop, heappush
from itertools import repeat
from typing import (Any, Callable, Coroutine, Deque, Dict, Generator, List,
                    Optional)

from repro.checkpointed import Checkpointed

#: Virtual seconds per simulation day (the ``SimulationClock`` unit).
DAY_SECONDS = 86400.0

#: A timer is due once its deadline falls before ``now`` plus this,
#: exactly as on an asyncio loop.
_RESOLUTION = time.get_clock_info("monotonic").resolution

_SCHEDULING = ("scheduling state: checkpoints are taken at the quiescent "
               "day barrier (queue drained, clients returned, workers "
               "parked on the queue), and a resumed run re-creates it by "
               "starting its workers and clients")


class VirtualLoopStalled(RuntimeError):
    """The loop has neither ready callbacks nor scheduled timers.

    On a wall-clock loop this state blocks until an external event
    arrives; a virtual-time service has no external events, so the only
    honest outcome is an error naming the deadlock (typically an
    ``await`` on a future nothing will ever resolve).
    """


class QueueFull(Exception):
    """:meth:`Queue.put_nowait` found the queue at its ``maxsize``."""


class Future:
    """A one-shot result a coroutine can ``await``.

    Callbacks take no argument.  Resolving the future appends them to
    the ready queue in the order they were added; a callback added to
    a resolved future goes on the ready queue at once.
    """

    __slots__ = ("_loop", "_done", "_result", "_error", "_callbacks")

    def __init__(self, loop: "VirtualTimeEventLoop") -> None:
        self._loop = loop
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[[], None]] = []

    def set_result(self, result: Any) -> None:
        if self._done:
            raise RuntimeError("the future is already resolved")
        self._result = result
        self._resolve()

    def set_exception(self, error: BaseException) -> None:
        if self._done:
            raise RuntimeError("the future is already resolved")
        self._error = error
        self._resolve()

    def _resolve(self) -> None:
        """Mark done and schedule the callbacks (a fired timer's entry:
        its sleep resolves to ``None``)."""
        self._done = True
        callbacks = self._callbacks
        if callbacks:
            self._loop._ready.extend(callbacks)
            callbacks.clear()

    def add_done_callback(self, callback: Callable[[], None]) -> None:
        if self._done:
            self._loop._ready.append(callback)
        else:
            self._callbacks.append(callback)

    def __await__(self) -> Generator["Future", None, Any]:
        if not self._done:
            yield self
        if self._error is not None:
            raise self._error
        return self._result


class Task(Future):
    """A coroutine driven step by step; resolves to its return value.

    A step sends ``None`` into the coroutine.  If it yields a future
    (an ``await`` on a pending kernel future), the task resumes as that
    future's callback; a bare ``yield`` puts the next step straight on
    the ready queue.
    """

    __slots__ = ("_coro", "_wake")

    def __init__(self, loop: "VirtualTimeEventLoop",
                 coro: Coroutine[Any, Any, Any]) -> None:
        super().__init__(loop)
        self._coro = coro
        #: The bound step, made once: it is the task's ready-queue entry
        #: and the callback it leaves on whatever it awaits.
        self._wake = self._step
        loop._tasks[self] = None
        loop._ready.append(self._wake)

    def _step(self) -> None:
        try:
            awaited = self._coro.send(None)
        except StopIteration as stop:
            del self._loop._tasks[self]
            self.set_result(stop.value)
        except Exception as error:
            del self._loop._tasks[self]
            self.set_exception(error)
        else:
            if awaited is None:
                self._loop._ready.append(self._wake)
            else:
                # Only a pending future yields itself (``__await__``).
                awaited._callbacks.append(self._wake)


class _Timer(float):
    """A timer-heap entry: compares as its deadline alone."""

    __slots__ = ("future",)


@types.coroutine
def _next_pass() -> Generator[None, None, None]:
    """``sleep(0)``: one bare ``yield``, so the task steps again on the
    next pass."""
    yield


class Queue:
    """A bounded FIFO queue with asyncio's ``Queue`` wake-up order.

    A ``get`` on an empty queue parks a future at the back of the
    getters; each ``put_nowait`` resolves the front one, and a woken
    getter that finds the queue emptied again parks anew at the back.
    ``put`` parks on a full queue the same way.
    """

    _TRANSIENT = dict.fromkeys(("_getters", "_putters"), _SCHEDULING)

    def __init__(self, loop: "VirtualTimeEventLoop", maxsize: int) -> None:
        self._loop = loop
        self._maxsize = maxsize
        self._items: Deque[Any] = deque()
        self._getters: Deque[Future] = deque()
        self._putters: Deque[Future] = deque()

    def qsize(self) -> int:
        return len(self._items)

    def full(self) -> bool:
        return 0 < self._maxsize <= len(self._items)

    def put_nowait(self, item: Any) -> None:
        if self.full():
            raise QueueFull
        self._items.append(item)
        if self._getters:
            self._getters.popleft().set_result(None)

    async def put(self, item: Any) -> None:
        while self.full():
            putter = Future(self._loop)
            self._putters.append(putter)
            await putter
        self.put_nowait(item)

    async def get(self) -> Any:
        while not self._items:
            getter = Future(self._loop)
            self._getters.append(getter)
            await getter
        item = self._items.popleft()
        if self._putters:
            self._putters.popleft().set_result(None)
        return item


class VirtualTimeEventLoop(Checkpointed):
    """The kernel's scheduler: a ready queue, a timer heap and a
    virtual clock that starts at 0.

    When the ready queue drains, the loop advances the clock to the
    earliest timer deadline; no wall-clock sleeping ever happens.  The
    checkpoint is the virtual instant: a resumed service run restores
    it before the loop runs anything, so every timestamp downstream of
    the barrier matches the uninterrupted run.
    """

    _STATE = ("_virtual_now",)
    _TRANSIENT = dict.fromkeys(("_ready", "_timers", "_tasks"), _SCHEDULING)

    def __init__(self) -> None:
        self._virtual_now = 0.0
        self._ready: Deque[Callable[[], None]] = deque()
        self._timers: List[_Timer] = []
        #: Unfinished tasks in creation order, for :meth:`close`.
        self._tasks: Dict[Task, None] = {}
        self._stopping = False
        self._closed = False

    def _stop(self) -> None:
        self._stopping = True

    def run_until_complete(self, main: Coroutine[Any, Any, Any]) -> Any:
        """Run ``main`` as a task until it finishes; return its result
        or raise its exception.

        As on asyncio, the loop stops at the end of the pass that runs
        the task's completion callback.
        """
        if self._closed:
            raise RuntimeError("the loop is closed")
        task = Task(self, main)
        task.add_done_callback(self._stop)
        ready, timers = self._ready, self._timers
        popleft = ready.popleft
        self._stopping = False
        while not self._stopping:
            if not ready:
                if not timers:
                    raise VirtualLoopStalled(
                        "virtual-time loop has no ready callbacks and no "
                        "timers; an await can never complete")
                if timers[0] > self._virtual_now:
                    self._virtual_now = float(timers[0])
            end = self._virtual_now + _RESOLUTION
            while timers and timers[0] < end:
                ready.append(heappop(timers).future._resolve)
            for _ in repeat(None, len(ready)):
                popleft()()
        if task._error is not None:
            raise task._error
        return task._result

    def close(self) -> None:
        """Close the coroutine of every unfinished task (so none is
        reported as never awaited) and drop what is scheduled; the loop
        cannot run again."""
        tasks, self._tasks = self._tasks, {}
        for task in tasks:
            task._coro.close()
        self._ready.clear()
        self._timers.clear()
        self._closed = True


class VirtualClock:
    """The service's and fleet's handle on the kernel.

    They read and sleep on virtual time through it, and create the
    tasks, futures, queue and gathers they schedule with.
    """

    def __init__(self, loop: VirtualTimeEventLoop) -> None:
        self._loop = loop

    def now(self) -> float:
        """Virtual seconds since the service started."""
        return self._loop._virtual_now

    @property
    def day(self) -> int:
        """The simulation day this virtual instant falls in."""
        return int(self._loop._virtual_now // DAY_SECONDS)

    @property
    def hour_of_day(self) -> float:
        """Hour within the current day, in ``[0, 24)``."""
        return (self._loop._virtual_now % DAY_SECONDS) / 3600.0

    def sleep(self, seconds: float) -> Any:
        """An awaitable that resumes its task ``seconds`` virtual
        seconds later (on the next pass when ``seconds <= 0``).

        The timer starts when ``sleep`` is called, so await it where it
        is called: the hops then match ``asyncio.sleep``, whose timer
        starts when its coroutine first runs.
        """
        if seconds <= 0:
            return _next_pass()
        loop = self._loop
        future = Future(loop)
        timer = _Timer(loop._virtual_now + seconds)
        timer.future = future
        heappush(loop._timers, timer)
        return future

    def create_future(self) -> Future:
        return Future(self._loop)

    def create_task(self, coro: Coroutine[Any, Any, Any]) -> Task:
        return Task(self._loop, coro)

    def gather(self, *awaitables: Any) -> Future:
        """A future of every result, in argument order.

        Each argument is a coroutine, which becomes a task, or a
        future.  The first child to raise resolves it with that
        exception; the other children keep running.
        """
        outer = Future(self._loop)
        children: List[Future] = []
        finished = 0

        def child_done(child: Future) -> None:
            nonlocal finished
            finished += 1
            if outer._done:
                return
            if child._error is not None:
                outer.set_exception(child._error)
            elif finished == len(children):
                outer.set_result([each._result for each in children])

        for awaitable in awaitables:
            child = (awaitable if isinstance(awaitable, Future)
                     else Task(self._loop, awaitable))
            children.append(child)
            child.add_done_callback(partial(child_done, child))
        if not children:
            outer.set_result([])
        return outer

    def queue(self, maxsize: int) -> Queue:
        return Queue(self._loop, maxsize)
