"""Virtual-time event loop: sleeps cost zero wall time, determinism."""

import asyncio
import os
import random
import selectors
import sys
import time
from asyncio.base_events import (
    _MIN_CANCELLED_TIMER_HANDLES_FRACTION,
    _MIN_SCHEDULED_TIMER_HANDLES,
)

import pytest

from repro.serve import (
    DAY_SECONDS,
    VirtualClock,
    VirtualLoopStalled,
    VirtualTimeEventLoop,
    run_virtual,
)


class TestVirtualTime:
    def test_sleep_advances_virtual_time_not_wall_time(self):
        async def main():
            loop = asyncio.get_running_loop()
            start = loop.time()
            await asyncio.sleep(3600.0)
            return loop.time() - start

        started = time.monotonic()
        elapsed_virtual = run_virtual(main())
        elapsed_wall = time.monotonic() - started
        assert elapsed_virtual == pytest.approx(3600.0)
        assert elapsed_wall < 5.0

    def test_clock_day_and_hour_track_the_loop(self):
        async def main():
            loop = asyncio.get_running_loop()
            vclock = VirtualClock(loop)
            assert vclock.day == 0
            await vclock.sleep(DAY_SECONDS + 6 * 3600.0)
            return vclock.day, vclock.hour_of_day

        day, hour = run_virtual(main())
        assert day == 1
        assert hour == pytest.approx(6.0)

    def test_interleaved_sleepers_wake_in_timestamp_order(self):
        async def sleeper(order, delay, tag):
            await asyncio.sleep(delay)
            order.append(tag)

        async def main():
            order = []
            await asyncio.gather(
                sleeper(order, 3.0, "c"),
                sleeper(order, 1.0, "a"),
                sleeper(order, 2.0, "b"),
            )
            return order

        assert run_virtual(main()) == ["a", "b", "c"]

    def test_same_program_is_deterministic_across_runs(self):
        async def main():
            loop = asyncio.get_running_loop()
            trace = []

            async def worker(index):
                for step in range(3):
                    await asyncio.sleep(0.1 * (index + 1))
                    trace.append((round(loop.time(), 6), index, step))

            await asyncio.gather(*(worker(i) for i in range(4)))
            return trace

        assert run_virtual(main()) == run_virtual(main())

    def test_stall_raises_instead_of_blocking_forever(self):
        async def main():
            # A future nothing will ever resolve: on a wall-clock loop
            # this blocks in select() forever; the virtual loop detects
            # that no timer can advance time and raises.
            await asyncio.get_running_loop().create_future()

        loop = VirtualTimeEventLoop()
        try:
            with pytest.raises(VirtualLoopStalled):
                loop.run_until_complete(main())
        finally:
            loop.close()

    def test_cancelled_earliest_timer_costs_no_wall_time(self):
        async def main():
            loop = asyncio.get_running_loop()
            # Landing on the cancelled head at t=1 must not make the
            # loop wait out the 5 s gap to t=6 in real time.
            loop.call_later(1.0, lambda: None).cancel()
            await asyncio.sleep(6.0)
            return loop.time()

        started = time.monotonic()
        assert run_virtual(main()) == 6.0
        assert time.monotonic() - started < 1.0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs a per-process fd listing")
    def test_loop_opens_no_file_descriptors(self):
        before = len(os.listdir("/proc/self/fd"))
        loop = VirtualTimeEventLoop()
        try:
            assert len(os.listdir("/proc/self/fd")) == before
        finally:
            loop.close()

    def test_abandoned_async_generator_is_finalized(self, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        closed = []

        async def ticks():
            try:
                while True:
                    yield
                    await asyncio.sleep(1.0)
            finally:
                closed.append(asyncio.get_running_loop().time())

        async def main():
            agen = ticks()
            await agen.__anext__()
            await agen.__anext__()
            # Dropping the generator runs the loop's finalizer hook,
            # which schedules aclose() through call_soon_threadsafe.
            del agen
            await asyncio.sleep(2.0)

        run_virtual(main())
        assert closed == [1.0]
        assert unraisable == []


class _PollingSelector(selectors.SelectSelector):
    """A selector that never blocks, whatever timeout it is asked for."""

    def select(self, timeout=None):
        return super().select(0)


class _SelectorReferenceLoop(asyncio.SelectorEventLoop):
    """The selector-based virtual loop the serve loop replaced.

    It jumps the clock, then hands the iteration to the stock
    ``_run_once``.  Polling with timeout 0 keeps a cancelled earliest
    timer from blocking it in wall time; it changes no callback order.
    """

    def __init__(self):
        super().__init__(_PollingSelector())
        self._virtual_now = 0.0
        self.compactions = 0

    def time(self):
        return self._virtual_now

    def _run_once(self):
        if not self._ready:
            if self._scheduled:
                when = self._scheduled[0]._when
                if when > self._virtual_now:
                    self._virtual_now = when
            elif not self._stopping:
                raise VirtualLoopStalled("reference loop stalled")
        sched_count = len(self._scheduled)
        if (sched_count > _MIN_SCHEDULED_TIMER_HANDLES and
                self._timer_cancelled_count / sched_count >
                _MIN_CANCELLED_TIMER_HANDLES_FRACTION):
            self.compactions += 1
        super()._run_once()


def _seeded_program(seed, trace):
    """A seeded mix of tied sleeps, call_soon chains, a queue and
    far-future timers, most of them cancelled."""
    rng = random.Random(seed)

    async def main():
        loop = asyncio.get_running_loop()
        queue = asyncio.Queue(maxsize=3)

        def note(tag):
            trace.append((loop.time(), tag))

        def chain(tag, depth):
            note(f"{tag}.soon{depth}")
            if depth:
                loop.call_soon(chain, tag, depth - 1)

        async def sleeper(index):
            for step in range(rng.randrange(3, 8)):
                await asyncio.sleep(rng.choice((0.0, 0.5, 1.0, 1.0, 2.5)))
                note(f"sleep{index}.{step}")
                if rng.random() < 0.3:
                    loop.call_soon(chain, f"sleep{index}.{step}",
                                   rng.randrange(3))

        async def producer():
            for item in range(25):
                await queue.put(item)
                note(f"put{item}")
                await asyncio.sleep(rng.choice((0.0, 0.25, 1.0)))
            await queue.put(None)

        async def consumer():
            while (item := await queue.get()) is not None:
                note(f"get{item}")
                await asyncio.sleep(rng.choice((0.25, 0.5)))

        async def churn(index):
            # Waves of far-future timers on a few shared deadlines;
            # cancelling most of each wave keeps the heap past the
            # compaction threshold.
            for wave in range(4):
                handles = [
                    loop.call_at(1000.0 + rng.randrange(4), note,
                                 f"far{index}.{wave}.{n}")
                    for n in range(rng.randrange(40, 90))]
                for handle in handles:
                    if rng.random() < 0.85:
                        handle.cancel()
                await asyncio.sleep(rng.choice((0.5, 1.0, 3.0)))

        await asyncio.gather(
            *(sleeper(i) for i in range(10)),
            producer(), consumer(),
            *(churn(i) for i in range(3)))
        await asyncio.sleep(2000.0)
        note("done")

    return main()


class TestMatchesSelectorLoop:
    """Every callback runs at the same virtual instant and in the same
    order as on the selector loop the serve loop replaced."""

    def test_traces_match_the_selector_loop(self):
        compactions = 0
        for seed in range(8):
            expected, actual = [], []
            reference = _SelectorReferenceLoop()
            try:
                reference.run_until_complete(_seeded_program(seed, expected))
            finally:
                reference.close()
            compactions += reference.compactions
            run_virtual(_seeded_program(seed, actual))
            assert actual == expected, f"seed {seed}"
        # The programs must reach the heap-compaction branch, whose
        # heapify decides how tied far-future timers are ordered.
        assert compactions > 0
