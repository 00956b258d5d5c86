"""The virtual-time kernel: sleeps cost zero wall time, determinism,
and asyncio's exact callback order."""

import asyncio
import gc
import os
import random
import selectors
import sys
import time
import warnings

import pytest

from repro.serve import (
    DAY_SECONDS,
    VirtualClock,
    VirtualLoopStalled,
    VirtualTimeEventLoop,
)


def run(program):
    """Run ``program(clock)`` to completion on a fresh kernel."""
    loop = VirtualTimeEventLoop()
    try:
        return loop.run_until_complete(program(VirtualClock(loop)))
    finally:
        loop.close()


class TestVirtualTime:
    def test_sleep_advances_virtual_time_not_wall_time(self):
        async def main(clock):
            start = clock.now()
            await clock.sleep(3600.0)
            return clock.now() - start

        started = time.monotonic()
        elapsed_virtual = run(main)
        elapsed_wall = time.monotonic() - started
        assert elapsed_virtual == pytest.approx(3600.0)
        assert elapsed_wall < 5.0

    def test_clock_day_and_hour_track_the_loop(self):
        async def main(clock):
            assert clock.day == 0
            await clock.sleep(DAY_SECONDS + 6 * 3600.0)
            return clock.day, clock.hour_of_day

        day, hour = run(main)
        assert day == 1
        assert hour == pytest.approx(6.0)

    def test_interleaved_sleepers_wake_in_timestamp_order(self):
        async def sleeper(clock, order, delay, tag):
            await clock.sleep(delay)
            order.append(tag)

        async def main(clock):
            order = []
            await clock.gather(
                sleeper(clock, order, 3.0, "c"),
                sleeper(clock, order, 1.0, "a"),
                sleeper(clock, order, 2.0, "b"),
            )
            return order

        assert run(main) == ["a", "b", "c"]

    def test_same_program_is_deterministic_across_runs(self):
        async def main(clock):
            trace = []

            async def worker(index):
                for step in range(3):
                    await clock.sleep(0.1 * (index + 1))
                    trace.append((round(clock.now(), 6), index, step))

            await clock.gather(*(worker(i) for i in range(4)))
            return trace

        assert run(main) == run(main)

    def test_stall_raises_instead_of_blocking_forever(self):
        async def main(clock):
            # A future nothing will ever resolve: a wall-clock loop
            # would wait forever; the kernel sees that no timer can
            # advance time and raises.
            await clock.create_future()

        with pytest.raises(VirtualLoopStalled):
            run(main)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs a per-process fd listing")
    def test_loop_opens_no_file_descriptors(self):
        before = len(os.listdir("/proc/self/fd"))
        loop = VirtualTimeEventLoop()
        try:
            assert len(os.listdir("/proc/self/fd")) == before
        finally:
            loop.close()

    def test_close_closes_every_unfinished_coroutine(self, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        closed = []

        async def parked(clock):
            try:
                await clock.create_future()
            finally:
                closed.append(clock.now())

        async def nap(clock, seconds):
            await clock.sleep(seconds)

        async def crash(clock):
            for _ in range(50):
                await clock.gather(nap(clock, 0.5), nap(clock, 0.0))
            clock.create_task(parked(clock))
            await clock.sleep(1.0)
            raise RuntimeError("crash")

        loop = VirtualTimeEventLoop()
        clock = VirtualClock(loop)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="crash"):
                loop.run_until_complete(crash(clock))
            # Finished tasks are not kept: only the parked one is left.
            assert len(loop._tasks) == 1
            # A task the loop never stepped: without close() its
            # coroutine would be reported as never awaited.
            clock.create_task(parked(clock))
            loop.close()
            gc.collect()
        assert closed == [26.0]
        assert unraisable == []
        program = parked(clock)
        with pytest.raises(RuntimeError, match="closed"):
            loop.run_until_complete(program)
        program.close()


class _PollingSelector(selectors.SelectSelector):
    """A selector that never blocks, whatever timeout it is asked for."""

    def select(self, timeout=None):
        return super().select(0)


class _AsyncioReferenceLoop(asyncio.SelectorEventLoop):
    """Stock asyncio with the virtual-clock jump: the loop the serve
    kernel replaced.

    It jumps the clock when nothing is ready, then hands the iteration
    to the stock ``_run_once``.  Polling with timeout 0 changes no
    callback order.
    """

    def __init__(self):
        super().__init__(_PollingSelector())
        self._virtual_now = 0.0

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
        super()._run_once()


class _AsyncioClock:
    """The adapter: :class:`VirtualClock`'s surface on stock asyncio."""

    def __init__(self, loop):
        self._loop = loop

    def now(self):
        return self._loop.time()

    def sleep(self, seconds):
        return asyncio.sleep(seconds)

    def create_future(self):
        return self._loop.create_future()

    def create_task(self, coro):
        return self._loop.create_task(coro)

    def gather(self, *awaitables):
        return asyncio.gather(*awaitables)

    def queue(self, maxsize):
        return asyncio.Queue(maxsize)


def run_in_turn(loop, clock, programs):
    """Run each program to completion on one loop, in turn."""
    try:
        for program in programs:
            loop.run_until_complete(program(clock))
    finally:
        loop.close()


def run_on_asyncio(programs):
    loop = _AsyncioReferenceLoop()
    run_in_turn(loop, _AsyncioClock(loop), programs)


def run_on_kernel(programs):
    loop = VirtualTimeEventLoop()
    run_in_turn(loop, VirtualClock(loop), programs)


class _Boom(Exception):
    pass


def _seeded_programs(seed, trace):
    """Two seeded programs over the clock surface, run in turn on one
    loop: tied deadlines, deadlines within the clock resolution,
    ``sleep(0)``, a bounded queue with several parked getters (and
    putters), futures resolved by other tasks, a ``gather`` whose child
    raises, a ``gather`` whose children finish on one pass, and tasks
    that outlive the first program."""
    rng = random.Random(seed)
    resolution = time.get_clock_info("monotonic").resolution
    delays = (0.0, resolution / 4, resolution / 2, 0.5, 1.0, 1.0, 2.5)
    stragglers = []

    def note(clock, tag):
        trace.append((clock.now(), tag))

    async def spinner(clock, index):
        await clock.sleep(1.0)
        for turn in range(rng.randrange(1, 4)):
            note(clock, f"spin{index}.{turn}")
            await clock.sleep(0.0)

    async def finisher(clock, index):
        await clock.sleep(1.0)
        note(clock, f"finish{index}")
        return index

    async def main(clock):
        queue = clock.queue(2)
        pending = []

        def note(tag):
            trace.append((clock.now(), tag))

        async def sleeper(index):
            for step in range(rng.randrange(3, 8)):
                await clock.sleep(rng.choice(delays))
                note(f"sleep{index}.{step}")

        async def producer(index):
            for item in range(rng.randrange(8, 16)):
                await queue.put(f"{index}.{item}")
                note(f"put{index}.{item}")
                await clock.sleep(rng.choice((0.0, 0.25, 1.0)))

        async def consumer(index):
            while True:
                item = await queue.get()
                if item is None:
                    note(f"stop{index}")
                    return index
                note(f"get{index}:{item}")
                await clock.sleep(rng.choice((0.0, 0.5, 1.0, 3.0)))

        async def waiter(index):
            await clock.sleep(rng.choice(delays))
            future = clock.create_future()
            pending.append(future)
            note(f"woke{index}:{await future}")

        async def resolver(count):
            for value in range(count):
                await clock.sleep(rng.choice(delays))
                while not pending:
                    await clock.sleep(0.25)
                pending.pop(rng.randrange(len(pending))).set_result(value)
                note(f"resolved{value}")

        async def nested(index):
            # gather over coroutines: the kernel makes the tasks.
            await clock.gather(sleeper(100 + index), sleeper(200 + index))
            note(f"nested{index}")

        async def failing(index):
            await clock.sleep(rng.choice((0.5, 1.0, 2.5)))
            note(f"raise{index}")
            raise _Boom(index)

        consumers = [clock.create_task(consumer(i)) for i in range(4)]
        waiters = rng.randrange(3, 7)
        children = (
            [clock.create_task(sleeper(i)) for i in range(8)]
            + [clock.create_task(producer(i)) for i in range(2)]
            + [clock.create_task(waiter(i)) for i in range(waiters)]
            + [clock.create_task(resolver(waiters)),
               clock.create_task(nested(0)), clock.create_task(failing(0))])
        rng.shuffle(children)
        try:
            await clock.gather(*children)
        except _Boom as boom:
            note(f"gather raised {boom.args[0]}")
        for child in children:
            try:
                await child
            except _Boom:
                pass
        note("drained")
        for _ in consumers:
            await queue.put(None)
        stopped = await clock.gather(*consumers)
        note(f"done {stopped}")
        # Finishers and spinners wake on one tied deadline.
        spinners = [clock.create_task(spinner(clock, i)) for i in range(3)]
        finishers = [finisher(clock, i) for i in range(3)]
        rng.shuffle(finishers)
        note(f"gathered {await clock.gather(*finishers)}")
        for task in spinners:
            await task
        # These are still running when this program returns.
        stragglers.extend(clock.create_task(spinner(clock, 10 + i))
                          for i in range(3))
        await clock.sleep(1.0)
        note("first program returns")

    async def second(clock):
        note(clock, "second program starts")
        for task in stragglers:
            await task
        note(clock, "second program returns")

    return main, second


class TestMatchesAsyncio:
    """Every callback runs at the same virtual instant and in the same
    order as on stock asyncio with the same clock jump."""

    def test_traces_match_asyncio(self):
        ties = 0
        for seed in range(8):
            expected, actual = [], []
            run_on_asyncio(_seeded_programs(seed, expected))
            run_on_kernel(_seeded_programs(seed, actual))
            assert actual == expected, f"seed {seed}"
            tags = [tag for _, tag in actual]
            assert "gather raised 0" in tags
            assert tags[-1] == "second program returns"
            instants = [instant for instant, _ in actual]
            ties += len(instants) - len(set(instants))
        # Most events share their instant with another.
        assert ties > 500
