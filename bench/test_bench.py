"""Tests for the bench itself: ``pytest bench/`` (not part of tier-1).

Covers the self-time arithmetic of the layer trace (nested, recursive,
coroutine and generator entry points, on a fake clock), that a traced
run restores every patched attribute, that tracing leaves the output
digests unchanged at tiny scale, and that the metric names the bench
prints are exactly the names ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_trace(*names):
    clock = FakeClock()
    return layers.LayerTrace([(name, ()) for name in names], clock), clock


def self_times(trace):
    return {name: slot[0] for name, slot in trace.slots.items()}


def test_nested_calls_subtract_child_time():
    trace, clock = make_trace("a", "b")

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        wrapped_inner()
        clock.advance(3.0)

    wrapped_inner = trace.wrap(inner, "b")
    trace.wrap(outer, "a")()
    assert self_times(trace) == {"a": 4.0, "b": 2.0}
    assert trace.slots["a"][1] == trace.slots["b"][1] == 1
    assert trace.attributed_s() == 6.0


def test_recursive_calls_count_each_level_once():
    trace, clock = make_trace("a")

    def countdown(n):
        clock.advance(1.0)
        if n:
            wrapped(n - 1)

    wrapped = trace.wrap(countdown, "a")
    wrapped(3)
    assert trace.slots["a"] == [4.0, 4]
    assert trace.attributed_s() == 4.0


def test_exception_still_accounts_the_call():
    trace, clock = make_trace("a", "b")

    def failing():
        clock.advance(2.0)
        raise ValueError("boom")

    def outer():
        clock.advance(1.0)
        with pytest.raises(ValueError):
            wrapped_failing()

    wrapped_failing = trace.wrap(failing, "b")
    trace.wrap(outer, "a")()
    assert self_times(trace) == {"a": 1.0, "b": 2.0}


class _Suspend:
    """Yields once to whoever drives the coroutine."""

    def __await__(self):
        yield "suspended"


def test_coroutine_is_timed_per_resumed_step():
    trace, clock = make_trace("a", "b")

    async def inner():
        clock.advance(1.0)
        await _Suspend()
        clock.advance(2.0)
        return "done"

    async def outer():
        clock.advance(0.5)
        result = await wrapped_inner()
        clock.advance(0.25)
        return result

    wrapped_inner = trace.wrap(inner, "b")
    coroutine = trace.wrap(outer, "a")()
    assert coroutine.send(None) == "suspended"
    clock.advance(100.0)  # suspended: the event loop runs other work
    with pytest.raises(StopIteration) as stop:
        coroutine.send(None)
    assert stop.value.value == "done"
    assert self_times(trace) == {"a": 0.75, "b": 3.0}
    assert trace.slots["a"][1] == trace.slots["b"][1] == 1
    assert trace.attributed_s() == 3.75


def test_wrapped_coroutine_runs_as_an_asyncio_task():
    trace, clock = make_trace("a")

    async def work(value):
        clock.advance(1.0)
        await asyncio.sleep(0)
        clock.advance(1.0)
        return value * 2

    wrapped = trace.wrap(work, "a")

    async def main():
        task = asyncio.ensure_future(wrapped(3))
        return await task, await asyncio.gather(wrapped(4), wrapped(5))

    assert asyncio.run(main()) == (6, [8, 10])
    assert trace.slots["a"] == [6.0, 3]


def test_generator_and_contextmanager_time_only_their_steps():
    trace, clock = make_trace("gen", "cm")

    def chunks():
        for size in (1.0, 2.0):
            clock.advance(size)
            yield size

    @contextlib.contextmanager
    def span():
        clock.advance(1.0)
        try:
            yield
        finally:
            clock.advance(0.5)

    for _ in trace.wrap(chunks, "gen")():
        clock.advance(10.0)  # the consumer's time is not the generator's
    with trace.wrap(span, "cm")():
        clock.advance(10.0)
    assert self_times(trace) == {"gen": 3.0, "cm": 1.5}
    assert trace.slots["gen"][1] == trace.slots["cm"][1] == 1


def test_report_puts_the_rest_of_the_window_in_other():
    trace, clock = make_trace("a")
    with trace.window():
        clock.advance(1.0)
        trace.wrap(lambda: clock.advance(3.0), "a")()
    report = trace.report()
    assert report["a.self_s"] == 3.0
    assert report["a.us_per_call"] == 3.0e6
    assert report["a.share"] == 0.75
    assert report["other.self_s"] == 1.0
    assert report["other.share"] == 0.25


def _attribute_state():
    """Every attribute of every loaded ``repro`` module and class."""
    state = {}
    for module in layers._repro_modules():
        state[module.__name__] = dict(vars(module))
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                state[f"{module.__name__}:{value.__qualname__}"] = dict(
                    vars(value))
    return state


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so an execution takes about a second."""
    monkeypatch.setattr(workloads, "WILD_SCALE", 0.02)
    monkeypatch.setattr(workloads, "WILD_DAYS", 4)
    monkeypatch.setattr(workloads, "DURABLE_DAYS", 4)
    monkeypatch.setattr(workloads, "DURABLE_BATCH_DEVICES", 16)
    monkeypatch.setattr(workloads, "DURABLE_RESUMES", 1)
    monkeypatch.setattr(workloads, "HONEY_INSTALLS_PER_IIP", 40)
    monkeypatch.setattr(workloads, "SERVE_CLIENTS", 1)


def test_trace_restores_every_patched_attribute(tiny, tmp_path):
    workloads.import_all_repro()
    before = _attribute_state()
    trace = layers.LayerTrace()
    execution = workloads.Execution("serve-query", 7, tmp_path)
    with trace:
        patched = _attribute_state()
        execution.run(execution.setup())
    assert patched != before
    assert trace.unresolved == []
    assert _attribute_state() == before


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_digest_equals_untraced(tiny, tmp_path, workload):
    untraced = workloads.execute(workload, 7, tmp_path / "plain", False)
    traced = workloads.execute(workload, 7, tmp_path / "traced", True)
    assert traced["digest"] == untraced["digest"]
    assert all(untraced["checks"].values())
    assert all(traced["checks"].values())
    assert traced["layers"]["other.share"] < 0.5


def _benchmark():
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    names = [workload["name"] for workload in _benchmark()["workloads"]]
    assert names == list(run.WORKLOADS)


def test_printed_metric_names_match_benchmark_json(tiny, tmp_path):
    spec = _benchmark()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert run.END_TO_END == end_to_end
    assert run.per_layer_units() == per_layer
    for trace, expected in ((False, end_to_end), (True, per_layer)):
        result = workloads.execute("honey", 7, tmp_path / str(trace), trace)
        assert set(run.run_metrics([result], trace)) == set(expected)
