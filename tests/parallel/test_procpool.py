"""The process worker pool behind ``ShardScheduler(shards > 1)``.

End-to-end pipeline equivalence is pinned by the integration
serial-vs-process tests; these tests pin the plumbing: payloads route
to pinned workers and come back in input order, broadcasts advance
worker state, and failures (task, broadcast, bootstrap) cross the
process boundary as clean :class:`WorkerTaskError` values at
deterministic input indexes.
"""

import pytest

from repro.parallel import ShardScheduler
from repro.parallel.procpool import WorkerHostSpec, WorkerTaskError

HOST = WorkerHostSpec(factory="tests.parallel.hosts:build_host")
BIASED = WorkerHostSpec(factory="tests.parallel.hosts:build_host",
                        config={"bias": 7})
BROKEN = WorkerHostSpec(factory="tests.parallel.hosts:broken_factory")


def scheduler(shards=4, spec=HOST, workers=None):
    return ShardScheduler(shards, worker_host=spec, workers=workers)


def local_square(payload):
    return payload[1] * payload[1]


class TestProcessBackend:
    def test_results_in_input_order(self):
        sched = scheduler()
        try:
            specs = [(f"k{i}", ("square", i)) for i in range(12)]
            assert (sched.run_specs(specs, local_square)
                    == [i * i for i in range(12)])
        finally:
            sched.close()

    def test_worker_count_never_exceeds_cores_by_default(self):
        import os
        sched = ShardScheduler(64, worker_host=HOST)
        assert sched.workers == min(64, os.cpu_count() or 1)

    def test_explicit_worker_count_is_honoured(self):
        sched = scheduler(shards=8, workers=2)
        try:
            specs = [(f"k{i}", ("square", i)) for i in range(8)]
            assert sched.workers == 2
            assert (sched.run_specs(specs, local_square)
                    == [i * i for i in range(8)])
        finally:
            sched.close()

    def test_host_config_reaches_the_worker(self):
        sched = scheduler(spec=BIASED, workers=1)
        try:
            assert sched.run_specs([("k", ("square", 3))],
                                   local_square) == [16]
        finally:
            sched.close()

    def test_broadcast_advances_worker_state(self):
        sched = scheduler(workers=1)
        try:
            sched.broadcast(("day", 100))
            assert sched.run_specs([("k", ("square", 2))],
                                   local_square) == [104]
        finally:
            sched.close()

    def test_worker_raise_propagates_cleanly(self):
        # The exception crosses the boundary as a WorkerTaskError that
        # names the original type and message; the healthy tasks in
        # other batches still complete.
        sched = scheduler(workers=2)
        try:
            specs = [("a", ("square", 1)), ("b", ("boom", 5)),
                     ("a", ("square", 2))]
            with pytest.raises(WorkerTaskError,
                               match="KeyError.*task exploded on 5"):
                sched.run_specs(specs, local_square)
        finally:
            sched.close()

    def test_two_failing_workers_raise_lowest_index_and_chain(self):
        sched = scheduler(workers=2)
        try:
            # Keys pin round-robin in first-seen order, so "a" and "b"
            # land on different workers; both batches fail.
            specs = [("a", ("boom", 1)), ("b", ("boom", 2))]
            with pytest.raises(WorkerTaskError,
                               match="task exploded on 1") as excinfo:
                sched.run_specs(specs, local_square)
            chained = excinfo.value.__context__
            assert isinstance(chained, WorkerTaskError)
            assert "task exploded on 2" in str(chained)
        finally:
            sched.close()

    def test_broadcast_failure_surfaces_on_next_batch(self):
        sched = scheduler(workers=1)
        try:
            sched.broadcast(("explode",))
            with pytest.raises(WorkerTaskError,
                               match="broadcast exploded"):
                sched.run_specs([("k", ("square", 1))], local_square)
        finally:
            sched.close()

    def test_bootstrap_failure_is_reported(self):
        with pytest.raises(WorkerTaskError,
                           match="factory cannot build a host"):
            sched = scheduler(spec=BROKEN, workers=1)
            try:
                sched.run_specs([("k", ("square", 1))], local_square)
            finally:
                sched.close()

    def test_process_backend_requires_worker_host(self):
        with pytest.raises(ValueError, match="worker_host"):
            ShardScheduler(4)
