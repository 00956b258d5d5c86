"""The shard scheduler's determinism contract.

Sharded pipelines only stay byte-identical to serial ones if (a) task
RNG streams are pure functions of their keys, (b) results come back in
input order, and (c) tasks that share a key run in input order.  These
tests pin each leg inline; tests/parallel/test_procpool.py pins the
worker-process side.
"""

import pytest

from repro.parallel import (
    ShardScheduler,
    current_flow,
    derive_rng,
    derive_seed,
    flow_scope,
    stable_hash,
)
from repro.parallel.procpool import WorkerHostSpec

HOST = WorkerHostSpec(factory="tests.parallel.hosts:build_host")


class TestStableHash:
    def test_is_deterministic(self):
        assert stable_hash("a", 1, None) == stable_hash("a", 1, None)

    def test_differs_by_part(self):
        assert stable_hash("a", 1) != stable_hash("a", 2)
        assert stable_hash("a", 1) != stable_hash("b", 1)

    def test_known_value_pinned(self):
        # Guards against anyone "improving" the hash: a new scheme would
        # silently reshuffle every derived RNG stream and fault schedule.
        import hashlib
        digest = hashlib.sha256(b"x:1").digest()
        assert stable_hash("x", 1) == int.from_bytes(digest[:8], "big")

    def test_derive_rng_streams_are_stable_and_independent(self):
        a1 = derive_rng(7, "crawl", "com.app", 3)
        a2 = derive_rng(7, "crawl", "com.app", 3)
        b = derive_rng(7, "crawl", "com.other", 3)
        draws_a1 = [a1.random() for _ in range(5)]
        assert draws_a1 == [a2.random() for _ in range(5)]
        assert draws_a1 != [b.random() for _ in range(5)]

    def test_derive_seed_matches_rng(self):
        seed = derive_seed("k")
        import random
        assert random.Random(seed).random() == derive_rng("k").random()


class TestShardAssignment:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardScheduler(0)


class TestRun:
    def test_results_in_input_order(self):
        specs = [(f"k{i}", i) for i in range(50)]
        assert (ShardScheduler(1).run_specs(specs, lambda i: i * i)
                == [i * i for i in range(50)])

    def test_serial_fallback_matches_sharded(self):
        # Inline and worker-process runs of the same specs agree.
        specs = [(f"k{i}", ("square", i)) for i in range(20)]
        square = lambda payload: payload[1] * payload[1]  # noqa: E731
        inline = ShardScheduler(1).run_specs(specs, square)
        sharded = ShardScheduler(5, worker_host=HOST, workers=2)
        try:
            assert sharded.run_specs(specs, square) == inline
        finally:
            sharded.close()

    def test_same_key_serialises_in_input_order(self):
        seen = []
        specs = [("US", i) for i in range(30)]
        ShardScheduler(1).run_specs(specs, seen.append)
        assert seen == list(range(30))

    def test_two_failing_buckets_raise_lowest_input_index(self):
        # Inline, the lowest-index failure raises at once and the tasks
        # after it never run; tests/parallel/test_procpool.py pins the
        # worker-process side, where both fail and chain.
        ran = []

        def run(payload):
            ran.append(payload)
            if payload in ("first", "second"):
                raise RuntimeError(f"{payload} by input index")
            return payload

        specs = [("a", "ok"), ("a", "first"), ("b", "second"), ("b", "tail")]
        with pytest.raises(RuntimeError, match="first by input index"):
            ShardScheduler(1).run_specs(specs, run)
        assert ran == ["ok", "first"]

    def test_empty_and_single(self):
        assert ShardScheduler(1).run_specs([], abs) == []
        assert ShardScheduler(1).run_specs([("k", -9)], abs) == [9]


class TestFlowScope:
    def test_default_is_empty(self):
        assert current_flow() == ""

    def test_scope_sets_and_restores(self):
        with flow_scope("milk:0:US:com.app"):
            assert current_flow() == "milk:0:US:com.app"
            with flow_scope("inner"):
                assert current_flow() == "inner"
            assert current_flow() == "milk:0:US:com.app"
        assert current_flow() == ""
