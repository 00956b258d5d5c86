"""The wild pipeline survives the ``paper`` chaos profile.

It completes without raising, with nonzero retries and faults survived,
a coverage-loss summary that agrees with the obs counters, and a crawl
retry queue that carries failures to the next visit.  Same-seed chaos
identity, and chaos changing the run, are cells of
``test_determinism_matrix.py``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import (
    ChaosScenario,
    WildMeasurement,
    WildMeasurementConfig,
    WildScenario,
    WildScenarioConfig,
    World,
)
from repro.checkpointed import split_key

pytestmark = pytest.mark.chaos

DAYS = 10
SCALE = 0.06


@pytest.fixture(scope="module")
def chaos_run():
    world = World(seed=11, chaos=ChaosScenario.profile("paper", seed=7))
    scenario = WildScenario(world, WildScenarioConfig(
        scale=SCALE, measurement_days=DAYS))
    scenario.build()
    results = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=DAYS)).run()
    return world, results


class TestSurvival:
    def test_pipeline_completes_with_nonzero_chaos(self, chaos_run):
        world, results = chaos_run
        loss = results.coverage_loss
        assert results.dataset.offer_count() > 0
        assert loss.faults_injected + loss.server_faults > 0
        assert loss.retries > 0
        assert loss.faults_survived > 0

    def test_coverage_loss_matches_obs_counters(self, chaos_run):
        world, results = chaos_run
        metrics = world.obs.metrics
        loss = results.coverage_loss
        assert loss.faults_injected == metrics.counter_total(
            "net.fabric.faults_raised")
        assert loss.gave_up == metrics.counter_total("net.client.gave_up")
        assert loss.walls_lost == metrics.counter_total("monitor.walls_lost")
        assert loss.crawl_failures == metrics.counter_total(
            "monitor.crawl_failures")

    def test_summary_lines_render(self, chaos_run):
        _, results = chaos_run
        lines = results.coverage_loss.summary_lines()
        assert len(lines) == 4
        assert any("survived" in line for line in lines)


class TestRetryQueue:
    def test_crawler_carries_failures_to_next_visit(self, chaos_run):
        world, results = chaos_run
        metrics = world.obs.metrics
        queued = metrics.counter_total("monitor.crawl_retry_queued")
        if queued == 0:
            pytest.skip("this schedule queued no crawl retries")
        drained = metrics.counter_total("monitor.crawl_retry_drained")
        assert drained > 0


class TestFaultPlanState:
    def test_sequence_tables_hold_one_key_per_host(self, chaos_run):
        # Connect counters are keyed by (host, port), HTTP and frame
        # counters by host, so the checkpointed tables stay as small as
        # the host roster however many runs and fetches the days hold.
        world, _ = chaos_run
        state = world.fabric.chaos.state_dict()
        connect = Counter(tuple(key[-2:]) for key, _ in state["_connect_seq"])
        assert connect and max(connect.values()) == 1
        for table in ("_http_seq", "_frame_seq"):
            per_host = Counter(split_key(key)[-1] for key in state[table])
            assert per_host and max(per_host.values()) == 1
