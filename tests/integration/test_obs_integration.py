"""Acceptance proofs for the observability subsystem.

Coverage: after one honey run and one wild run, counters exist from
every instrumented layer — fabric, HTTP client, HTTP servers, the
monitor — and both pipelines recorded stage spans.  That same-seed runs
export byte-identical metrics + trace JSON is a cell of
``test_determinism_matrix.py``.
"""

import pytest

from repro import (
    HoneyAppExperiment,
    WildMeasurement,
    WildMeasurementConfig,
    WildScenario,
    WildScenarioConfig,
    World,
)

DAYS = 8
SCALE = 0.06


@pytest.fixture(scope="module")
def wild_world():
    world = World(seed=11)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=SCALE, measurement_days=DAYS))
    scenario.build()
    WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=DAYS)).run()
    return world


@pytest.fixture(scope="module")
def honey_world():
    world = World(seed=11)
    HoneyAppExperiment(world).run()
    return world


class TestCoverage:
    def test_wild_run_populates_at_least_four_layers(self, wild_world):
        counters = wild_world.obs.metrics.counters()

        def layer_total(prefix):
            return sum(value for key, value in counters.items()
                       if key.startswith(prefix))

        for prefix in ("net.fabric.", "net.client.", "net.server.",
                       "net.proxy.", "monitor."):
            assert layer_total(prefix) > 0, f"no counters from {prefix}"

    def test_wild_run_records_stage_spans(self, wild_world):
        tracer = wild_world.obs.tracer
        (root,) = tracer.spans("wild.run")
        for stage in ("wild.scenario", "wild.milk", "wild.crawl",
                      "wild.finalize"):
            assert tracer.spans(stage), f"missing {stage} spans"
        assert all(span.parent_id == root.span_id
                   for span in tracer.spans("wild.milk"))
        assert tracer.spans("milk.run"), "milker should record run spans"

    def test_dedup_hits_counted(self, wild_world):
        metrics = wild_world.obs.metrics
        assert metrics.counter_total("monitor.dedup_hits") > 0
        assert metrics.counter_total("monitor.offers_new") > 0

    def test_honey_run_spans_one_child_per_iip(self, honey_world):
        tracer = honey_world.obs.tracer
        (root,) = tracer.spans("honey.run")
        campaigns = tracer.spans("honey.campaign")
        assert {span.label("iip") for span in campaigns} == {
            "Fyber", "ayeT-Studios", "RankApp"}
        assert all(span.parent_id == root.span_id for span in campaigns)

    def test_honey_run_counts_telemetry_and_requests(self, honey_world):
        metrics = honey_world.obs.metrics
        assert metrics.counter_total("honeyapp.telemetry_events") > 0
        assert metrics.counter_total("net.client.requests") > 0
        assert metrics.counter_total("net.server.requests") > 0
        assert metrics.counter_total("core.honey.installs_delivered") > 0

    def test_mean_ingests_exceed_unique_offers(self, wild_world):
        """Dedup proof at the metric level: new + dup == total ingested."""
        metrics = wild_world.obs.metrics
        new = metrics.counter_total("monitor.offers_new")
        dup = metrics.counter_total("monitor.dedup_hits")
        milked = metrics.counter_total("monitor.offers_milked")
        assert new + dup == milked
