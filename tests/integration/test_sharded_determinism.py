"""Process vs serial wild runs must be byte-identical.

The tentpole guarantee of ``repro.parallel``: running the milk/crawl
phases inline (1 shard) or on spawned worker processes (N shards) at
the same seed produces the same dataset, the same archive, and the
same observability export, byte for byte — including under an active
chaos profile, where fault decisions are flow-scoped rather than
arrival-ordered.  The process path is structurally different —
split-brain world replicas, pickled result envelopes, post-barrier
world-delta merges (DESIGN.md §8) — so these pins are end to end.
"""

import pytest

from repro import World, WildScenario, WildScenarioConfig
from repro.core import WildMeasurement, WildMeasurementConfig
from repro.monitor.storage import save_archive, save_dataset
from repro.net.chaos import ChaosScenario
from repro.obs import Observability
from repro.obs.export import to_json

SCALE = 0.08
DAYS = 16
SEED = 11


def run_wild(shards: int, chaos: ChaosScenario = None):
    world = World(seed=SEED, obs=Observability(), chaos=chaos)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=SCALE, measurement_days=DAYS))
    scenario.build()
    results = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=DAYS, shards=shards)).run()
    return world, results


def offers_key(results):
    return [(o.offer_id, o.package, o.country, o.day)
            for o in results.observations]


def release_bytes(results, tmp_path, tag):
    offers = tmp_path / f"offers-{tag}.json"
    archive = tmp_path / f"archive-{tag}.json"
    save_dataset(results.dataset, offers)
    save_archive(results.archive, archive)
    return offers.read_bytes(), archive.read_bytes()


class TestShardedDeterminism:
    def test_shards_4_matches_serial_byte_for_byte(self):
        world_1, results_1 = run_wild(1)
        world_4, results_4 = run_wild(4)
        assert to_json(world_4.obs) == to_json(world_1.obs)
        assert offers_key(results_4) == offers_key(results_1)
        assert (results_4.dataset.offer_count()
                == results_1.dataset.offer_count())
        assert results_4.archive.crawl_days == results_1.archive.crawl_days
        assert results_4.crawl_requests == results_1.crawl_requests
        assert results_4.milk_runs == results_1.milk_runs

    @pytest.mark.chaos
    def test_shards_4_matches_serial_under_chaos(self):
        world_1, results_1 = run_wild(
            1, chaos=ChaosScenario.profile("paper", seed=7))
        world_4, results_4 = run_wild(
            4, chaos=ChaosScenario.profile("paper", seed=7))
        assert to_json(world_4.obs) == to_json(world_1.obs)
        assert offers_key(results_4) == offers_key(results_1)
        loss_1, loss_4 = results_1.coverage_loss, results_4.coverage_loss
        assert loss_4 == loss_1
        assert loss_1.faults_injected > 0  # chaos actually fired

    def test_odd_shard_count_also_matches(self):
        # A different pool size pins keys to workers differently; the
        # merge is in canonical order, so output cannot move.
        world_1, results_1 = run_wild(1)
        world_3, results_3 = run_wild(3)
        assert to_json(world_3.obs) == to_json(world_1.obs)
        assert offers_key(results_3) == offers_key(results_1)


class TestBackendMatrix:
    """Inline and worker-process execution agree on what leaves the run.

    The shards=4 pins above compare the observability export and the
    offer log; these pin the serialised data release itself and a
    second chaos profile on a two-shard pool."""

    def test_process_backend_matches_serial_byte_for_byte(self, tmp_path):
        world_1, results_1 = run_wild(1)
        world_p, results_p = run_wild(2)
        assert to_json(world_p.obs) == to_json(world_1.obs)
        assert (release_bytes(results_p, tmp_path, "process")
                == release_bytes(results_1, tmp_path, "serial"))
        assert results_p.crawl_requests == results_1.crawl_requests
        assert results_p.milk_runs == results_1.milk_runs

    @pytest.mark.chaos
    def test_process_backend_matches_serial_under_chaos(self):
        world_1, results_1 = run_wild(
            1, chaos=ChaosScenario.profile("mild", seed=3))
        world_p, results_p = run_wild(
            2, chaos=ChaosScenario.profile("mild", seed=3))
        assert to_json(world_p.obs) == to_json(world_1.obs)
        assert offers_key(results_p) == offers_key(results_1)
        assert results_p.coverage_loss == results_1.coverage_loss
        assert results_1.coverage_loss.faults_injected > 0
