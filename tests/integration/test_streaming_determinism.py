"""Streamed (``batch_devices``) vs materialised runs: byte-identical.

The streaming pipeline's contract: turning on chunked analysis folds
and disk-spilled observation/archive logs changes *where* the corpus
lives, never *what* the run produces.  At the same seed, a streamed
run's observability export, offer log, dataset, and serialised data
release equal the materialised run's byte for byte — clean and under
chaos.
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
BATCH = 7  # tiny chunks: every fold crosses many chunk boundaries


def run_wild(batch, spill_dir=None, chaos=None):
    world = World(seed=SEED, obs=Observability(), chaos=chaos)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=SCALE, measurement_days=DAYS))
    scenario.build()
    results = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=DAYS, batch_devices=batch,
        spill_dir=str(spill_dir) if spill_dir else None)).run()
    return world, results


def offers_key(results):
    return [(o.offer_id, o.package, o.country, o.day)
            for o in results.observations]


def export_bytes(results, tmp_path, tag):
    offers = tmp_path / f"offers-{tag}.json"
    archive = tmp_path / f"archive-{tag}.json"
    save_dataset(results.dataset, offers)
    save_archive(results.archive, archive)
    return offers.read_bytes(), archive.read_bytes()


class TestStreamedEqualsMaterialised:
    def test_clean_run_byte_identical(self, tmp_path):
        world_m, results_m = run_wild(batch=0)
        world_s, results_s = run_wild(batch=BATCH,
                                      spill_dir=tmp_path / "spill")
        assert to_json(world_s.obs) == to_json(world_m.obs)
        assert offers_key(results_s) == offers_key(results_m)
        assert (export_bytes(results_s, tmp_path, "streamed")
                == export_bytes(results_m, tmp_path, "materialised"))

    @pytest.mark.chaos
    def test_chaos_run_byte_identical(self, tmp_path):
        chaos = ChaosScenario.profile("paper", seed=7)
        world_m, results_m = run_wild(batch=0, chaos=chaos)
        chaos = ChaosScenario.profile("paper", seed=7)
        world_s, results_s = run_wild(batch=BATCH, chaos=chaos,
                                      spill_dir=tmp_path / "spill")
        assert to_json(world_s.obs) == to_json(world_m.obs)
        assert offers_key(results_s) == offers_key(results_m)
        assert results_s.coverage_loss == results_m.coverage_loss
        assert results_m.coverage_loss.faults_injected > 0
        assert (export_bytes(results_s, tmp_path, "streamed")
                == export_bytes(results_m, tmp_path, "materialised"))

    def test_batch_size_is_irrelevant(self, tmp_path):
        """Any chunk size folds to the same answer: 1-row chunks are
        the degenerate worst case for group-order stability."""
        world_a, results_a = run_wild(batch=1,
                                      spill_dir=tmp_path / "spill-1")
        world_b, results_b = run_wild(batch=1000,
                                      spill_dir=tmp_path / "spill-1000")
        assert to_json(world_a.obs) == to_json(world_b.obs)
        assert (export_bytes(results_a, tmp_path, "one")
                == export_bytes(results_b, tmp_path, "thousand"))
