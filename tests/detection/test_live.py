"""Live detection hooked into both core pipelines.

Small scales keep these fast; the full-size lanes live in the detect
CI job and ``benchmarks/test_bench_detect.py``.
"""

from repro.core.honey_experiment import HoneyAppExperiment
from repro.core.wild_measurement import WildMeasurement, WildMeasurementConfig
from repro.detection.lockstep import LockstepDetector
from repro.obs import Observability
from repro.simulation.scenarios import WildScenario, WildScenarioConfig
from repro.simulation.world import World

WILD_DAYS = 8
WILD_SCALE = 0.03


def run_honey(seed=11, obs=None):
    world = World(seed=seed, obs=obs)
    hook = world.detection_hook("honey")
    HoneyAppExperiment(world, installs_per_iip=120, detection=hook).run()
    return world, hook


def run_wild(seed=7, obs=None):
    world = World(seed=seed, obs=obs)
    hook = world.detection_hook("wild")
    scenario = WildScenario(world, WildScenarioConfig(
        scale=WILD_SCALE, measurement_days=WILD_DAYS))
    scenario.build()
    WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=WILD_DAYS), detection=hook).run()
    return world, hook


class TestHoneySource:
    def test_every_delivered_install_becomes_an_event(self):
        _world, hook = run_honey()
        # 120 purchased per IIP scales the paper's delivery counts.
        assert hook.bus.events_published == 150 + 132 + 121
        assert len(hook.incentivized) == hook.bus.events_published

    def test_ground_truth_recovered(self):
        _world, hook = run_honey()
        report = hook.evaluate()
        assert report.precision == 1.0
        assert report.recall > 0.95

    def test_stream_matches_batch(self):
        _world, hook = run_honey()
        flagged = hook.finalize()
        assert flagged == LockstepDetector(hook.config).flag_devices(hook.log)

    def test_gauges_published(self):
        world, hook = run_honey()
        hook.evaluate()
        gauges = world.obs.metrics.gauges()
        assert gauges["detection.precision"] == 1.0
        assert 0.0 < gauges["detection.recall"] <= 1.0

    def test_hook_does_not_perturb_the_experiment(self):
        # The detection adapter draws no RNG: a hooked run must deliver
        # exactly what a plain run delivers, and same-seed hooked runs
        # must agree with each other.
        obs_plain, obs_hooked = Observability(), Observability()
        world_plain = World(seed=11, obs=obs_plain)
        plain = HoneyAppExperiment(world_plain, installs_per_iip=120).run()
        world_hooked, hook = run_honey(seed=11, obs=obs_hooked)
        assert (sum(r.delivered for r in plain.campaigns)
                == hook.bus.events_published)
        plain_counters = obs_plain.metrics.counters()
        hooked_counters = obs_hooked.metrics.counters()
        assert all(hooked_counters[key] == value
                   for key, value in plain_counters.items())
        _world2, hook2 = run_honey(seed=11)
        assert hook.incentivized == hook2.incentivized
        assert hook.log.events() == hook2.log.events()


class TestWildSource:
    def test_bridge_produces_labelled_stream(self):
        _world, hook = run_wild()
        assert hook.bus.events_published > 0
        assert hook.incentivized
        report = hook.evaluate()
        assert report.precision > 0.9
        assert report.recall > 0.3

    def test_stream_matches_batch(self):
        _world, hook = run_wild()
        flagged = hook.finalize()
        assert flagged == LockstepDetector(hook.config).flag_devices(hook.log)

    def test_detection_counters_recorded(self):
        world, hook = run_wild()
        flagged = hook.finalize()  # flush pending windows into the counters
        total = world.obs.metrics.counter_total
        assert total("detection.events_ingested") == hook.bus.events_published
        assert total("detection.clusters_flagged") == len(hook.online.clusters)
        assert total("detection.flagged_devices") == len(flagged)
