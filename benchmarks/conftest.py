"""Shared benchmark fixtures.

The expensive part -- building the world and running the three-month
measurement -- happens once per session; each bench then times its
analysis stage and asserts the paper's shape (who wins, rough factors).

Scale defaults to 0.35 of the paper's population for wall-clock sanity;
set REPRO_BENCH_SCALE=1.0 for the full 922-app reproduction.
"""

import os

import pytest

from repro import (
    HoneyAppExperiment,
    WildMeasurement,
    WildMeasurementConfig,
    WildScenario,
    WildScenarioConfig,
    World,
)

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))
BENCH_DAYS = 110
BENCH_SEED = 2019


class WildBundle:
    """World + scenario + measured results, built once."""

    def __init__(self):
        self.world = World(seed=BENCH_SEED)
        self.scenario = WildScenario(self.world, WildScenarioConfig(
            scale=BENCH_SCALE, measurement_days=BENCH_DAYS))
        self.scenario.build()
        measurement = WildMeasurement(
            self.world, self.scenario,
            WildMeasurementConfig(measurement_days=BENCH_DAYS))
        self.results = measurement.run()
        self.vetted = self.results.vetted_packages()
        self.unvetted = self.results.unvetted_packages()


@pytest.fixture(scope="session")
def wild():
    return WildBundle()


@pytest.fixture(scope="session")
def honey():
    world = World(seed=BENCH_SEED)
    experiment = HoneyAppExperiment(world)
    return experiment.run(), world
