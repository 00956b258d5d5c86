"""Export the fault/retry counter snapshot of a canonical chaos run.

Writes ``benchmarks/snapshots/chaos_obs.json``: every fault-injection,
retry, breaker, and coverage-loss counter from one wild run under the
``paper`` chaos profile with pinned seeds.  The snapshot is committed,
so diffing it across revisions shows exactly how a change moved the
resilience behaviour (more retries, fewer walls lost, ...).
``benchmarks/test_bench_chaos.py`` checks it against a fresh run.

Run from the repo root::

    PYTHONPATH=src python scripts/export_chaos_obs.py
"""

from __future__ import annotations

import argparse
from pathlib import Path

from obs_export import emit_snapshot, render
from repro import (
    ChaosScenario,
    WildMeasurement,
    WildMeasurementConfig,
    WildScenario,
    WildScenarioConfig,
    World,
)

#: Pinned run parameters: change them and the snapshot is a new baseline.
SEED = 2019
CHAOS_SEED = 7
CHAOS_PROFILE = "paper"
SCALE = 0.06
DAYS = 20

#: Counter-name prefixes that belong in the resilience snapshot.
PREFIXES = (
    "net.fabric.faults_raised",
    "net.fabric.frames_corrupted",
    "net.server.chaos_",
    "net.client.retries",
    "net.client.retried_statuses",
    "net.client.gave_up",
    "net.client.backoff_ops",
    "net.client.request_failures",
    "net.client.proxy_refusals",
    "net.client.circuit_",
    "net.proxy.connect_failures",
    "net.proxy.intercept_failures",
    "net.proxy.upstream_refusals",
    "monitor.milk_partial",
    "monitor.walls_lost",
    "monitor.corrupt_",
    "monitor.crawl_failures",
    "monitor.crawl_retry_",
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / (
    "benchmarks/snapshots/chaos_obs.json")


def run_chaos_world() -> tuple:
    chaos = ChaosScenario.profile(CHAOS_PROFILE, seed=CHAOS_SEED)
    world = World(seed=SEED, chaos=chaos)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=SCALE, measurement_days=DAYS))
    scenario.build()
    results = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=DAYS)).run()
    return world, results


def build_snapshot() -> dict:
    world, results = run_chaos_world()
    counters = {
        key: value
        for key, value in world.obs.metrics.counters().items()
        if key.startswith(PREFIXES)
    }
    loss = results.coverage_loss
    return {
        "run": {
            "seed": SEED,
            "chaos_profile": CHAOS_PROFILE,
            "chaos_seed": CHAOS_SEED,
            "scale": SCALE,
            "days": DAYS,
        },
        "coverage_loss": {
            "faults_injected": loss.faults_injected,
            "frames_corrupted": loss.frames_corrupted,
            "server_faults": loss.server_faults,
            "retries": loss.retries,
            "gave_up": loss.gave_up,
            "faults_survived": loss.faults_survived,
            "walls_lost": loss.walls_lost,
            "partial_milk_runs": loss.partial_milk_runs,
            "crawl_failures": loss.crawl_failures,
            "crawl_gaps": loss.crawl_gaps,
        },
        "counters": counters,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    emit_snapshot(render(build_snapshot()), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
