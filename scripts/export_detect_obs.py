"""Export the detection bench: ``BENCH_detect.json``.

Runs both live detection lanes — the Section-3 honey telemetry and the
Section-4 wild monitor — through :class:`repro.detection.LiveDetection`
and reports, per source: the event/cluster/flagged counts, the
precision/recall/F1/FPR against the simulation's ground truth, and a
``stream_equals_batch`` flag (the online detector's flagged set
re-checked against a batch :class:`LockstepDetector` replay of the
identical log).

On top of the naive lanes, the ``scenarios`` section runs the
adversarial profiles: the evasive profile against both sources (naive
degradation plus hardened-detector recovery), the fake-review campaign
burst against the review-spam detector, and the chart-boost download
fraud against the spike/deficit detector.  The naive ``honey``/``wild``
subtrees are computed exactly as before, so adversarial code drifting
into the naive path shows up as snapshot drift here.

Two outputs:

* ``BENCH_detect.json`` (``--out``): the full report including wall
  times — informative, not deterministic, never committed.
* ``benchmarks/snapshots/detect_obs.json`` (``--snapshot-out``): the
  deterministic subset (no wall times), committed to the repo.
  ``benchmarks/test_bench_detect.py`` fails if a fresh run drifts from
  it, which gates the detector's quality numbers against silent
  regressions.

Run from the repo root::

    PYTHONPATH=src python scripts/export_detect_obs.py

The run parameters are the constants below; the committed snapshot
records them.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from obs_export import deterministic_subset, emit_report, render
from repro import (
    WildMeasurement,
    WildMeasurementConfig,
    WildScenario,
    WildScenarioConfig,
    World,
)
from repro.core import HoneyAppExperiment
from repro.detection import HardenedLockstepDetector
from repro.detection.lockstep import LockstepDetector
from repro.detection.live import HONEY_HARDENED_FLAG_THRESHOLD
from repro.scenarios import (
    DownloadFraudDetector,
    EvasiveLiveDetection,
    ReviewSpamDetector,
    parse_scenario,
)
from repro.scenarios.downloadfraud import rank_trajectory

SEED = 2019
WILD_SCALE = 0.05
WILD_DAYS = 14
HONEY_INSTALLS = 500

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_detect.json"
DEFAULT_SNAPSHOT = REPO_ROOT / "benchmarks/snapshots/detect_obs.json"


def run_honey_source() -> tuple:
    world = World(seed=SEED)
    hook = world.detection_hook("honey")
    started = time.monotonic()
    HoneyAppExperiment(world, installs_per_iip=HONEY_INSTALLS,
                       detection=hook).run()
    return world, hook, time.monotonic() - started


def run_wild_source(profile: str = "naive") -> tuple:
    world = World(seed=SEED)
    hook = world.detection_hook("wild")
    scenario = WildScenario(world, WildScenarioConfig(
        scale=WILD_SCALE, measurement_days=WILD_DAYS,
        scenario=parse_scenario(profile)))
    scenario.build()
    started = time.monotonic()
    WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=WILD_DAYS), detection=hook).run()
    return world, scenario, hook, time.monotonic() - started


def run_honey_evasive() -> tuple:
    world = World(seed=SEED)
    hook = EvasiveLiveDetection(
        world.seeds.seed_for("honey-evasion"), obs=world.obs, source="honey")
    started = time.monotonic()
    HoneyAppExperiment(world, installs_per_iip=HONEY_INSTALLS,
                       detection=hook).run()
    return world, hook, time.monotonic() - started


def source_report(world, hook) -> dict:
    flagged = hook.finalize()
    evaluation = hook.evaluate()
    batch = LockstepDetector(hook.config).flag_devices(hook.log)
    total = world.obs.metrics.counter_total
    return {
        "stream": {
            "events": hook.bus.events_published,
            "devices": len(hook.log.devices()),
            "incentivized": len(hook.incentivized),
            "clusters": len(hook.online.clusters),
            "flagged": len(flagged),
            "events_ingested_counter":
                int(total("detection.events_ingested")),
        },
        "quality": {
            "precision": round(evaluation.precision, 4),
            "recall": round(evaluation.recall, 4),
            "f1": round(evaluation.f1, 4),
            "false_positive_rate":
                round(evaluation.false_positive_rate, 4),
        },
        "stream_equals_batch": flagged == batch,
    }


def _quality(evaluation) -> dict:
    return {
        "precision": round(evaluation.precision, 4),
        "recall": round(evaluation.recall, 4),
        "false_positive_rate": round(evaluation.false_positive_rate, 4),
    }


def _hardened_recovery(hook, detector: HardenedLockstepDetector) -> dict:
    """Naive degradation vs hardened recovery on one evaded log."""
    flagged = detector.flag_devices(hook.log)
    report = _quality(hook.score(flagged))
    report["flagged"] = len(flagged)
    return {"naive": _quality(hook.evaluate()), "hardened": report}


def evasive_report() -> tuple:
    _world, _scenario, wild_hook, wild_elapsed = run_wild_source("evasive")
    _hworld, honey_hook, honey_elapsed = run_honey_evasive()
    report = {
        "wild": _hardened_recovery(wild_hook, HardenedLockstepDetector()),
        "honey": _hardened_recovery(honey_hook, HardenedLockstepDetector(
            HONEY_HARDENED_FLAG_THRESHOLD)),
    }
    return report, wild_elapsed + honey_elapsed


def fake_reviews_report() -> tuple:
    world, scenario, _hook, elapsed = run_wild_source("fake-reviews")
    book = world.store.reviews
    paid = scenario.paid_reviewer_ids()
    evaluation = ReviewSpamDetector().evaluate(book, paid)
    report = {
        "reviews": len(book),
        "reviewed_apps": len(book.packages()),
        "reviewers": len(book.reviewers()),
        "paid_reviewers": len(paid),
        "quality": _quality(evaluation),
    }
    return report, elapsed


def download_fraud_report() -> tuple:
    world, scenario, _hook, elapsed = run_wild_source("download-fraud")
    packages = scenario.advertised_packages() + scenario.baseline_packages()
    through_day = WILD_DAYS - 1
    evaluation = DownloadFraudDetector().evaluate(
        world.store, packages, scenario.fraud_packages(), through_day)
    plans = scenario.boost_plans()
    boost_ids = {plan.campaign_id for plan in plans}
    apps = []
    for plan in plans:
        trajectory = rank_trajectory(world.store, plan.package,
                                     plan.start_day,
                                     min(plan.end_day + 3, through_day))
        ranks = [rank for _, rank in trajectory if rank is not None]
        takedown = next(
            (action.day for action
             in world.store.enforcement.actions_for(plan.package)
             if action.campaign_id in boost_ids), None)
        apps.append({
            "package": plan.package,
            "spike_days": [plan.start_day, plan.end_day],
            "best_rank": min(ranks) if ranks else None,
            "takedown_day": takedown,
        })
    report = {
        "boosted_apps": apps,
        "quality": _quality(evaluation),
    }
    return report, elapsed


def build_report() -> dict:
    honey_world, honey_hook, honey_elapsed = run_honey_source()
    wild_world, _scenario, wild_hook, wild_elapsed = run_wild_source()
    evasive, evasive_elapsed = evasive_report()
    reviews, reviews_elapsed = fake_reviews_report()
    fraud, fraud_elapsed = download_fraud_report()
    report = {
        "run": {
            "seed": SEED,
            "wild_scale": WILD_SCALE,
            "wild_days": WILD_DAYS,
            "honey_installs_per_iip": HONEY_INSTALLS,
        },
        "honey": source_report(honey_world, honey_hook),
        "wild": source_report(wild_world, wild_hook),
        "scenarios": {
            "evasive": evasive,
            "fake_reviews": reviews,
            "download_fraud": fraud,
        },
    }
    report["wall_seconds"] = {
        "honey": round(honey_elapsed, 2),
        "wild": round(wild_elapsed, 2),
        "scenario_evasive": round(evasive_elapsed, 2),
        "scenario_fake_reviews": round(reviews_elapsed, 2),
        "scenario_download_fraud": round(fraud_elapsed, 2),
    }
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="full detect bench report (with wall times)")
    parser.add_argument("--snapshot-out", type=Path, default=DEFAULT_SNAPSHOT,
                        help="deterministic subset, committed")
    args = parser.parse_args()
    emit_report(build_report(), args.out, args.snapshot_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
