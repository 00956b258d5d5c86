"""Crash + resume for the streaming wild path, and checkpoint guards.

A **streamed** run's checkpoint stores only ``(count, offset)`` markers
for the spilled observation/archive logs; resume truncates the spill
files back to the checkpointed offsets (the WAL contract) and the rest
of the run replays byte-identically against a same-seed uninterrupted
run.

Checkpoints a resume cannot honour (a streamed checkpoint resumed
materialised, a checkpoint written by an earlier format version, such
as the removed worker-process backend's) must fail loudly, not corrupt
the run.
"""

import hashlib
import json

import pytest

from repro.core.wild_measurement import WildMeasurement, WildMeasurementConfig
from repro.net.chaos import ChaosScenario
from repro.obs import to_json
from repro.recovery import (CheckpointStore, CrashPlan, RecoveryContext,
                            SimulatedCrash)
from repro.recovery.checkpoint import CheckpointMismatch
from repro.simulation.scenarios import WildScenario, WildScenarioConfig
from repro.simulation.world import World

DAYS = 5
SCALE = 0.04
SEED = 11


def build(profile="off", batch=0, spill_dir=None):
    chaos = ChaosScenario.profile(profile, seed=7)
    world = World(seed=SEED, chaos=chaos)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=SCALE, measurement_days=DAYS))
    scenario.build()
    measurement = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=DAYS, batch_devices=batch,
        spill_dir=str(spill_dir) if spill_dir else None))
    return world, measurement


def summarize(world, results):
    return (
        to_json(world.obs),
        results.dataset.offer_count(),
        sorted(results.dataset.unique_packages()),
        [(o.offer_id, o.package, o.country, o.day)
         for o in results.observations],
        results.milk_runs,
        results.crawl_requests,
    )


class TestStreamedResume:
    @pytest.mark.parametrize("profile", ["off", "paper"])
    def test_streamed_crash_resume_equals_plain(self, tmp_path, profile):
        world, measurement = build(
            profile, batch=7, spill_dir=tmp_path / "spill-base")
        base = summarize(world, measurement.run())

        for stage, day in [("wild.day", 2), ("wild.milk", 2),
                           ("wild.checkpoint", 3)]:
            root = tmp_path / f"{stage}-{day}"
            spill = tmp_path / f"spill-{stage}-{day}"
            world, measurement = build(profile, batch=7, spill_dir=spill)
            crashing = RecoveryContext.create(
                root, "wild", crash=CrashPlan.at(stage, day))
            with pytest.raises(SimulatedCrash):
                measurement.run(recovery=crashing)
            # Same spill dir: resume truncates the crashed run's spill
            # files to the checkpointed offsets and appends onward.
            world, measurement = build(profile, batch=7, spill_dir=spill)
            resuming = RecoveryContext.create(root, "wild", resume=True)
            resumed = summarize(world, measurement.run(recovery=resuming))
            assert resumed == base, f"diverged after {stage}:{day}"

    def test_streamed_checkpoint_needs_streamed_resume(self, tmp_path):
        root = tmp_path / "ckpt"
        world, measurement = build(batch=7,
                                   spill_dir=tmp_path / "spill")
        crashing = RecoveryContext.create(
            root, "wild", crash=CrashPlan.at("wild.day", 2))
        with pytest.raises(SimulatedCrash):
            measurement.run(recovery=crashing)
        world, measurement = build(batch=0)  # materialised resume
        resuming = RecoveryContext.create(root, "wild", resume=True)
        with pytest.raises(Exception, match="--batch-devices|spill"):
            measurement.run(recovery=resuming)


class TestProcessBackendResume:
    def test_process_checkpoint_rejected_by_in_process_resume(
            self, tmp_path):
        # The worker-process backend wrote version-1 checkpoints (with
        # a ``workers`` section); every version-1 file is refused, not
        # skipped into a silent restart from day 0.
        root = tmp_path / "ckpt"
        world, measurement = build()
        crashing = RecoveryContext.create(
            root, "wild", crash=CrashPlan.at("wild.day", 2))
        with pytest.raises(SimulatedCrash):
            measurement.run(recovery=crashing)
        store = CheckpointStore(root, "wild")
        day, state = store.latest()
        state["workers"] = {"count": 2, "pins": {}, "states": []}
        payload = {"format_version": 1, "kind": "wild", "day": day,
                   "state": state}
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        store.path_for(day).write_text(json.dumps({
            "payload": payload,
            "sha256": hashlib.sha256(canonical.encode()).hexdigest()}))
        world, measurement = build()
        resuming = RecoveryContext.create(root, "wild", resume=True)
        with pytest.raises(CheckpointMismatch, match="version in .*: 1"):
            measurement.run(recovery=resuming)
