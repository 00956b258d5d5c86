"""Crash + resume produces byte-identical outputs for every pipeline.

The contract under test (ISSUE 7's tentpole invariant): crash at any
injected kill point, resume from the newest checkpoint, and the final
reports, flagged sets, and observability exports equal a same-seed
uninterrupted run's, byte for byte.

Wild and serve hold the strongest form — plain run == recovery run ==
crash+resume.  Honey's recovery mode serialises the campaign batches at
quiescent barriers (the historical schedule runs them as one concurrent
batch), which repositions trace-span coordinates without changing any
aggregate; its identity baseline is therefore the *clean recovery* run,
while every aggregate (report, flagged set, metric totals, total ops)
is additionally pinned against the plain run.  ``DESIGN.md`` documents
the trade-off.
"""

import json

import pytest

from repro.core.honey_experiment import HoneyAppExperiment
from repro.core.wild_measurement import WildMeasurement, WildMeasurementConfig
from repro.core import reports
from repro.detection.live import HONEY_DETECTOR_CONFIG
from repro.net.chaos import ChaosScenario
from repro.obs import Observability, to_json
from repro.recovery import CrashPlan, RecoveryContext, SimulatedCrash
from repro.serve.runner import ServeRunConfig, run_serve
from repro.serve.service import DetectionService
from repro.simulation.scenarios import WildScenario, WildScenarioConfig
from repro.simulation.world import World


class TestWildResume:
    DAYS = 5

    def build(self, profile):
        chaos = ChaosScenario.profile(profile, seed=7)
        world = World(seed=11, chaos=chaos)
        scenario = WildScenario(world, WildScenarioConfig(
            scale=0.04, measurement_days=self.DAYS))
        scenario.build()
        detection = world.detection_hook("wild")
        measurement = WildMeasurement(world, scenario, WildMeasurementConfig(
            measurement_days=self.DAYS), detection=detection)
        return world, measurement, detection

    def summarize(self, world, results, detection):
        return (
            to_json(world.obs),
            results.dataset.offer_count(),
            sorted(results.dataset.unique_packages()),
            results.milk_runs,
            results.crawl_requests,
            sorted(detection.finalize()),
        )

    @pytest.mark.parametrize("profile", ["off", "paper"])
    def test_crash_resume_equals_plain(self, tmp_path, profile):
        world, measurement, detection = self.build(profile)
        base = self.summarize(world, measurement.run(), detection)

        for stage, day in [("wild.day", 2), ("wild.milk", 2),
                           ("wild.checkpoint", 3)]:
            root = tmp_path / f"{stage}-{day}"
            world, measurement, detection = self.build(profile)
            crashing = RecoveryContext.create(
                root, "wild", crash=CrashPlan.at(stage, day))
            with pytest.raises(SimulatedCrash):
                measurement.run(recovery=crashing)
            world, measurement, detection = self.build(profile)
            resuming = RecoveryContext.create(root, "wild", resume=True)
            resumed = self.summarize(
                world, measurement.run(recovery=resuming), detection)
            assert resumed == base, f"diverged after {stage}:{day}"


class TestHoneyResume:
    def build(self, profile):
        chaos = ChaosScenario.profile(profile, seed=7)
        world = World(seed=11, chaos=chaos)
        hook = world.detection_hook("honey", config=HONEY_DETECTOR_CONFIG)
        experiment = HoneyAppExperiment(world, installs_per_iip=40,
                                        detection=hook)
        return world, experiment, hook

    def summarize(self, world, results, hook):
        return (
            to_json(world.obs),
            reports.render_honey_report(results),
            sorted(hook.finalize()),
        )

    @pytest.mark.parametrize("profile", ["off", "paper"])
    def test_crash_resume_equals_clean_recovery(self, tmp_path, profile):
        plain_world, experiment, hook = self.build(profile)
        plain = self.summarize(plain_world, experiment.run(), hook)

        clean_root = tmp_path / "clean"
        world, experiment, hook = self.build(profile)
        clean = self.summarize(
            world,
            experiment.run(recovery=RecoveryContext.create(
                clean_root, "honey")),
            hook)
        # One schedule: recovery mode adds no work, so the plain run's
        # obs export, report and flagged set all match byte for byte.
        assert clean == plain

        for stage, index in [("honey.campaign", 1),
                             ("honey.checkpoint", 0)]:
            root = tmp_path / f"{stage}-{index}"
            world, experiment, hook = self.build(profile)
            crashing = RecoveryContext.create(
                root, "honey", crash=CrashPlan.at(stage, index))
            with pytest.raises(SimulatedCrash):
                experiment.run(recovery=crashing)
            world, experiment, hook = self.build(profile)
            resuming = RecoveryContext.create(root, "honey", resume=True)
            resumed = self.summarize(
                world, experiment.run(recovery=resuming), hook)
            assert resumed == plain, f"diverged after {stage}:{index}"


class TestServeResume:
    CONFIG = dict(seed=2019, days=2, clients=3, scale=0.05,
                  requests_per_client_day=60.0)

    def run_once(self, profile, recovery=None):
        config = ServeRunConfig(chaos_profile=profile, **self.CONFIG)
        result = run_serve(config, obs=Observability(), recovery=recovery)
        return (
            json.dumps(result.report, sort_keys=True),
            result.flagged_dump(),
            json.dumps(result.obs.snapshot(), sort_keys=True, default=repr),
        )

    @pytest.mark.parametrize("profile", ["off", "paper"])
    def test_crash_resume_equals_plain(self, tmp_path, profile):
        base = self.run_once(profile)

        clean = self.run_once(profile, RecoveryContext.create(
            tmp_path / "clean", "serve", with_wal=True))
        assert clean == base

        for stage, day, seq in [("serve.day", 1, 0),
                                ("serve.checkpoint", 0, 0),
                                ("serve.request", 1, 11)]:
            root = tmp_path / f"{stage}-{day}-{seq}"
            crashing = RecoveryContext.create(
                root, "serve", crash=CrashPlan.at(stage, day, seq=seq),
                with_wal=True)
            with pytest.raises(SimulatedCrash):
                self.run_once(profile, crashing)
            resuming = RecoveryContext.create(root, "serve", resume=True,
                                              with_wal=True)
            resumed = self.run_once(profile, resuming)
            assert resumed == base, f"diverged after {stage}:{day}:{seq}"

    def test_metrics_fold_is_rebuilt_after_a_mid_request_crash(
            self, tmp_path, monkeypatch):
        # The evaluate_now fold is not checkpointed; WAL replay plus
        # load_state must rebuild it to serve the same metrics bodies.
        bodies, evaluations = [], []
        submit = DetectionService.submit
        evaluate_now = DetectionService.evaluate_now

        async def recording_submit(service, request):
            day = service.vclock.day
            response = await submit(service, request)
            if request.endpoint == "metrics":
                bodies.append((day, response.status, dict(response.body)))
            return response

        def recording_evaluate(service):
            evaluations.append(evaluate_now(service))
            return evaluations[-1]

        monkeypatch.setattr(DetectionService, "submit", recording_submit)
        monkeypatch.setattr(DetectionService, "evaluate_now",
                            recording_evaluate)

        base = self.run_once("paper")
        base_bodies, base_final = list(bodies), evaluations[-1]
        assert base_final.true_positives and base_final.false_negatives

        root = tmp_path / "crash"
        with pytest.raises(SimulatedCrash):
            self.run_once("paper", RecoveryContext.create(
                root, "serve", crash=CrashPlan.at("serve.request", 1, seq=25),
                with_wal=True))
        del bodies[:]
        resumed = self.run_once("paper", RecoveryContext.create(
            root, "serve", resume=True, with_wal=True))
        assert resumed == base
        assert bodies == [entry for entry in base_bodies if entry[0] >= 1]
        assert any(status == 200 for _, status, _ in bodies)
        assert evaluations[-1] == base_final

    def test_recovery_counters_stay_out_of_the_pipeline_export(self,
                                                               tmp_path):
        recovery = RecoveryContext.create(tmp_path, "serve", with_wal=True)
        report = self.run_once("off", recovery)
        assert "recovery." not in report[2]
        recovery.export_metrics()
        exported = (tmp_path / "recovery_metrics.json").read_text()
        assert "recovery.checkpoints_written" in exported
