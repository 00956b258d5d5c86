"""What serve recovery rebuilds beyond the byte-identical exports.

Crash + resume identity for every pipeline and kill point lives in
``tests/integration/test_determinism_matrix.py``.  These tests pin what
its digests cannot see: the serve tier's ``evaluate_now`` fold, which is
not checkpointed and must be rebuilt by WAL replay; the recovery
counters, which must stay out of the pipeline's own export; and the WAL
segment a finished run must close.
"""

import gc
import json
import warnings

import pytest

from repro.obs import Observability
from repro.recovery import CrashPlan, RecoveryContext, SimulatedCrash
from repro.serve.runner import ServeRunConfig, run_serve
from repro.serve.service import DetectionService


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
                root, "serve", crash=CrashPlan.at("serve.request", 1, seq=25)))
        del bodies[:]
        resumed = self.run_once("paper", RecoveryContext.create(
            root, "serve", resume=True))
        assert resumed == base
        assert bodies == [entry for entry in base_bodies if entry[0] >= 1]
        assert any(status == 200 for _, status, _ in bodies)
        assert evaluations[-1] == base_final

    def test_finished_run_closes_its_wal_segment(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            self.run_once("off", RecoveryContext.create(
                tmp_path, "serve"))
            gc.collect()
        assert list((tmp_path / "wal").glob("day_*.jsonl"))
        assert not [w for w in caught if "day_0" in str(w.message)]

    def test_recovery_counters_stay_out_of_the_pipeline_export(self,
                                                               tmp_path):
        recovery = RecoveryContext.create(tmp_path, "serve")
        report = self.run_once("off", recovery)
        assert "recovery." not in report[2]
        recovery.export_metrics()
        exported = (tmp_path / "recovery_metrics.json").read_text()
        assert "recovery.checkpoints_written" in exported
