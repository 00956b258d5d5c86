"""DetectionService endpoint behaviour on the virtual-time loop."""

import asyncio

import pytest

from repro.detection.events import DeviceInstallEvent
from repro.detection.lockstep import LockstepDetector
from repro.obs import Observability
from repro.serve import (
    AdmissionConfig,
    DetectionService,
    ServeRequest,
    ServiceConfig,
    VirtualClock,
    VirtualTimeEventLoop,
)


def make_event(device_id, package="com.example.app", engagement=30.0):
    return DeviceInstallEvent(
        device_id=device_id,
        package=package,
        day=0,
        hour=0.0,
        ip_slash24="198.51.100.0/24",
        ssid_hash="ssid:deadbeef",
        opened=True,
        engagement_seconds=engagement,
    )


def burst(package, count, prefix="dev"):
    return [make_event(f"{prefix}-{i:03d}", package) for i in range(count)]


def run_service(scenario, **service_kwargs):
    """Run ``scenario(service)`` against a started service on a fresh
    virtual loop; returns the coroutine's result."""
    loop = VirtualTimeEventLoop()
    vclock = VirtualClock(loop)
    service = DetectionService(vclock=vclock, obs=Observability(),
                               **service_kwargs)

    async def main():
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.stop()

    try:
        return loop.run_until_complete(main()), service
    finally:
        loop.close()


class TestIngest:
    def test_ingest_restamps_and_advances_the_watermark(self):
        async def scenario(service):
            first = await service.submit(ServeRequest("ingest", {
                "events": burst("com.a", 3)}))
            second = await service.submit(ServeRequest("ingest", {
                "events": burst("com.a", 2, prefix="late")}))
            return first, second

        (first, second), service = run_service(scenario)
        assert first.ok and first.body == {"ingested": 3, "watermark": 3}
        assert second.ok and second.body["watermark"] == 5
        assert len(service.log) == 5
        # Events were stamped at ingestion time, not with their
        # original day-0 timestamps.
        stamped = service.log.events()[-1]
        assert stamped.timestamp_hours >= 0.0

    def test_stale_retry_does_not_regress_the_stream(self):
        # The same day-0 batch submitted twice with virtual time in
        # between: without re-stamping the second submit would land
        # behind the online detector's watermark and raise.
        batch = burst("com.retry", 4)

        async def scenario(service):
            await service.submit(ServeRequest("ingest", {"events": batch}))
            await service.vclock.sleep(3600.0)
            return await service.submit(
                ServeRequest("ingest", {"events": batch}))

        response, service = run_service(scenario)
        assert response.ok
        assert service.watermark == 8


class TestFlaggedConvergence:
    def test_online_flagged_set_equals_batch_replay(self):
        async def scenario(service):
            for wave in range(3):
                # Same devices across waves -> repeated lockstep bursts.
                events = [make_event(f"farm-{i:03d}", "com.farm.app",
                                     engagement=20.0) for i in range(10)]
                await service.submit(ServeRequest("ingest", {
                    "events": events,
                    "incentivized": [e.device_id for e in events]}))
                await service.vclock.sleep(8 * 3600.0)
            return await service.submit(ServeRequest("flagged"))

        response, service = run_service(scenario)
        assert response.ok
        flagged_online = service.finalize()
        batch = LockstepDetector(service.config.detector).flag_devices(
            service.log)
        assert flagged_online == batch
        assert flagged_online  # the farm was actually caught

    def test_flagged_rejects_bad_params_with_400(self):
        async def scenario(service):
            return await service.submit(ServeRequest("flagged", {
                "min_clusters": "not-a-number"}))

        response, _ = run_service(scenario)
        assert response.status == 400
        assert "error" in response.body


class TestCachingBehaviour:
    def _flagged_around_ingest(self):
        async def scenario(service):
            first = await service.submit(ServeRequest("flagged"))
            second = await service.submit(ServeRequest("flagged"))
            await service.submit(ServeRequest("ingest", {
                "events": burst("com.b", 2)}))
            third = await service.submit(ServeRequest("flagged"))
            return first, second, third

        return run_service(scenario)

    def test_keyed_flagged_survives_an_ingest_that_flags_nothing(self):
        # Two events never make the online detector emit, so the
        # flagged body is still current after the ingest and is served
        # from cache.
        (first, second, third), service = self._flagged_around_ingest()
        assert not first.cached
        assert second.cached and second.body == first.body
        assert third.cached
        assert service.cache.hits == 2
        assert service.cache.invalidations == 0

    def test_keyed_metrics_tracks_the_watermark(self):
        async def scenario(service):
            first = await service.submit(ServeRequest("metrics"))
            await service.submit(ServeRequest("ingest", {
                "events": burst("com.b", 2)}))
            second = await service.submit(ServeRequest("metrics"))
            return first, second

        (first, second), _ = run_service(scenario)
        assert not first.cached
        assert not second.cached
        assert second.body["watermark"] == 2

    def test_cache_hits_are_cheaper_in_virtual_time(self):
        async def scenario(service):
            loop_time = service.vclock.now
            start = loop_time()
            await service.submit(ServeRequest("flagged"))
            miss_cost = loop_time() - start
            start = loop_time()
            await service.submit(ServeRequest("flagged"))
            hit_cost = loop_time() - start
            return miss_cost, hit_cost

        (miss_cost, hit_cost), _ = run_service(scenario)
        assert hit_cost < miss_cost


class TestAdmissionIntegration:
    def test_sheds_429_once_the_burst_is_spent(self):
        async def scenario(service):
            return [await service.submit(ServeRequest("health"))
                    for _ in range(5)]

        responses, service = run_service(
            scenario,
            admission=AdmissionConfig(qps=0.001, burst=2, max_queue=4))
        statuses = [r.status for r in responses]
        assert statuses[:2] == [200, 200]
        assert set(statuses[2:]) == {429}
        assert all(r.body["reason"] == "rate"
                   for r in responses if r.status == 429)
        assert service.admission.accounting_consistent()
        assert service.admission.unshed_overflows == 0


class TestErrorsAndHealth:
    def test_unknown_endpoint_is_404(self):
        async def scenario(service):
            return await service.submit(ServeRequest("nonsense"))

        response, _ = run_service(scenario)
        assert response.status == 404
        assert "unknown endpoint" in response.body["error"]

    def test_unknown_dataset_op_is_400(self):
        async def scenario(service):
            missing = await service.submit(ServeRequest("datasets", {
                "op": "load", "name": "no-such-dataset"}))
            bad_op = await service.submit(ServeRequest("datasets", {
                "op": "explode"}))
            listing = await service.submit(ServeRequest("datasets", {
                "op": "list"}))
            return missing, bad_op, listing

        (missing, bad_op, listing), _ = run_service(scenario)
        assert missing.status == 400
        assert bad_op.status == 400
        assert listing.ok and listing.body["datasets"]

    def test_health_and_metrics_report_consistent_state(self):
        async def scenario(service):
            await service.submit(ServeRequest("ingest", {
                "events": burst("com.c", 3),
                "incentivized": ["dev-000"]}))
            health = await service.submit(ServeRequest("health"))
            metrics = await service.submit(ServeRequest("metrics"))
            return health, metrics

        (health, metrics), service = run_service(scenario)
        assert health.body["status"] == "ok"
        assert health.body["watermark"] == 3
        assert health.body["events"] == 3
        assert metrics.body["watermark"] == 3
        assert metrics.body["offered"] >= 2
        assert 0.0 <= metrics.body["precision"] <= 1.0


class TestWorkerSharding:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_any_worker_count_gives_identical_responses(self, workers):
        async def scenario(service):
            bodies = []
            for _ in range(3):
                response = await service.submit(ServeRequest("flagged"))
                bodies.append(dict(response.body))
                await service.submit(ServeRequest("ingest", {
                    "events": burst("com.d", 2)}))
            return bodies

        bodies, _ = run_service(
            scenario, config=ServiceConfig(workers=workers))
        baseline, _ = run_service(
            scenario, config=ServiceConfig(workers=1))
        assert bodies == baseline
