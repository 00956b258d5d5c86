"""Run orchestration: service + fleet for N simulated days.

``run_serve`` wires one :class:`~repro.serve.service.DetectionService`
and one :class:`~repro.serve.fleet.ClientFleet` onto a fresh
virtual-time loop, drives the fleet one simulated day at a time, then
closes the run: finalize the online detector, compare its flagged set
against the batch :class:`~repro.detection.lockstep.LockstepDetector`
on the same install log (the acceptance criterion), score against
ground truth, and fold everything — per-endpoint latency percentiles
included — into one deterministic report dict.  Same config + same
seed ⇒ byte-identical report, flagged dump, and metrics snapshot.

Day segmentation and recovery
-----------------------------
The fleet always runs in day segments (``fleet.run_until`` per day)
whether or not recovery is enabled, so a plain run and a
checkpoint-writing run execute the identical callback schedule.  Each
segment boundary is a quiescent barrier for free: every client awaits
its in-flight response before scheduling its next arrival, so when the
day's gather completes the admission queue is drained and the workers
are idle — the checkpoint captures scalar state only, never an
in-flight request.

The checkpoint roots are the loop's virtual clock, the service, the
fleet and observability, restored in that order.  The service's
restore replays the write-ahead log through the event bus to rebuild
the streaming detection state, and the observability snapshot comes
*last* so any counters the replay ticked are overwritten with the
checkpointed exact values.  The restored virtual instant makes every
post-resume timestamp (arrival times, queue waits, latency
percentiles) match the uninterrupted run bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.detection.lockstep import LockstepDetector
from repro.net.chaos import ChaosScenario
from repro.obs import Observability
from repro.recovery.checkpoint import RecoveryContext
from repro.serve.admission import AdmissionConfig
from repro.serve.cache import WatermarkCache
from repro.serve.datasets import DatasetRegistry, build_serve_datasets
from repro.serve.fleet import ClientFleet, FleetConfig
from repro.serve.service import DetectionService, ServiceConfig
from repro.serve.vtime import DAY_SECONDS, VirtualClock, VirtualTimeEventLoop
from repro.simulation.clock import SimulationClock

#: Latency endpoints reported even when a profile never hit them.
from repro.serve.service import ENDPOINTS


@dataclass(frozen=True)
class ServeRunConfig:
    """Everything a reproducible service run depends on."""

    seed: int = 2019
    days: int = 2
    clients: int = 8
    #: Admission token refill, requests per virtual second.
    qps: float = 1.0
    #: Admission token-bucket capacity.
    burst: int = 12
    #: Service worker tasks (the serve meaning of ``--shards``).
    shards: int = 2
    scale: float = 0.1
    profile: str = "query-heavy"
    chaos_profile: str = "off"
    chaos_seed: Optional[int] = None
    #: Mean requests per client per simulated day (bench-tunable).
    requests_per_client_day: float = 700.0


@dataclass
class ServeRunReport:
    """A finished run: the deterministic report plus live objects."""

    config: ServeRunConfig
    report: Dict[str, object]
    flagged: List[str]
    obs: Observability

    def flagged_dump(self) -> str:
        """The flagged-set artifact (what ``--flagged-out`` writes)."""
        return json.dumps({
            "watermark": self.report["detection"]["watermark"],
            "flagged_devices": self.flagged,
        }, indent=1, sort_keys=True) + "\n"

    def render(self) -> str:
        report = self.report
        run = report["run"]
        traffic = report["traffic"]
        admission = report["admission"]
        cache = report["cache"]
        detection = report["detection"]
        lines = [
            f"serve: {run['days']} simulated days, {run['clients']} clients "
            f"(~{traffic['simulated_users']} simulated users), "
            f"{run['shards']} worker shards, profile {run['profile']}",
            f"traffic: {admission['offered']} offered, "
            f"{admission['admitted']} admitted, {admission['shed']} shed "
            f"(rate {admission['shed_rate_limited']} / "
            f"queue {admission['shed_queue_full']}), "
            f"{admission['unshed_overflows']} unshed overflows",
            f"cache: hit rate {cache['hit_rate']:.2f} "
            f"({cache['hits']} hits / {cache['misses']} misses, "
            f"{cache['invalidations']} invalidations)",
            "endpoint p50/p95/p99 (virtual ms):",
        ]
        for endpoint, stats in report["endpoints"].items():
            latency = stats["latency_vtime_ms"]
            lines.append(
                f"  {endpoint:<9} {latency['p50']:>7.2f} / "
                f"{latency['p95']:>7.2f} / {latency['p99']:>7.2f}   "
                f"({stats['requests']} requests)")
        lines.append(
            f"ingest: {detection['events']} events, "
            f"watermark {detection['watermark']}, "
            f"{detection['clusters']} clusters, "
            f"{detection['flagged']} devices flagged")
        agreement = "yes" if detection["online_equals_batch"] else "NO"
        lines.append(
            f"detection: online == batch: {agreement}; "
            f"precision {detection['precision']:.2f}, "
            f"recall {detection['recall']:.2f}, "
            f"FPR {detection['false_positive_rate']:.3f}")
        chaos = report["chaos"]
        if chaos["profile"] != "off":
            lines.append(
                f"chaos profile: {chaos['profile']} (seed {chaos['seed']}): "
                f"{chaos['connect_faults']} connect faults, "
                f"{chaos['injected_statuses']} injected statuses")
        lines.append(f"flagged sha256: {report['flagged_sha256']}")
        return "\n".join(lines)


def _latency_summary(obs: Observability, name: str,
                     endpoint: str) -> Dict[str, object]:
    state = obs.metrics.histogram(name, endpoint=endpoint)
    if state is None:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                "p95": 0.0, "p99": 0.0, "min": None, "max": None}
    return state.summary()


def run_serve(config: ServeRunConfig,
              obs: Optional[Observability] = None,
              recovery: Optional[RecoveryContext] = None) -> ServeRunReport:
    """One full deterministic service run."""
    # First, so a bad load shape fails before anything is built.
    fleet_config = FleetConfig(
        clients=config.clients,
        days=config.days,
        profile=config.profile,
        scale=config.scale,
        requests_per_client_day=config.requests_per_client_day,
    )
    obs = obs or Observability()
    clock = SimulationClock()
    obs.bind_clock(clock.now)
    chaos_seed = (config.chaos_seed if config.chaos_seed is not None
                  else config.seed)
    chaos = ChaosScenario.profile(config.chaos_profile, seed=chaos_seed)

    loop = VirtualTimeEventLoop()
    vclock = VirtualClock(loop)
    registry = DatasetRegistry(build_serve_datasets(config.seed,
                                                    scale=config.scale))
    service = DetectionService(
        vclock=vclock,
        clock=clock,
        obs=obs,
        config=ServiceConfig(workers=config.shards),
        admission=AdmissionConfig(qps=config.qps, burst=config.burst),
        datasets=registry,
        chaos=chaos,
        seed=config.seed,
    )
    fleet = ClientFleet(service, vclock, fleet_config, config.seed, obs=obs)
    roots = {"loop": loop, "service": service, "fleet": fleet, "obs": obs}
    service.recovery = recovery
    start_day = 0
    loaded = (recovery.store.latest()
              if recovery is not None and recovery.resume else None)
    if loaded is not None:
        cursor, state = loaded
        start_day = cursor + 1
        recovery.restore(cursor, roots, state)

    async def main() -> None:
        await service.start()
        for day in range(start_day, config.days):
            if recovery is not None:
                recovery.crash_point("serve.day", day)
                recovery.wal.open_day(day)
            await fleet.run_until((day + 1) * DAY_SECONDS)
            if recovery is not None:
                recovery.checkpoint(day, roots)
        await service.stop()

    try:
        loop.run_until_complete(main())
    finally:
        # After a simulated crash, closing the loop closes the worker
        # and client coroutines it leaves unfinished.
        loop.close()
        if recovery is not None:
            recovery.wal.close()

    flagged_online = service.finalize()
    flagged = sorted(flagged_online)
    batch = LockstepDetector(service.config.detector).flag_devices(
        service.log)
    evaluation = service.evaluate_now()
    admission = service.admission
    cache: WatermarkCache = service.cache
    metrics = obs.metrics

    endpoints: Dict[str, Dict[str, object]] = {}
    for endpoint in ENDPOINTS:
        endpoints[endpoint] = {
            "requests": metrics.counter_total_by_label(
                "serve.responses", "endpoint", endpoint),
            "ops": _latency_summary(obs, "serve.request_ops", endpoint),
            "latency_vtime_ms": _latency_summary(
                obs, "serve.request_vtime_ms", endpoint),
        }

    flagged_sha = hashlib.sha256(
        "\n".join(flagged).encode("utf-8")).hexdigest()
    report: Dict[str, object] = {
        "run": {
            "seed": config.seed,
            "days": config.days,
            "clients": config.clients,
            "qps": config.qps,
            "burst": config.burst,
            "shards": config.shards,
            "max_queue": admission.config.max_queue,
            "scale": config.scale,
            "profile": config.profile,
        },
        "traffic": {
            "simulated_users": fleet.simulated_users,
            "fleet": fleet.stats(),
        },
        "admission": {
            "offered": admission.offered,
            "admitted": admission.admitted,
            "shed": admission.shed,
            "shed_rate_limited": metrics.counter_total_by_label(
                "serve.shed_requests", "reason", "rate"),
            "shed_queue_full": metrics.counter_total_by_label(
                "serve.shed_requests", "reason", "queue"),
            "unshed_overflows": admission.unshed_overflows,
            "accounting_consistent": admission.accounting_consistent(),
        },
        "cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_rate": round(cache.hit_rate(), 4),
            "invalidations": cache.invalidations,
            "evictions": cache.evictions,
        },
        "endpoints": endpoints,
        "detection": {
            "events": len(service.log),
            "watermark": service.watermark,
            "devices": service.log.device_count(),
            "incentivized": len(service.incentivized),
            "clusters": len(service.online.clusters),
            "flagged": len(flagged),
            "online_equals_batch": batch == flagged_online,
            "precision": round(evaluation.precision, 4),
            "recall": round(evaluation.recall, 4),
            "false_positive_rate": round(
                evaluation.false_positive_rate, 4),
        },
        "chaos": {
            "profile": chaos.name,
            "seed": chaos.seed,
            "connect_faults": metrics.counter_value(
                "serve.chaos_faults", kind="connect"),
            "injected_statuses": metrics.counter_value(
                "serve.chaos_faults", kind="status"),
        },
        "virtual_seconds": round(vclock.now(), 3),
        "flagged_sha256": flagged_sha,
    }
    return ServeRunReport(config=config, report=report, flagged=flagged,
                          obs=obs)
