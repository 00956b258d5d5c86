"""The always-on detection/analytics service.

One :class:`DetectionService` wraps the streaming detection state
(:class:`~repro.detection.stream.InstallEventBus` fanning into an
:class:`~repro.detection.stream.OnlineLockstepDetector` plus an
:class:`~repro.detection.events.InstallLog` for end-of-run batch
comparison) and the monitor's named datasets behind five endpoints:

``ingest``     install events published onto the bus (the write path;
               advances the watermark)
``flagged``    flagged devices/clusters as of the current watermark
``datasets``   list/load/filter/analyse named offer datasets
``health``     liveness: uptime, watermark, queue depth
``metrics``    precision/recall gauges against ground truth so far

Requests flow frontdoor → admission → bounded queue → worker shards.
The frontdoor consults a :class:`~repro.net.chaos.ChaosScenario` for
injected connection resets and 429/503s (same hashed-decision scheme as
:class:`~repro.net.chaos.FaultPlan`), admission sheds with 429s, and
read endpoints are served from a :class:`~repro.serve.cache.
WatermarkCache` keyed by a per-endpoint freshness token (see
:meth:`DetectionService._freshness`).

Crash recovery
--------------
When a :class:`~repro.recovery.checkpoint.RecoveryContext` is attached,
every admitted ingest batch is appended to the context's write-ahead
log *before* it is published onto the bus, and ``submit`` exposes the
``serve.request`` crash point.  The streaming detection state (install
log, online detector, its ``version`` token, the running scoring fold
behind ``evaluate_now``) is deliberately *not* checkpointed:
:meth:`DetectionService.load_state` restores the cheap scalar state
and reconstructs the rest exactly by replaying the WAL through the
bus; the pipeline then restores the observability snapshot, which
overwrites any counters the replay double-ticked.

Ingestion-time stamping
-----------------------
The service re-stamps every ingested event at its processing instant on
the virtual clock (store-side ingestion time, which is also what makes
client *retries* safe: a replayed batch cannot travel back behind the
detector's watermark).  Because the install log records the re-stamped
events, the online flagged set still converges to exactly what the
batch detector computes on the same log.

Latency is measured twice per request, both deterministically: the op
counter delta (``serve.request_ops``, instrumented work) and elapsed
virtual milliseconds including queue wait (``serve.request_vtime_ms``).
Handlers run atomically (no awaits inside), then charge their modelled
service time as a virtual sleep — which is what makes worker count and
queueing visible in the percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set)

from repro.checkpointed import Checkpointed
from repro.detection.evaluation import DetectionReport
from repro.detection.events import DeviceInstallEvent, InstallLog
from repro.detection.lockstep import DetectorConfig
from repro.detection.stream import InstallEventBus, OnlineLockstepDetector
from repro.net.chaos import ChaosScenario, hashed_roll, injected_status
from repro.net.errors import TransientNetworkError
from repro.obs import NULL_OBS, LabelKeys, Observability
from repro.recovery.checkpoint import RecoveryContext
from repro.serve.admission import ADMIT, AdmissionConfig, AdmissionController
from repro.serve.cache import WatermarkCache
from repro.serve.datasets import DatasetRegistry, build_serve_datasets
from repro.serve.vtime import QueueFull, Task, VirtualClock
from repro.simulation.clock import SimulationClock

#: The service's query surface.
ENDPOINTS = ("ingest", "flagged", "datasets", "health", "metrics")

#: Read endpoints whose bodies are pure functions of their freshness
#: token (static for ``datasets``, detector emissions for ``flagged``,
#: the ingest watermark for ``metrics``).
CACHED_ENDPOINTS = ("flagged", "datasets", "metrics")

#: Detector thresholds tuned for service-sized ingest batches (the
#: paper-scale default of 12-install bursts needs campaign volumes a
#: single client fleet run does not reach).
SERVE_DETECTOR_CONFIG = DetectorConfig(min_burst_size=8)

#: The deterministic service-time model: fixed virtual milliseconds per
#: handled request, plus more per instrumented op the handler performed
#: (expensive handlers take proportionally longer), and the virtual
#: milliseconds for serving a cache hit.
BASE_SERVICE_MS = 1.0
PER_OP_MS = 0.25
CACHE_HIT_MS = 0.2

_SHUTDOWN = object()


@dataclass(frozen=True)
class ServeRequest:
    """One request as the fleet submits it (in-process, no wire format)."""

    endpoint: str
    params: Mapping[str, object] = field(default_factory=dict)
    client_id: str = "anon"


@dataclass(frozen=True)
class ServeResponse:
    status: int
    body: Mapping[str, object]
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass(frozen=True)
class ServiceConfig:
    """Worker pool size and the detector thresholds."""

    #: Worker tasks draining the admission queue (the serve ``--shards``).
    workers: int = 2
    detector: DetectorConfig = field(
        default_factory=lambda: SERVE_DETECTOR_CONFIG)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("the service needs at least one worker")


class FrontdoorChaos(Checkpointed):
    """Request-level fault injection mirroring :class:`FaultPlan`.

    The fabric's plan keys decisions by host; the service is not behind
    the fabric, so this gate rolls the same SHA-256 dice per
    ``(seed, class, client, day, per-client seq)``.  Connection resets
    surface as :class:`TransientNetworkError` before admission (the
    request never reached the service); HTTP faults return an injected
    429/503.  Its checkpoint is the per-client dice sequence numbers:
    without them a resumed run would re-roll the same injected faults.
    """

    _STATE = ("_seq",)

    def __init__(self, scenario: ChaosScenario,
                 obs: Optional[Observability] = None,
                 day: Optional[Callable[[], int]] = None) -> None:
        self.scenario = scenario
        self.obs = obs or NULL_OBS
        self._day = day or (lambda: 0)
        self._seq: Dict[str, int] = {}

    def _hit(self, rate: float, *parts: object) -> bool:
        if rate <= 0.0:
            return False
        return hashed_roll(self.scenario.seed, *parts) < rate

    def decide(self, request: ServeRequest) -> Optional[int]:
        """``None`` to pass, an injected status to fail the request; may
        raise :class:`TransientNetworkError` for a connect-level fault."""
        if not self.scenario.enabled:
            return None
        client = request.client_id
        seq = self._seq.get(client, 0)
        self._seq[client] = seq + 1
        day = self._day()
        if self._hit(self.scenario.connect_failure_rate,
                     "serve-connect", client, day, seq):
            self.obs.metrics.inc("serve.chaos_faults", kind="connect")
            raise TransientNetworkError(
                f"connection reset at the serve frontdoor ({client})")
        if self._hit(self.scenario.http_error_rate,
                     "serve-http", client, day, seq):
            status = injected_status(self.scenario.seed, "serve-status",
                                     client, day, seq)
            self.obs.metrics.inc("serve.chaos_faults", kind="status")
            return status
        return None


class DetectionService(Checkpointed):
    """The long-lived service: state, frontdoor, workers, handlers.

    A checkpoint is taken at a quiescent barrier (queue drained, workers
    idle), so it holds no in-flight request.
    """

    _STATE = ("clock", "watermark", "_label_order", "_started_at",
              "admission", "cache", "_frontdoor")
    _TRANSIENT = {
        "_restored": "set by load_state, so that start() keeps the "
                     "restored start instant",
        **dict.fromkeys(
            ("_fold_devices", "_fold_flagged", "_fold_labels",
             "_seen_incentivized", "_flagged_incentivized"),
            "derived state of the evaluate_now fold: a resume rebuilds "
            "the log and detector by WAL replay and the labels by "
            "load_state, then the fold refills from cursor 0"),
    }

    def __init__(self, vclock: VirtualClock,
                 clock: Optional[SimulationClock] = None,
                 obs: Optional[Observability] = None,
                 config: Optional[ServiceConfig] = None,
                 admission: Optional[AdmissionConfig] = None,
                 datasets: Optional[DatasetRegistry] = None,
                 chaos: Optional[ChaosScenario] = None,
                 seed: int = 2019) -> None:
        self.vclock = vclock
        self.clock = clock or SimulationClock()
        self.obs = obs or NULL_OBS
        self.config = config or ServiceConfig()
        self.bus = InstallEventBus(self.obs, source="serve")
        self.log = InstallLog()
        self.online = OnlineLockstepDetector(self.config.detector, self.obs)
        self.bus.subscribe(self.log.add)
        self.bus.subscribe(self.online.ingest)
        self.incentivized: Set[str] = set()
        #: ``incentivized`` in labelling order (append-only); written
        #: only through :meth:`label_incentivized` and restored whole by
        #: :meth:`load_state`, which rebuilds ``incentivized`` from it.
        self._label_order: List[str] = []
        self._reset_fold()
        #: Count of ingested events: the cache key's freshness axis.
        self.watermark = 0
        self.admission = AdmissionController(
            admission or AdmissionConfig(), now=vclock.now, obs=self.obs)
        self.cache = WatermarkCache(obs=self.obs)
        #: Set by the runner: enables WAL-before-publish on ingest, the
        #: ``serve.request`` crash point and the WAL replay on restore.
        self.recovery: Optional[RecoveryContext] = None
        self.datasets = datasets or DatasetRegistry(
            build_serve_datasets(seed))
        self.chaos = chaos or ChaosScenario.off()
        self._frontdoor = FrontdoorChaos(self.chaos, obs=self.obs,
                                         day=lambda: self.clock.day)
        self._queue = vclock.queue(maxsize=self.admission.config.max_queue)
        self._workers: List[Task] = []
        self._started_at = 0.0
        #: Set by :meth:`load_state`; keeps :meth:`start` from
        #: re-stamping ``_started_at`` (and re-counting
        #: ``serve.started``) on a resumed run.
        self._restored = False
        self._endpoint_keys = LabelKeys("endpoint")
        self._response_keys = LabelKeys("endpoint", "status")
        self._handlers: Dict[str, Callable[[Mapping[str, object]],
                                           Dict[str, object]]] = {
            "ingest": self._handle_ingest,
            "flagged": self._handle_flagged,
            "datasets": self._handle_datasets,
            "health": self._handle_health,
            "metrics": self._handle_metrics,
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._workers:
            raise RuntimeError("service already started")
        if not self._restored:
            self._started_at = self.vclock.now()
            self.obs.metrics.inc("serve.started")
        self._workers = [
            self.vclock.create_task(self._worker())
            for _ in range(self.config.workers)]

    async def stop(self) -> None:
        for _ in self._workers:
            await self._queue.put(_SHUTDOWN)
        await self.vclock.gather(*self._workers)
        self._workers = []

    def uptime_vt_seconds(self) -> float:
        return self.vclock.now() - self._started_at

    # -- frontdoor -----------------------------------------------------------

    async def submit(self, request: ServeRequest) -> ServeResponse:
        """The client-facing entry point: chaos → admission → queue."""
        self._sync_day()
        if self.recovery is not None:
            # Mid-day kill point: fires before the request touches any
            # service state, so the WAL's partial day segment is the
            # only artifact a resume has to reconcile (by truncation).
            self.recovery.crash_point("serve.request", self.clock.day)
        injected = self._frontdoor.decide(request)
        if injected is not None:
            return ServeResponse(injected, {"error": "injected fault"})
        decision = self.admission.decide(request.endpoint,
                                         self._queue.qsize())
        if decision != ADMIT:
            return ServeResponse(429, {"error": "shed", "reason": decision})
        future = self.vclock.create_future()
        try:
            # Atomic with the admission check above (no await between
            # them), so an admitted request always has queue room.
            self._queue.put_nowait((request, future, self.vclock.now()))
        except QueueFull:  # pragma: no cover - invariant breach
            self.admission.record_unshed_overflow(request.endpoint)
            return ServeResponse(429, {"error": "shed", "reason": "overflow"})
        self.obs.metrics.set_gauge("serve.queue_depth", self._queue.qsize())
        return await future

    def _sync_day(self) -> None:
        vt_day = self.vclock.day
        if vt_day > self.clock.day:
            self.clock.advance(vt_day - self.clock.day)

    # -- workers -------------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _SHUTDOWN:
                return
            request, future, enqueued_at = item
            future.set_result(await self._process(request, enqueued_at))

    async def _process(self, request: ServeRequest,
                       enqueued_at: float) -> ServeResponse:
        metrics = self.obs.metrics
        endpoint = request.endpoint
        ops_before = self.obs.ops.value
        cached = False
        if endpoint in CACHED_ENDPOINTS:
            token = self._freshness(endpoint)
            hit, body = self.cache.lookup(endpoint, request.params, token)
            if hit:
                cached = True
                response = ServeResponse(200, body, cached=True)
            else:
                response = self._handle(request)
                if response.ok:
                    self.cache.store(endpoint, request.params,
                                     token, response.body)
        else:
            response = self._handle(request)
        ops_delta = self.obs.ops.value - ops_before
        service_ms = (CACHE_HIT_MS if cached
                      else BASE_SERVICE_MS + PER_OP_MS * ops_delta)
        await self.vclock.sleep(service_ms / 1000.0)
        key = self._endpoint_keys[endpoint]
        metrics.observe_keyed("serve.request_ops", key, ops_delta)
        metrics.observe_keyed(
            "serve.request_vtime_ms", key,
            round((self.vclock.now() - enqueued_at) * 1000.0, 3))
        metrics.inc_keyed("serve.responses",
                          self._response_keys[endpoint, response.status])
        return response

    def _handle(self, request: ServeRequest) -> ServeResponse:
        handler = self._handlers.get(request.endpoint)
        if handler is None:
            self.obs.metrics.inc("serve.unknown_endpoint")
            return ServeResponse(404, {
                "error": f"unknown endpoint {request.endpoint!r} "
                         f"(known: {', '.join(ENDPOINTS)})"})
        try:
            body = handler(request.params)
        except (KeyError, ValueError, TypeError) as exc:
            self.obs.metrics.inc("serve.handler_errors",
                                 endpoint=request.endpoint)
            return ServeResponse(400, {"error": str(exc)})
        return ServeResponse(200, body)

    def _freshness(self, endpoint: str) -> int:
        """The freshness token a cached response depends on.

        ``datasets`` bodies are static, ``flagged`` bodies change only
        when the online detector emits (its ``version``), ``metrics``
        bodies track the ingest watermark.
        """
        if endpoint == "datasets":
            return 0
        if endpoint == "flagged":
            return self.online.version
        return self.watermark

    def _charge(self, units: int, per: int = 32) -> None:
        """Tick the op counter in proportion to a response's payload —
        the deterministic stand-in for serialization cost."""
        for _ in range(1 + units // per):
            self.obs.tick()

    # -- handlers (atomic: no awaits) ----------------------------------------

    def _stamp(self, event: DeviceInstallEvent, day: int,
               hour: float) -> DeviceInstallEvent:
        return DeviceInstallEvent(
            event.device_id, event.package, day, hour, event.ip_slash24,
            event.ssid_hash, event.opened, event.engagement_seconds)

    def _handle_ingest(self, params: Mapping[str, object]) -> Dict[str, object]:
        events: Sequence[DeviceInstallEvent] = params.get("events", ())  # type: ignore[assignment]
        day, hour = self.vclock.day, self.vclock.hour_of_day
        stamped = [self._stamp(event, day, hour) for event in events]
        self._sync_day()
        if self.recovery is not None:
            # Write-ahead: the batch is durable before any detector
            # state changes, so a crash between the two replays it.
            # Labels need no log: a checkpoint holds every label up to
            # the watermark the replay stops at.
            for event in stamped:
                self.recovery.wal.append(event.to_dict())
        self.bus.publish_all(stamped)
        self.watermark += len(stamped)
        self.label_incentivized(
            params.get("incentivized", ()))  # type: ignore[arg-type]
        return {"ingested": len(stamped), "watermark": self.watermark}

    def _handle_flagged(self, params: Mapping[str, object]) -> Dict[str, object]:
        min_clusters = int(params.get("min_clusters", 1))
        flagged = sorted(self.online.flagged_devices)
        self._charge(len(flagged))
        return {
            "watermark": self.watermark,
            "devices": len(flagged),
            "clusters": len(self.online.clusters),
            "flagged_devices": flagged,
            "packages": self.online.flagged_packages(
                min_clusters=min_clusters),
        }

    def _handle_datasets(self, params: Mapping[str, object]) -> Dict[str, object]:
        body = self.datasets.execute(params)
        self._charge(len(body.get("records", body.get("datasets", ()))))  # type: ignore[arg-type]
        return body

    def _handle_health(self, params: Mapping[str, object]) -> Dict[str, object]:
        return {
            "status": "ok",
            "day": self.clock.day,
            "virtual_seconds": round(self.vclock.now(), 3),
            "uptime_vt_seconds": round(self.uptime_vt_seconds(), 3),
            "watermark": self.watermark,
            "events": len(self.log),
            "queue_depth": self._queue.qsize(),
        }

    def _handle_metrics(self, params: Mapping[str, object]) -> Dict[str, object]:
        report = self.evaluate_now()
        metrics = self.obs.metrics
        metrics.set_gauge("serve.precision", round(report.precision, 6))
        metrics.set_gauge("serve.recall", round(report.recall, 6))
        metrics.set_gauge("serve.uptime_vt_seconds",
                          round(self.uptime_vt_seconds(), 3))
        return {
            "watermark": self.watermark,
            "events": len(self.log),
            "flagged": self.online.flagged_count,
            "precision": round(report.precision, 4),
            "recall": round(report.recall, 4),
            "false_positive_rate": round(report.false_positive_rate, 4),
            "offered": self.admission.offered,
            "admitted": self.admission.admitted,
            "shed": self.admission.shed,
        }

    # -- ground truth and scoring -------------------------------------------

    def label_incentivized(self, device_ids: Iterable[str]) -> None:
        """Record ground-truth incentivized devices (the one writer of
        ``incentivized``, so the scoring fold sees every new label)."""
        for device_id in device_ids:
            if device_id not in self.incentivized:
                self.incentivized.add(device_id)
                self._label_order.append(device_id)

    def _reset_fold(self) -> None:
        #: Cursors into the log's first-seen devices, the detector's
        #: flag order and ``_label_order``: how much the fold has read.
        self._fold_devices = 0
        self._fold_flagged = 0
        self._fold_labels = 0
        #: Labelled devices the log has seen / the detector has flagged.
        self._seen_incentivized: Set[str] = set()
        self._flagged_incentivized: Set[str] = set()

    def evaluate_now(self) -> DetectionReport:
        """Score the flagged-so-far set against ground truth observed so
        far.  Unlike ``LiveDetection.evaluate`` this never finalizes the
        online detector, so it is safe to serve mid-run.

        Equals ``evaluate_detector(flagged, incentivized & universe,
        universe)`` with the log's devices as the universe, computed as
        a running fold: the three inputs only grow, so each call reads
        only the ids added since the last one and updates the two
        intersections that involve the labels.
        """
        log, online, incentivized = self.log, self.online, self.incentivized
        seen = log.devices_since(self._fold_devices)
        for device_id in seen:
            if device_id in incentivized:
                self._seen_incentivized.add(device_id)
        self._fold_devices += len(seen)
        flagged_new = online.flagged_since(self._fold_flagged)
        for device_id in flagged_new:
            if not log.has_device(device_id):
                raise ValueError("flagged set contains unknown devices")
            if device_id in incentivized:
                self._flagged_incentivized.add(device_id)
        self._fold_flagged += len(flagged_new)
        labels = self._label_order[self._fold_labels:]
        for device_id in labels:
            if log.has_device(device_id):
                self._seen_incentivized.add(device_id)
            if online.is_flagged(device_id):
                self._flagged_incentivized.add(device_id)
        self._fold_labels += len(labels)
        universe = log.device_count()
        flagged = online.flagged_count
        positives = len(self._seen_incentivized)
        tp = len(self._flagged_incentivized)
        return DetectionReport(
            true_positives=tp, false_positives=flagged - tp,
            false_negatives=positives - tp,
            true_negatives=universe - flagged - positives + tp)

    # -- end-of-run queries --------------------------------------------------

    def finalize(self) -> Set[str]:
        """Flush pending windows; only meaningful once ingest stopped."""
        return self.online.finalize()

    # -- checkpoint/restore --------------------------------------------------

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore the scalar state, then, with a recovery context
        attached, rebuild the streaming detection state (install log,
        online detector, its ``version``) by replaying every durably
        logged ingest event through the bus, capped at the restored
        watermark.  The replay ticks bus and detector counters; the
        pipeline restores its observability snapshot afterwards, which
        makes them exact."""
        super().load_state(state)
        if self.recovery is not None:
            for record in self.recovery.wal.replay(
                    self.clock.day, limit=self.watermark):
                self.bus.publish(DeviceInstallEvent.from_dict(record))
        self.incentivized = set(self._label_order)
        self._reset_fold()
        self._restored = True
