"""The seeded load-generating client fleet.

Each client is a coroutine with its own :func:`~repro.parallel.hashing.
derive_rng` stream, a bursty arrival process (single requests
interleaved with tight bursts), and the real client-side resilience
machinery from ``repro.net.client``: a :class:`RetryPolicy` backing off
from 429s/injected faults and a :class:`CircuitBreaker` on the shared
op clock quarantining the service after consecutive failures.  The
``--scale`` knob multiplies the device population each client models,
scaling the simulated user base toward the ROADMAP's millions without
changing the request schedule.

Traffic model
-------------
Endpoint mix comes from a named profile (``query-heavy`` /
``ingest-heavy`` / ``mixed``).  The write path models two populations:

* **campaign waves** — an install campaign drains in waves of
  low-engagement installs drawn from the client's *worker pool* with
  heavy reuse (the paper's Section-5 observation that the same physical
  devices serve many campaigns), sometimes as a colocated farm sharing
  one /24.  These are the detector's ground-truth positives, reported
  to the service as incentivized.
* **organic installs** — fresh devices, popular apps, high engagement;
  the detector must leave them alone.

Every query endpoint draws its params from a small per-fleet pool, so
repeated queries between watermark advances exercise the response
cache — the bench pins the resulting hit rate.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checkpointed import Checkpointed
from repro.detection.events import DeviceInstallEvent
from repro.net.client import CircuitBreaker, RetryPolicy
from repro.net.errors import CircuitOpenError, TransientNetworkError
from repro.obs import NULL_OBS, Observability
from repro.parallel.hashing import derive_rng
from repro.serve.service import DetectionService, ServeRequest, ServeResponse
from repro.serve.vtime import DAY_SECONDS, VirtualClock

#: Host label the circuit breaker quarantines.
SERVICE_HOST = "serve.local"

#: Endpoint mixes; weights are consumed in this literal order.
PROFILES: Dict[str, Tuple[Tuple[str, float], ...]] = {
    "query-heavy": (("ingest", 0.05), ("flagged", 0.40), ("datasets", 0.28),
                    ("metrics", 0.17), ("health", 0.10)),
    "ingest-heavy": (("ingest", 0.55), ("flagged", 0.20), ("datasets", 0.10),
                     ("metrics", 0.05), ("health", 0.10)),
    "mixed": (("ingest", 0.25), ("flagged", 0.30), ("datasets", 0.25),
              ("metrics", 0.10), ("health", 0.10)),
}

#: Organic installs land on a shared pool of popular apps.
_POPULAR_APPS = tuple(f"com.popular.app{index:02d}" for index in range(40))

#: Probability an arrival opens a tight burst instead of a single, the
#: burst length range (inclusive), and the gap between requests inside
#: a burst in virtual seconds.
BURST_PROBABILITY = 0.35
BURST_SPAN: Tuple[int, int] = (4, 14)
BURST_GAP_SECONDS = 0.002
#: Device population each client models before ``scale``.
USERS_PER_CLIENT = 4000
#: Probability a fresh wave-device is reused from the pool (drives
#: cross-campaign lockstep participation).
REUSE_PROBABILITY = 0.8
#: Virtual seconds per retry backoff op.
BACKOFF_SECONDS = 0.2


@dataclass(frozen=True)
class FleetConfig:
    """Shape of the generated load."""

    clients: int = 8
    days: int = 2
    profile: str = "query-heavy"
    #: Mean requests per client per simulated day.
    requests_per_client_day: float = 700.0
    #: Population multiplier (the CLI ``--scale``).
    scale: float = 0.1

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            known = ", ".join(sorted(PROFILES))
            raise ValueError(
                f"unknown fleet profile {self.profile!r} (known: {known})")
        if self.clients < 1 or self.days < 1:
            raise ValueError("fleet needs at least one client and one day")
        for name in ("scale", "requests_per_client_day"):
            value = getattr(self, name)
            # Written so that NaN fails too.
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value!r}")

    @property
    def population_per_client(self) -> int:
        return max(8, int(USERS_PER_CLIENT * self.scale))


@dataclass
class _Campaign:
    """One install campaign a client drains in waves."""

    package: str
    waves_left: int
    farm: bool
    farm_devices: List[Tuple[str, str, str]] = field(default_factory=list)


class FleetClient(Checkpointed):
    """One seeded client coroutine.

    Its checkpoint is everything the arrival schedule and traffic model
    depend on.  Campaign and pool order are kept exactly: the
    device-reuse and live-campaign draws index into them by position.
    """

    _STATE = ("rng", "_wake_at", "_burst_left", "_campaign_seq",
              "_organic_seq", "stats", "breaker", "_pool", "_campaigns")
    #: (device_id, ip_slash24, ssid_hash) worker pool, grown lazily.
    _pool: List[Tuple[str, str, str]]
    _campaigns: List[_Campaign]

    def __init__(self, index: int, config: FleetConfig, seed: int,
                 service: DetectionService, vclock: VirtualClock,
                 obs: Optional[Observability] = None,
                 query_pool: Sequence[Dict[str, object]] = ()) -> None:
        self.index = index
        self.config = config
        self.client_id = f"client-{index:04d}"
        self.rng: random.Random = derive_rng(seed, "serve-fleet", index)
        self.service = service
        self.vclock = vclock
        self.obs = obs or NULL_OBS
        self.policy = RetryPolicy(max_attempts=3, backoff_ops=2)
        self.breaker = CircuitBreaker(
            failure_threshold=5, recovery_ops=200,
            op_clock=lambda: self.obs.ops.value, obs=self.obs)
        self.stats: Counter = Counter()
        self._query_pool = list(query_pool)
        self._pool = []
        self._campaigns = []
        self._campaign_seq = 0
        self._organic_seq = 0
        #: Absolute virtual time of the next arrival; None until the
        #: first gap is drawn.  Kept across ``run_until`` segments so a
        #: client parked at a day boundary wakes at the exact instant
        #: it would have in an unsegmented run.
        self._wake_at: Optional[float] = None
        #: Shots left in the burst currently draining (0 = the next
        #: arrival decides a fresh burst).
        self._burst_left = 0

    # -- traffic generation --------------------------------------------------

    async def run_until(self, stop_vt: float) -> None:
        """Send requests until the next arrival falls at or past
        ``stop_vt`` (capped at the run horizon), then park.

        The arrival schedule is client state (``_wake_at`` /
        ``_burst_left`` / the RNG), not loop state, so running the
        horizon as one segment or as per-day segments replays the same
        absolute arrival instants — which is what lets the serve runner
        checkpoint at day boundaries and a resumed run rejoin the exact
        schedule.
        """
        rng = self.rng
        config = self.config
        stop = min(stop_vt, config.days * DAY_SECONDS)
        mean_gap = DAY_SECONDS / config.requests_per_client_day
        while True:
            if self._wake_at is None:
                self._wake_at = (self.vclock.now()
                                 + rng.expovariate(1.0 / mean_gap))
            if self._wake_at >= stop:
                return
            await self.vclock.sleep(self._wake_at - self.vclock.now())
            if self._burst_left == 0:
                self._burst_left = 1
                if rng.random() < BURST_PROBABILITY:
                    self._burst_left = rng.randint(*BURST_SPAN)
            await self._send(self._next_request())
            self._burst_left -= 1
            if self._burst_left > 0:
                self._wake_at = self.vclock.now() + BURST_GAP_SECONDS
            else:
                self._wake_at = (self.vclock.now()
                                 + rng.expovariate(1.0 / mean_gap))

    def _next_request(self) -> ServeRequest:
        roll = self.rng.random()
        cumulative = 0.0
        endpoint = PROFILES[self.config.profile][-1][0]
        for name, weight in PROFILES[self.config.profile]:
            cumulative += weight
            if roll < cumulative:
                endpoint = name
                break
        if endpoint == "ingest":
            params = self._ingest_params()
        elif endpoint in ("health", "metrics"):
            params = {}
        elif endpoint == "flagged":
            params = {"min_clusters": self.rng.choice((1, 1, 1, 2))}
        else:
            params = self.rng.choice(self._query_pool)
        return ServeRequest(endpoint=endpoint, params=params,
                            client_id=self.client_id)

    # -- device / campaign model ---------------------------------------------

    def _new_device(self) -> Tuple[str, str, str]:
        rng = self.rng
        device = (f"w{self.index:03d}-{len(self._pool):05d}",
                  f"198.51.{rng.randint(0, 255)}.0/24",
                  f"ssid:{rng.randrange(16 ** 8):08x}")
        self._pool.append(device)
        return device

    def _pool_device(self) -> Tuple[str, str, str]:
        rng = self.rng
        if self._pool and (rng.random() < REUSE_PROBABILITY
                           or len(self._pool)
                           >= self.config.population_per_client):
            return self._pool[rng.randrange(len(self._pool))]
        return self._new_device()

    def _active_campaign(self) -> _Campaign:
        rng = self.rng
        live = [c for c in self._campaigns if c.waves_left > 0]
        if live and rng.random() < 0.6:
            return live[rng.randrange(len(live))]
        self._campaign_seq += 1
        campaign = _Campaign(
            package=(f"com.campaign.c{self.index:03d}"
                     f".n{self._campaign_seq:03d}"),
            waves_left=rng.randint(2, 4),
            farm=rng.random() < 0.3)
        self._campaigns.append(campaign)
        return campaign

    def _ingest_params(self) -> Dict[str, object]:
        rng = self.rng
        if rng.random() < 0.7:
            return self._campaign_wave()
        return self._organic_batch()

    def _campaign_wave(self) -> Dict[str, object]:
        rng = self.rng
        campaign = self._active_campaign()
        campaign.waves_left -= 1
        min_burst = self.service.config.detector.min_burst_size
        size = rng.randint(min_burst, min_burst + 8)
        if campaign.farm:
            # A colocated farm: one /24 and SSID for the whole wave
            # (the detector's dominant-block signal, weight 2).
            while len(campaign.farm_devices) < size:
                base = self._new_device()
                if not campaign.farm_devices:
                    block, ssid = base[1], base[2]
                else:
                    block, ssid = (campaign.farm_devices[0][1],
                                   campaign.farm_devices[0][2])
                campaign.farm_devices.append((base[0], block, ssid))
            devices = campaign.farm_devices[:size]
        else:
            devices = [self._pool_device() for _ in range(size)]
        events = [
            DeviceInstallEvent(
                device_id=device_id,
                package=campaign.package,
                day=0, hour=0.0,  # re-stamped at ingestion time
                ip_slash24=block,
                ssid_hash=ssid,
                opened=rng.random() < 0.7,
                engagement_seconds=rng.uniform(5.0, 150.0),
            )
            for device_id, block, ssid in devices]
        self.stats["campaign_waves"] += 1
        return {"events": events,
                "incentivized": sorted({event.device_id
                                        for event in events})}

    def _organic_batch(self) -> Dict[str, object]:
        rng = self.rng
        events = []
        for _ in range(rng.randint(1, 3)):
            self._organic_seq += 1
            events.append(DeviceInstallEvent(
                device_id=f"org{self.index:03d}-{self._organic_seq:05d}",
                package=rng.choice(_POPULAR_APPS),
                day=0, hour=0.0,
                ip_slash24=f"203.0.{rng.randint(0, 255)}.0/24",
                ssid_hash=f"ssid:{rng.randrange(16 ** 8):08x}",
                opened=rng.random() < 0.95,
                engagement_seconds=rng.uniform(200.0, 1200.0),
            ))
        self.stats["organic_batches"] += 1
        return {"events": events, "incentivized": ()}

    # -- resilient send ------------------------------------------------------

    async def _send(self, request: ServeRequest) -> Optional[ServeResponse]:
        metrics = self.obs.metrics
        response: Optional[ServeResponse] = None
        for attempt in range(self.policy.max_attempts):
            try:
                self.breaker.allow(SERVICE_HOST)
            except CircuitOpenError:
                self.stats["circuit_skips"] += 1
                metrics.inc("serve.fleet.circuit_skips")
                return None
            if attempt:
                self.stats["retries"] += 1
                metrics.inc("serve.fleet.retries")
                await self.vclock.sleep(self.policy.backoff_ops * attempt
                                        * BACKOFF_SECONDS)
            try:
                response = await self.service.submit(request)
            except TransientNetworkError:
                self.stats["connect_faults"] += 1
                metrics.inc("serve.fleet.connect_faults")
                self.breaker.record_failure(SERVICE_HOST)
                response = None
                continue
            self.stats[f"status_{response.status}"] += 1
            if self.policy.retriable_status(response.status):
                self.breaker.record_failure(SERVICE_HOST)
                continue
            self.breaker.record_success(SERVICE_HOST)
            return response
        self.stats["gave_up"] += 1
        metrics.inc("serve.fleet.gave_up")
        return response


class ClientFleet(Checkpointed):
    """All clients for one run, launched in index order."""

    _STATE = ("clients",)

    def __init__(self, service: DetectionService, vclock: VirtualClock,
                 config: FleetConfig, seed: int,
                 obs: Optional[Observability] = None) -> None:
        self.config = config
        self.vclock = vclock
        query_pool = self._build_query_pool(service.datasets.names())
        self.clients = [
            FleetClient(index, config, seed, service, vclock, obs=obs,
                        query_pool=query_pool)
            for index in range(config.clients)]

    @staticmethod
    def _build_query_pool(dataset_names: Sequence[str]) -> List[Dict[str, object]]:
        """The small shared param pool the cache sees repeats from."""
        pool: List[Dict[str, object]] = [{"op": "list"}]
        for name in dataset_names:
            pool.append({"op": "load", "name": name, "limit": 10})
            pool.append({"op": "analyse", "name": name})
        if dataset_names:
            pool.append({"op": "filter", "name": dataset_names[0],
                         "iip": "Fyber"})
        return pool

    @property
    def simulated_users(self) -> int:
        return self.config.clients * self.config.population_per_client

    async def run_until(self, stop_vt: float) -> None:
        """One day segment: every client runs to ``stop_vt`` and parks.

        Clients are scheduled in index order at each segment start, so
        tie-breaking among same-instant arrivals is identical across
        segments, across runs, and across a crash/resume boundary.
        """
        await self.vclock.gather(*(client.run_until(stop_vt)
                                   for client in self.clients))

    def stats(self) -> Dict[str, int]:
        totals: Counter = Counter()
        for client in self.clients:
            totals.update(client.stats)
        return {key: totals[key] for key in sorted(totals)}
