"""Live detection wiring: pipelines in, online detector out.

:class:`LiveDetection` is the ``detection=`` hook both core pipelines
accept.  It owns one :class:`~repro.detection.stream.InstallEventBus`
with two subscribers — an :class:`~repro.detection.events.InstallLog`
(so the batch detector can replay the identical stream) and an
:class:`~repro.detection.stream.OnlineLockstepDetector` — and tracks
the ground-truth incentivized device set the simulation knows (the IIP
campaign ledgers know exactly which installs were purchased).

Two adapters feed it:

* :func:`honey_install_event` maps one honey-campaign worker install
  (Section 3 telemetry: open / in-app click / day-after return) onto a
  :class:`DeviceInstallEvent`.  The mapping is deterministic — no RNG —
  because the honey pipeline's behaviour streams are already sealed;
  drawing detection randomness from them would perturb the byte-frozen
  campaign exports.
* :class:`WildEventBridge` converts the wild monitor's offer
  impressions (Section 4: ``monitor.offers_milked{iip,country}``) into
  the installs they plausibly drive.  The wild world tracks campaign
  delivery only in aggregate, so the bridge synthesises the per-device
  conversion stream the paper's store-side vantage point would see:
  crowd workers drawn from per-``(iip, country)`` pools (recurring
  semi-professionals, occasional device farms), converting inside a
  per-``(package, day)`` anchor window, plus sparse organic installs
  with genuine engagement.  All randomness comes from streams derived
  off the bridge seed with :func:`~repro.parallel.hashing.derive_rng`,
  and the bridge only ever sees the canonically merged offer list of a
  milk day — so same-seed runs, clean or under chaos, produce
  byte-identical event streams.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.checkpointed import Checkpointed, join_key, split_key
from repro.detection.evaluation import DetectionReport, evaluate_detector
from repro.detection.events import DeviceInstallEvent, InstallLog
from repro.detection.lockstep import DetectorConfig
from repro.detection.stream import InstallEventBus, OnlineLockstepDetector
from repro.honeyapp.telemetry import sanitize_ssid
from repro.net.ip import AsnDatabase
from repro.obs import NULL_OBS, Observability
from repro.parallel import derive_rng
from repro.users.devices import Device, DeviceFactory

#: Deterministic engagement seconds for honey telemetry events: the
#: app-open alone is a quick look, an in-app click is real usage past
#: the offer task, a day-after return is sustained interest.  Only the
#: open-only case sits below the detector's 180 s low-engagement line —
#: matching how the paper reads its telemetry (most workers put in the
#: bare minimum effort).
HONEY_OPEN_SECONDS = 45.0
HONEY_CLICK_BONUS_SECONDS = 195.0
HONEY_RETURN_BONUS_SECONDS = 360.0

#: Detector thresholds for the honey-telemetry source.  Two defaults
#: move: a purchased campaign drains in one burst, so a honey device is
#: seen exactly once (``min_bursts_per_device=1`` — every install in
#: the window is ground-truth incentivized anyway), and the vetted
#: IIPs' 44 % in-app click rate (Table 3) puts their low-engagement
#: fraction right on the default 0.5 line, so the honey lane loosens it
#: to 0.4 to keep the campaign windows from flickering in and out.
HONEY_DETECTOR_CONFIG = DetectorConfig(min_bursts_per_device=1,
                                       min_low_engagement_fraction=0.4)

#: The hardened detector's flag threshold on honey telemetry.  Honey
#: devices install exactly one app each, so the co-install graph is
#: definitionally empty; burst evidence alone has to carry the flag.
HONEY_HARDENED_FLAG_THRESHOLD = 1.0

#: How :class:`WildEventBridge` converts offer impressions into install
#: events.  Rates are loosely calibrated to the Section-3 ground truth
#: (most conversions barely engage; workers take many offers; farms
#: exist but are a minority) and sized so bench-scale wild runs produce
#: bursts above the detector's ``min_burst_size``.
CONVERSION_PROBABILITY = 0.7        # impression drives installs
CONVERSIONS_RANGE = (2, 6)
WORKER_REUSE_PROBABILITY = 0.75     # semi-professional workers
FARM_PROBABILITY = 0.25             # pool seeded with a farm
FARM_SIZE = 10
ANCHOR_RANGE = (6.0, 16.0)
BURST_SPREAD_HOURS = 4.0            # inside the 6 h burst window
OPENED_PROBABILITY = 0.8
ENGAGEMENT_RANGE = (20.0, 120.0)
ORGANIC_MAX_PER_PACKAGE = 2
WORKER_COUNTRIES = ("IN", "PH", "ID", "BD")
ORGANIC_COUNTRIES = ("US", "DE", "IN", "BR")

#: How evasive campaigns scatter their install footprint: instead of
#: draining into one tight per-``(package, day)`` anchor burst,
#: conversions split across ``EVASION_SPLIT_BATCHES`` sub-bursts
#: scattered over ``EVASION_SPREAD_HOURS``, a ``COVER_PROBABILITY``
#: slice of workers leaves genuine-looking engagement (above the
#: detector's 180 s line), and extra organic installs are mixed in as
#: cover.  :func:`repro.scenarios.evade_event` shares the cover draw.
EVASION_SPREAD_HOURS = 16.0         # sub-bursts scatter over this span
EVASION_SPLIT_BATCHES = 3           # sub-bursts per (package, day)
EVASION_BATCH_SPREAD_HOURS = 1.5    # width of one sub-burst
COVER_PROBABILITY = 0.55            # workers faking real engagement
COVER_ENGAGEMENT_RANGE = (240.0, 720.0)
ORGANIC_COVER_MULTIPLIER = 3        # extra organic installs per app


def device_event(device: Device, package: str, day: int, hour: float,
                 opened: bool, engagement: float) -> DeviceInstallEvent:
    """One install event as store-side telemetry would report it."""
    return DeviceInstallEvent(
        device_id=device.device_id,
        package=package,
        day=day,
        hour=hour,
        ip_slash24=f"{device.address.anonymized()}/24",
        ssid_hash=sanitize_ssid(device.profile.ssid),
        opened=opened,
        engagement_seconds=engagement if opened else 0.0,
    )


def honey_install_event(device: Device, package: str, day: int,
                        hour: float, opened: bool,
                        engaged_beyond_task: bool,
                        returned_next_day: bool) -> DeviceInstallEvent:
    """Map one honey-campaign install onto the detector's event shape.

    Pure function of the worker outcome — the honey RNG streams are
    byte-frozen, so the adapter must not draw from them.
    """
    engagement = 0.0
    if opened:
        engagement = HONEY_OPEN_SECONDS
        if engaged_beyond_task:
            engagement += HONEY_CLICK_BONUS_SECONDS
        if returned_next_day:
            engagement += HONEY_RETURN_BONUS_SECONDS
    return device_event(device, package, day, hour, opened, engagement)


class LiveDetection:
    """The ``detection=`` hook: bus + online detector + ground truth.

    ``finalize()`` flushes the stream; ``evaluate()`` scores the flagged
    set against the incentivized ground truth the pipelines reported and
    publishes ``detection.precision`` / ``detection.recall`` gauges.
    The ``honey`` source runs under :data:`HONEY_DETECTOR_CONFIG`, every
    other source under the default thresholds.
    """

    def __init__(self, obs: Optional[Observability] = None,
                 source: str = "live") -> None:
        self.obs = obs or NULL_OBS
        self.config = (HONEY_DETECTOR_CONFIG if source == "honey"
                       else DetectorConfig())
        self._open_stream(source)
        self.incentivized: Set[str] = set()

    def _open_stream(self, source: str) -> None:
        """A fresh bus feeding a fresh install log and online detector."""
        self.bus = InstallEventBus(self.obs, source=source)
        self.online = OnlineLockstepDetector(self.config, self.obs)
        self.log = InstallLog()
        self.bus.subscribe(self.log.add)
        self.bus.subscribe(self.online.ingest)

    def publish_batch(self, events: Iterable[DeviceInstallEvent]) -> None:
        """Publish one pipeline batch, sorted into stream order.

        Pipelines call this post-barrier with one day's (or one
        campaign's) events; batches must arrive in non-decreasing time
        order, which both pipelines' day loops guarantee.
        """
        for event in sorted(
                events,
                key=lambda e: (e.timestamp_hours, e.device_id, e.package)):
            self.bus.publish(event)

    def record_incentivized(self, device_ids: Iterable[str]) -> None:
        """Pipelines report which devices took a paid install (the
        simulation's ground-truth labels)."""
        self.incentivized.update(device_ids)

    @property
    def flagged_devices(self) -> Set[str]:
        return self.online.flagged_devices

    def finalize(self) -> Set[str]:
        return self.online.finalize()

    def score(self, flagged: Set[str]) -> DetectionReport:
        """Score any flagged set against this hook's ground truth;
        records nothing.

        Ground truth is intersected with the devices that actually
        produced events — a purchased install whose telemetry never
        surfaced is invisible to any store-side detector and would just
        bias recall with events nobody could have seen.
        """
        universe = set(self.log.devices())
        return evaluate_detector(flagged, self.incentivized & universe,
                                 universe)

    def evaluate(self) -> DetectionReport:
        """Score the online flagged set; publishes the gauge pair."""
        report = self.score(self.online.finalize())
        self.obs.metrics.set_gauge("detection.precision",
                                   round(report.precision, 6))
        self.obs.metrics.set_gauge("detection.recall",
                                   round(report.recall, 6))
        return report

    # -- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """The install log and the ground truth; the bus count and the
        online detector are folds of the log, rebuilt on load."""
        return {
            "log": [event.to_dict() for event in self.log.events()],
            "incentivized": sorted(self.incentivized),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Republish the logged events, in log order, through a fresh
        stream: that rebuilds the log, the online detector (clusters,
        flags and ``version``) and ``events_published`` exactly as the
        checkpointed run built them.  Events go through ``bus.publish``
        as logged, so an evasive hook does not evade them twice.  The
        replay ticks ``detection.*`` counters; the pipeline loads its
        observability snapshot afterwards, which overwrites them."""
        self._open_stream(self.bus.source)
        for item in state["log"]:  # type: ignore[union-attr]
            self.bus.publish(DeviceInstallEvent.from_dict(item))
        self.incentivized = set(state["incentivized"])  # type: ignore[arg-type]


class WildEventBridge(Checkpointed):
    """Turns the milker's offer impressions into install events.

    Call :meth:`on_milk_day` once per milk day with the canonically
    merged offer list; the bridge derives every RNG stream from its own
    seed (never the world's shared streams), so attaching it cannot
    perturb the frozen wild exports, and identical offer lists always
    yield identical events.
    """

    def __init__(self, asn_db: AsnDatabase, seed: int, hook: LiveDetection,
                 evasive: bool = False) -> None:
        self.hook = hook
        self.seed = seed
        #: Whether the population fights back; ``False`` keeps the
        #: naive draw sequence bit-for-bit intact.
        self.evasive = evasive
        self.factory = DeviceFactory(asn_db, derive_rng(seed, "devices"),
                                     namespace="wilddet")
        self._pools: Dict[Tuple[str, str], List[Device]] = {}

    # -- checkpoint/restore ---------------------------------------------------
    #
    # Cross-day state is the factory (id counter + RNG position) and the
    # worker pools (devices with installed-package memories).  Per-day
    # RNG streams are freshly derived, so nothing else persists.

    _STATE = ("factory",)

    def state_dict(self) -> Dict[str, object]:
        state = super().state_dict()
        state["pools"] = {
            join_key(iip, country): [device.to_state() for device in pool]
            for (iip, country), pool in sorted(self._pools.items())}
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        super().load_state(state)
        self._pools = {}
        for key, pool in state["pools"].items():  # type: ignore[union-attr]
            iip, country = split_key(key)
            self._pools[(iip, country)] = [Device.from_state(item)
                                           for item in pool]

    # -- worker pools --------------------------------------------------------

    def _pool(self, iip_name: str, country: str, rng) -> List[Device]:
        key = (iip_name, country)
        pool = self._pools.get(key)
        if pool is None:
            pool = []
            if rng.random() < FARM_PROBABILITY:
                farm = self.factory.farm("PH", size=FARM_SIZE)
                pool.extend(farm.devices)
            self._pools[key] = pool
        return pool

    def _worker(self, pool: List[Device], rng) -> Device:
        if pool and rng.random() < WORKER_REUSE_PROBABILITY:
            return rng.choice(pool)
        fresh = self.factory.real_phone(rng.choice(WORKER_COUNTRIES))
        pool.append(fresh)
        return fresh

    # -- the day hook --------------------------------------------------------

    def on_milk_day(self, day: int, offers: Sequence) -> None:
        """Convert one milk day's impressions; publishes one batch.

        ``offers`` is the day's full :class:`ObservedOffer` list in the
        pipeline's canonical (package, country) merge order — the
        bridge's determinism rests on that ordering, so callers must
        only invoke it post-barrier.
        """
        evasive = self.evasive
        rng = derive_rng(self.seed, "day", day)
        events: List[DeviceInstallEvent] = []
        incentivized: Set[str] = set()
        packages_seen: List[str] = []
        for offer in offers:
            package = offer.package
            if package not in packages_seen:
                packages_seen.append(package)
            if rng.random() >= CONVERSION_PROBABILITY:
                continue
            # Campaign conversions cluster around a per-(package, day)
            # anchor hour regardless of which wall/country surfaced the
            # offer — the lockstep signature the detector hunts.  An
            # evasive campaign scatters them instead: split sub-bursts
            # across most of the day, each narrow but far apart.
            anchor_rng = derive_rng(self.seed, "anchor", package, day)
            if not evasive:
                anchor = anchor_rng.uniform(*ANCHOR_RANGE)
            else:
                scatter_start = anchor_rng.uniform(
                    0.0, max(0.1, 23.0 - EVASION_SPREAD_HOURS))
                sub_anchors = sorted(
                    scatter_start + anchor_rng.uniform(
                        0.0, EVASION_SPREAD_HOURS)
                    for _ in range(EVASION_SPLIT_BATCHES))
            pool = self._pool(offer.iip_name, offer.country or "anon", rng)
            for _ in range(rng.randint(*CONVERSIONS_RANGE)):
                device = self._worker(pool, rng)
                if device.has_installed(package):
                    continue
                device.install(package)
                if not evasive:
                    hour = anchor + rng.uniform(0.0, BURST_SPREAD_HOURS)
                    opened = rng.random() < OPENED_PROBABILITY
                    engagement = rng.uniform(*ENGAGEMENT_RANGE)
                else:
                    batch = rng.randrange(len(sub_anchors))
                    hour = (sub_anchors[batch]
                            + rng.uniform(0.0, EVASION_BATCH_SPREAD_HOURS))
                    opened = rng.random() < OPENED_PROBABILITY
                    engagement = rng.uniform(*ENGAGEMENT_RANGE)
                    if rng.random() < COVER_PROBABILITY:
                        # Cover traffic: the worker plays the app past
                        # the detector's low-engagement line.
                        opened = True
                        engagement = rng.uniform(*COVER_ENGAGEMENT_RANGE)
                hour = min(23.999, hour)
                events.append(device_event(device, package, day, hour,
                                           opened, engagement))
                incentivized.add(device.device_id)
        # Sparse organic installs of the same advertised apps: fresh
        # devices, any hour, genuine engagement — the background the
        # detector must not flag.  Evasive campaigns buy extra organic
        # cover (burst-blurring installs from real-looking devices).
        organic_cap = ORGANIC_MAX_PER_PACKAGE
        if evasive:
            organic_cap *= ORGANIC_COVER_MULTIPLIER
        for package in packages_seen:
            for _ in range(rng.randint(0, organic_cap)):
                device = self.factory.real_phone(
                    rng.choice(ORGANIC_COUNTRIES))
                device.install(package)
                hour = min(23.999, rng.uniform(0.0, 24.0))
                opened = rng.random() < 0.95
                engagement = rng.expovariate(1 / 600.0)
                events.append(device_event(device, package, day, hour,
                                           opened, engagement))
        self.hook.record_incentivized(incentivized)
        self.hook.publish_batch(events)
