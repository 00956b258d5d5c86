"""The Section-4 pipeline: milk the walls, crawl the store, analyse.

Day loop (day 0 = 2019-03-01):

1. the scenario animates the world (organic installs, campaign
   delivery, enforcement);
2. on milk days, the milker drives each instrumented affiliate app
   through the mitm proxy from a rotating subset of VPN exit
   countries, new offers land in the dataset, and the crawler captures
   each observed offer's Play listing at impression time;
3. on crawl days, the crawler scrapes top charts plus the profile of
   every baseline app and every advertised app *discovered so far*.

After the loop, APKs of all observed + baseline apps are scanned and
the October Crunchbase snapshot is taken.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.affiliates.registry import AFFILIATE_SPECS
from repro.analysis.streams import SpillableLog
from repro.checkpointed import Checkpointed
from repro.crunchbase.database import CrunchbaseSnapshot
from repro.detection.live import LiveDetection, WildEventBridge
from repro.iip.registry import UNVETTED_IIPS, VETTED_IIPS
from repro.monitor.crawler import CrawlArchive, PlayStoreCrawler
from repro.monitor.dataset import (
    OfferDataset,
    observed_offer_from_state,
    observed_offer_to_state,
)
from repro.monitor.milker import Milker, MilkRun
from repro.net.client import CircuitBreaker, RetryPolicy
from repro.net.ip import MILKER_COUNTRIES
from repro.obs import Observability
from repro.obs.metrics import declare_stage_histograms
from repro.parallel import ShardScheduler
from repro.playstore.frontend import PLAY_HOST
from repro.simulation import paperdata
from repro.simulation.scenarios import WildScenario
from repro.simulation.world import World
from repro.staticanalysis.libradar import LibRadarDetector

#: The op-cost histogram per pipeline stage.
STAGE_HISTOGRAMS: Tuple[str, ...] = (
    "wild.milk_ops", "wild.crawl_ops", "wild.analyse_ops")

#: The offer walls are milked every other day, from this many VPN exit
#: countries per milk day, rotating through ``MILKER_COUNTRIES``.
MILK_CADENCE_DAYS = 2
COUNTRIES_PER_MILK_DAY = 2
#: The baseline apps' comparison window: one average campaign from day 0.
BASELINE_WINDOW: Tuple[int, int] = (
    0, paperdata.AVERAGE_CAMPAIGN_DURATION_DAYS)


@dataclass(frozen=True)
class WildMeasurementConfig:
    measurement_days: int = paperdata.WILD_MEASUREMENT_DAYS
    #: Streaming mode: when positive, analysis folds run over columnar
    #: chunks of at most this many rows and the raw observation log and
    #: the crawl archive's profiles spill to disk — peak RSS stops
    #: growing with ``scale x days`` while every export stays
    #: byte-identical to the materialised (0) mode.
    batch_devices: int = 0
    #: Where streaming mode spills (a directory); ``None`` uses a fresh
    #: temporary directory, removed at interpreter exit.  A resumed
    #: streaming run must point at the crashed run's spill directory.
    spill_dir: Optional[str] = None


@dataclass(frozen=True)
class CoverageLossSummary:
    """What the measurement lost to infrastructure failures.

    Every field is sourced from ``repro.obs`` counters recorded by the
    fabric, the HTTP client, the proxies, and the monitor — not from
    hand-rolled bookkeeping — so the summary is exactly as deterministic
    as the metrics export.
    """

    faults_injected: int = 0       # fabric connect faults raised
    frames_corrupted: int = 0      # wire-level truncations
    server_faults: int = 0         # injected 429/5xx + corrupted bodies
    retries: int = 0               # client re-attempts
    gave_up: int = 0               # requests that exhausted the policy
    proxy_refusals: int = 0        # CONNECTs answered with an error
    walls_lost: int = 0            # per-run offer walls never milked
    partial_milk_runs: int = 0     # milk runs that lost >= 1 wall
    corrupt_wall_responses: int = 0
    crawl_failures: int = 0        # profile/chart fetches that failed
    crawl_retries_queued: int = 0  # profile fetches carried to next visit
    crawl_retries_recovered: int = 0

    @property
    def faults_survived(self) -> int:
        """Injected faults the pipeline absorbed without losing the run
        (everything it saw minus the requests it abandoned)."""
        total = (self.faults_injected + self.frames_corrupted
                 + self.server_faults)
        return max(0, total - self.gave_up)

    @property
    def crawl_gaps(self) -> int:
        """Profile fetches that stayed missing after the retry queue."""
        return max(0, self.crawl_retries_queued - self.crawl_retries_recovered)

    def summary_lines(self) -> List[str]:
        return [
            f"faults injected: {self.faults_injected} connect, "
            f"{self.server_faults} http, {self.frames_corrupted} wire",
            f"survived: {self.faults_survived} "
            f"(retries {self.retries}, gave up {self.gave_up})",
            f"coverage loss: {self.walls_lost} wall fetches "
            f"({self.partial_milk_runs} partial milk runs, "
            f"{self.corrupt_wall_responses} corrupt wall responses)",
            f"crawl: {self.crawl_failures} failures, "
            f"{self.crawl_retries_recovered}/{self.crawl_retries_queued} "
            f"retried profiles recovered, {self.crawl_gaps} gaps",
        ]


@dataclass
class WildResults:
    """Everything the analysis stage consumes."""

    dataset: OfferDataset
    #: Every raw ObservedOffer, pre-dedup (the ablations re-scan it).
    #: An iterable — a plain list in materialised mode, a disk-backed
    #: :class:`repro.analysis.streams.SpillableLog` in streaming mode
    #: (re-iterable; each pass replays the spill file).
    observations: object
    archive: CrawlArchive
    apk_scan: Dict[str, int]
    snapshot: CrunchbaseSnapshot
    baseline_packages: List[str]
    baseline_window: Tuple[int, int]
    milk_runs: int = 0
    milk_errors: List[str] = field(default_factory=list)
    crawl_requests: int = 0
    coverage_loss: CoverageLossSummary = field(
        default_factory=CoverageLossSummary)

    def vetted_packages(self) -> List[str]:
        return sorted({record.package for record in self.dataset.offers()
                       if record.iip_name in VETTED_IIPS})

    def unvetted_packages(self) -> List[str]:
        return sorted({record.package for record in self.dataset.offers()
                       if record.iip_name in UNVETTED_IIPS})

    def advertised_packages(self) -> List[str]:
        return self.dataset.unique_packages()


class WildMeasurement(Checkpointed):
    """Owns the measurement infrastructure and runs the day loop.

    The milk and crawl phases run as task specs through
    :class:`ShardScheduler`, serially and in input order.  Milking is
    keyed by VPN country: each country gets its own *cell* (mitm proxy,
    milker RNG stream, circuit breaker), each run opens its own TLS
    sessions, and the shared phone trusts every cell's CA.  Milk results
    and their per-run observability contexts are merged back in
    canonical ``(app, country)`` order; the crawler fetches in queue
    order on its own client — see DESIGN.md.
    """

    _STATE = ("phone", "_milk_runs", "_milk_errors", "dataset",
              "_observations", "crawler", "cells", "detection",
              "_detection_bridge")
    #: Live detection hook; when set, each milk day's merged offer
    #: stream is bridged into install events.  The bridge derives its
    #: RNG from its own seed stream, so attaching it never perturbs the
    #: milk/crawl exports.  A resume needs the hook iff the checkpoint
    #: has one.
    detection: Optional[LiveDetection]
    _detection_bridge: Optional[WildEventBridge]

    def __init__(self, world: World, scenario: WildScenario,
                 config: Optional[WildMeasurementConfig] = None,
                 detection: Optional[LiveDetection] = None) -> None:
        self.world = world
        self.scenario = scenario
        self.config = config or WildMeasurementConfig()
        self.detection = detection
        self._detection_bridge = None
        if detection is not None:
            self._detection_bridge = WildEventBridge(
                world.fabric.asn_db,
                world.seeds.seed_for("detection-bridge"), detection,
                evasive=scenario.config.scenario.evasive)
        # Resilience for both measurement clients: the paper's milkers
        # and crawler retried flaky fetches rather than losing the day.
        self.retry_policy = RetryPolicy()
        # One milk cell per country: the mitm proxy and breaker are
        # per-country mutable state, so two countries' runs share
        # nothing but the fabric.  Each breaker runs on its own internal
        # call counter, and a country's runs always execute in the same
        # order, so recovery windows do not depend on the other cells.
        phone_trust = world.device_trust_store()
        self.cells: Dict[str, Milker] = {}
        mitms = {}
        for country in MILKER_COUNTRIES:
            mitm = world.build_mitm(
                hostname=f"mitm-{country.lower()}.lab.example")
            phone_trust.add_root(mitm.ca_certificate())
            mitms[country] = mitm
        self.phone = world.device_factory.real_phone(
            "US", trust_store=phone_trust)
        for country, mitm in mitms.items():
            self.cells[country] = Milker(
                world.fabric, self.phone, mitm, world.walls,
                world.seeds.rng(f"milker:{country}"), vpn=world.vpn,
                obs=world.obs, retry_policy=self.retry_policy,
                breaker=CircuitBreaker(obs=world.obs))
        streaming = self.config.batch_devices > 0
        self.spill_root: Optional[str] = None
        if streaming:
            self.spill_root = self.config.spill_dir
            if not self.spill_root:
                self.spill_root = tempfile.mkdtemp(prefix="repro-spill-")
                # Removed at exit, not earlier: the results' observation
                # log and archive re-read their spill files after run().
                atexit.register(shutil.rmtree, self.spill_root,
                                ignore_errors=True)
        self.dataset = OfferDataset(AFFILIATE_SPECS, obs=world.obs,
                                    batch_rows=self.config.batch_devices)
        archive = CrawlArchive(
            spill_path=(os.path.join(self.spill_root, "profiles.jsonl")
                        if streaming else None))
        # Every charted app's profile is crawled too: the paper archived
        # the top-chart apps alongside the tracked set.
        self.crawler = PlayStoreCrawler(
            world.measurement_client(retry_policy=self.retry_policy),
            PLAY_HOST,
            archive=archive,
            obs=world.obs,
            crawl_chart_profiles=True)
        self._milk_errors: List[str] = []
        self._milk_runs = 0
        self._observations = SpillableLog(
            encode=observed_offer_to_state,
            decode=observed_offer_from_state,
            spill_path=(os.path.join(self.spill_root, "observations.jsonl")
                        if streaming else None))
        declare_stage_histograms(world.obs.metrics, STAGE_HISTOGRAMS)

    # -- day loop ------------------------------------------------------------

    def run(self, recovery=None) -> WildResults:
        """Run the day loop; ``recovery`` (a
        :class:`repro.recovery.RecoveryContext`) arms per-day
        checkpointing, crash injection, and resume.

        Resume contract: the constructor and the scenario are
        deterministic functions of the world seed, so a resumed process
        rebuilds the world by replaying the scenario days the original
        run completed (wire-free — the scenario never touches
        measurement or network state), then restores every mutable
        measurement surface from the checkpoint, observability last.
        From that barrier the remaining days execute the exact
        operation sequence of an uninterrupted run, which is why the
        final report, metrics export, and flagged set are byte-identical
        (``tests/recovery/`` enforces it).
        """
        config = self.config
        tracer = self.world.obs.tracer
        start_day = 0
        adopted_span = None
        if recovery is not None and recovery.resume:
            loaded = recovery.store.latest()
            if loaded is not None:
                day, state = loaded
                start_day = day + 1
                for replay_day in range(start_day):
                    self.scenario.run_day(replay_day)
                    self.world.clock.advance()
                active = state["obs"]["tracer"]["active"]
                adopted_span = active[0] if active else None
                recovery.restore(day, self._checkpoint_roots(), state)
        run_span = (tracer.adopt(adopted_span) if adopted_span is not None
                    else tracer.span("wild.run",
                                     days=config.measurement_days))
        return self._run_days(run_span, start_day, recovery)

    def _run_days(self, run_span, start_day: int, recovery) -> WildResults:
        config = self.config
        tracer = self.world.obs.tracer
        metrics = self.world.obs.metrics
        with run_span:
            for day in range(start_day, config.measurement_days):
                if recovery is not None:
                    recovery.crash_point("wild.day", day)
                with tracer.span("wild.scenario", day=day):
                    self.scenario.run_day(day)
                if day % MILK_CADENCE_DAYS == 0:
                    if recovery is not None:
                        recovery.crash_point("wild.milk", day)
                    with tracer.span("wild.milk", day=day) as span:
                        self._milk(day)
                    metrics.observe("wild.milk_ops", span.duration_ops)
                if self.crawler.should_crawl(day):
                    if recovery is not None:
                        recovery.crash_point("wild.crawl", day)
                    tracked = (self.scenario.baseline_packages()
                               + self.dataset.unique_packages())
                    with tracer.span("wild.crawl", day=day) as span:
                        self.crawler.crawl_everything(tracked, day=day)
                    metrics.observe("wild.crawl_ops", span.duration_ops)
                metrics.inc("core.wild.days")
                self.world.clock.advance()
                if recovery is not None:
                    recovery.checkpoint(day, self._checkpoint_roots())
            with tracer.span("wild.finalize"):
                results = self._finalize()
        metrics.set_gauge("core.wild.dataset_offers",
                          self.dataset.offer_count())
        metrics.set_gauge("core.wild.advertised_packages",
                          len(self.dataset.unique_packages()))
        return results

    # -- checkpoint/restore ---------------------------------------------------

    def _checkpoint_roots(self) -> Dict[str, object]:
        """Everything mutable the measurement tier owns or shares with
        the wire, in restore order.  Scenario and store state are
        deliberately absent: resume rebuilds them by deterministic
        replay.  Observability comes last, so its snapshot overwrites
        the counters the detection hook's log replay ticks."""
        world = self.world
        return {
            "wild": self,
            "frontend": world.frontend,
            # Every wall's server shares this RNG: the walls' one fact.
            "wall_rng": world.wall_rng,
            "fault_plan": world.fabric.chaos,
            "root_ca": world.root_ca,
            "device_factory": world.device_factory,
            "obs": world.obs,
        }

    def _countries_for(self, day: int) -> Sequence[str]:
        start = day // MILK_CADENCE_DAYS * COUNTRIES_PER_MILK_DAY
        return [MILKER_COUNTRIES[(start + i) % len(MILKER_COUNTRIES)]
                for i in range(COUNTRIES_PER_MILK_DAY)]

    def run_milk_payload(self, payload) -> Tuple[MilkRun, Observability]:
        """Execute one ``("milk", day, country, package)`` spec payload:
        a milk run with its own observability context; the cell's
        mitm/breaker/RNG are touched by no other country."""
        _kind, day, country, package = payload
        cell = self.cells[country]
        spec = AFFILIATE_SPECS[package]
        task_obs = Observability(clock=self.world.clock.now)
        run = cell.milk(spec, day, country=country, obs=task_obs)
        return run, task_obs

    def _milk(self, day: int) -> None:
        """Milk every (app, country) pair for the day, keyed by
        country, then merge results in canonical (app, country) order so
        the dataset and the obs export never depend on task order."""
        pairs = [(country, spec)
                 for country in self._countries_for(day)
                 for spec in AFFILIATE_SPECS.values()]
        specs = [(country, ("milk", day, country, spec.package))
                 for country, spec in pairs]
        results = ShardScheduler.run_specs(specs, self.run_milk_payload)
        merged = sorted(
            zip(pairs, results),
            key=lambda item: (item[0][1].package, item[0][0]))
        impressions: List[str] = []
        day_offers: List = []
        for (_country, _spec), (run, task_obs) in merged:
            self.world.obs.merge(task_obs)
            self._milk_runs += 1
            self._milk_errors.extend(run.errors)
            self._observations.extend(run.offers)
            self.dataset.ingest_all(run.offers)
            impressions.extend(offer.package for offer in run.offers)
            day_offers.extend(run.offers)
        if self._detection_bridge is not None:
            # After the merge, in canonical order: the bridge sees the
            # same impression stream whatever order the tasks ran in.
            self._detection_bridge.on_milk_day(day, day_offers)
        # Pin each impression's store page at observation time (the
        # paper pinned installs/price as offers were seen); the
        # impression stream is in canonical merged order, so the
        # capture — and its cache hits — never depend on task order.
        self.crawler.capture_offer_pages(impressions, day=day)

    def _coverage_loss(self) -> CoverageLossSummary:
        """Roll the obs counters up into the coverage-loss summary."""
        metrics = self.world.obs.metrics
        total = metrics.counter_total
        return CoverageLossSummary(
            faults_injected=int(total("net.fabric.faults_raised")),
            frames_corrupted=int(total("net.fabric.frames_corrupted")),
            server_faults=int(total("net.server.chaos_errors")
                              + total("net.server.chaos_corrupted")),
            retries=int(total("net.client.retries")
                        + total("net.client.retried_statuses")),
            gave_up=int(total("net.client.gave_up")),
            proxy_refusals=int(total("net.client.proxy_refusals")),
            walls_lost=int(total("monitor.walls_lost")),
            partial_milk_runs=int(total("monitor.milk_partial")),
            corrupt_wall_responses=int(
                total("monitor.corrupt_wall_responses")),
            crawl_failures=int(total("monitor.crawl_failures")),
            crawl_retries_queued=int(total("monitor.crawl_retry_queued")),
            crawl_retries_recovered=int(
                total("monitor.crawl_retry_recovered")),
        )

    def _finalize(self) -> WildResults:
        """Post-loop analysis prep, one observed span per stage so
        ``wild.analyse_ops`` histograms real per-stage op costs (APK
        scanning dominates; the frame build and snapshot are the tail).
        Pure-computation stages advance the op clock by their unit-of-
        work count — packages scanned, snapshot rows, frame records,
        counters rolled up — so the histogram reflects work done, not
        just the span-boundary ticks."""
        tracer = self.world.obs.tracer
        metrics = self.world.obs.metrics
        ops = self.world.obs.ops
        with tracer.span("wild.finalize.apk_scan") as span:
            detector = LibRadarDetector()
            scan: Dict[str, int] = {}
            for package in (self.dataset.unique_packages()
                            + self.scenario.baseline_packages()):
                apk = self.world.apks.get(package)
                if apk is not None:
                    scan[package] = detector.unique_ad_library_count(apk)
                ops.advance(1)
        metrics.observe("wild.analyse_ops", span.duration_ops)
        with tracer.span("wild.finalize.snapshot") as span:
            snapshot = self.world.crunchbase.snapshot(
                paperdata.CRUNCHBASE_SNAPSHOT_DAY)
            ops.advance(len(snapshot.organizations()))
        metrics.observe("wild.analyse_ops", span.duration_ops)
        with tracer.span("wild.finalize.frame") as span:
            # One op per frame record, in both modes: the histogram and
            # every downstream op offset do not depend on batching.
            ops.advance(self.dataset.offer_count())
        metrics.observe("wild.analyse_ops", span.duration_ops)
        with tracer.span("wild.finalize.coverage") as span:
            coverage = self._coverage_loss()
            ops.advance(len(CoverageLossSummary.__dataclass_fields__))
        metrics.observe("wild.analyse_ops", span.duration_ops)
        return WildResults(
            dataset=self.dataset,
            observations=self._observations,
            archive=self.crawler.archive,
            apk_scan=scan,
            snapshot=snapshot,
            baseline_packages=self.scenario.baseline_packages(),
            baseline_window=BASELINE_WINDOW,
            milk_runs=self._milk_runs,
            milk_errors=self._milk_errors,
            crawl_requests=self.crawler.requests_made,
            coverage_loss=coverage,
        )
