"""The Section-3 pipeline: purchase installs for the honey app.

Publishes the instrumented voice-memo app on the simulated Play Store,
registers as a developer with one vetted IIP (Fyber) and two unvetted
ones (ayeT-Studios, RankApp), purchases 500 no-activity installs from
each in non-overlapping windows, and lets the sampled crowd-worker
populations work the offers.  Every open/click travels as real HTTPS
telemetry to the collection server; the analysis then joins telemetry
with developer-console analytics exactly as the paper does.

The three campaigns run one at a time in ``_CAMPAIGN_ORDER``, the
order of their non-overlapping windows.  Each campaign owns a *cell* —
its derived RNG streams, its namespaced :class:`PopulationBuilder`, and
its TLS session cache — plus a task-local observability context; a
campaign runs, then merges into the world, then (in recovery mode)
checkpoints, before the next one starts.  That one schedule is why a
plain run, a recovery-mode run, and a crash+resume run are
byte-identical at the same seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.affiliates.registry import ALL_AFFILIATE_PACKAGES
from repro.checkpointed import Checkpointed
from repro.detection.events import DeviceInstallEvent
from repro.detection.live import LiveDetection, honey_install_event
from repro.honeyapp.analysis import CampaignWindow, HoneyExperimentAnalysis
from repro.honeyapp.app import HONEY_PACKAGE, HONEY_TITLE, HoneyApp
from repro.iip.mediator import FEE_PER_USER_USD
from repro.iip.offers import OfferCategory, tasks_for
from repro.iip.platform import DeveloperCredentials
from repro.net.client import TlsSessionCache
from repro.obs import Observability
from repro.obs.metrics import declare_stage_histograms
from repro.parallel import derive_rng
from repro.playstore.catalog import AppListing, Developer
from repro.playstore.ledger import InstallSource
from repro.playstore.policy import CampaignSignals
from repro.simulation import paperdata
from repro.simulation.world import World
from repro.users.population import IIPUserMix, PopulationBuilder
from repro.users.worker import WorkerBehavior

HONEY_DEVELOPER_ID = "dev-honey-research"

#: Per-IIP delivery plans: (start day, payout, user mix).
_CAMPAIGN_ORDER = ("Fyber", "ayeT-Studios", "RankApp")
_START_DAYS = {"Fyber": 2, "ayeT-Studios": 8, "RankApp": 14}
_WINDOW_DAYS = {"Fyber": 4, "ayeT-Studios": 4, "RankApp": 5}
_PAYOUTS = {"Fyber": 0.10, "ayeT-Studios": 0.05, "RankApp": 0.02}

#: The op-cost histogram per pipeline stage.
STAGE_HISTOGRAMS: Tuple[str, ...] = ("honey.campaign_ops", "honey.analysis_ops")


def _campaign_slug(iip_name: str) -> str:
    """A lowercase id-safe namespace for one campaign cell."""
    return "".join(ch if ch.isalnum() or ch == "-" else "-"
                   for ch in iip_name.lower())


def _delivered(iip_name: str, purchased: int) -> int:
    """Installs an IIP delivers for ``purchased`` (the paper's ratio)."""
    return round(purchased * paperdata.HONEY_DELIVERED[iip_name]
                 / paperdata.HONEY_INSTALLS_PURCHASED)


def _supported(purchased: int) -> bool:
    """Whether every campaign gets a valid user mix.  The mix spreads
    the paper's absolute Section-3 counts (emulators, the farm,
    day-after clicks) over the delivered installs, so a purchase too
    small to hold them has none; every larger purchase has one."""
    try:
        for iip_name in _CAMPAIGN_ORDER:
            _mix_for(iip_name, _delivered(iip_name, purchased))
    except ValueError:
        return False
    return True


def _mix_for(iip_name: str, delivered: int) -> IIPUserMix:
    """Behaviour/device mixture calibrated from Section 3's findings."""
    if delivered <= 0:
        raise ValueError("mix requires at least one delivered install")
    click_rate = paperdata.HONEY_CLICK_RATE[iip_name]
    open_rate = 1.0 - paperdata.HONEY_MISSING_TELEMETRY[iip_name]
    behavior = WorkerBehavior(
        open_probability=open_rate,
        engage_probability=min(1.0, click_rate / open_rate),
        next_day_return_probability=(
            paperdata.HONEY_DAY_AFTER_CLICKS[iip_name] / delivered),
        abandon_activity_probability=0.05,
    )
    flagship, flagship_share = paperdata.HONEY_FLAGSHIP_AFFILIATE[iip_name]
    emulators = paperdata.HONEY_EMULATORS.get(iip_name, 0)
    cloud = paperdata.HONEY_CLOUD_ASN.get(iip_name, 0)
    farm_fraction = (paperdata.HONEY_FARM_SIZE / delivered
                     if iip_name == "ayeT-Studios" else 0.0)
    return IIPUserMix(
        iip_name=iip_name,
        behavior=behavior,
        emulator_fraction=emulators / delivered,
        cloud_phone_fraction=cloud / delivered,
        farm_fraction=farm_fraction,
        farm_size=paperdata.HONEY_FARM_SIZE,
        farm_rooted_fraction=paperdata.HONEY_FARM_ROOTED / paperdata.HONEY_FARM_SIZE,
        affiliate_app_probability=paperdata.HONEY_AFFILIATE_KEYWORD_RATE[iip_name],
        flagship_affiliate=flagship,
        flagship_share=flagship_share,
    )


@dataclass
class HoneyCampaignRecord:
    iip_name: str
    campaign_id: str
    window: CampaignWindow
    purchased: int
    delivered: int
    completions_paid: int
    total_cost_usd: float


class _CampaignCell:
    """Everything mutable that exactly one campaign touches.

    RNG streams are derived from ``(campaign seed, slug, part)`` rather
    than drawn from a shared sequence, so a campaign's behaviour, its
    population, and its TLS handshake bytes depend only on its own key
    — never on which other campaigns ran first or concurrently.  The
    TLS stream is split from the behaviour stream because the number
    of handshake draws varies with the transport — chaos faults drop
    cached sessions and force fresh handshakes — and that must not
    perturb worker behaviour.
    """

    def __init__(self, world: World, iip_name: str) -> None:
        self.iip_name = iip_name
        slug = _campaign_slug(iip_name)
        base = world.seeds.seed_for("honey-campaign")
        self.rng = derive_rng(base, slug, "behavior")
        self.tls_rng = derive_rng(base, slug, "tls")
        self.population = PopulationBuilder(
            world.fabric.asn_db, derive_rng(base, slug, "population"),
            affiliate_catalog=ALL_AFFILIATE_PACKAGES, namespace=slug)
        #: Repeat telemetry uploads resume the TLS session instead of
        #: paying the handshake round trips again.
        self.sessions = TlsSessionCache()


@dataclass
class HoneyExperimentResults:
    analysis: HoneyExperimentAnalysis
    campaigns: List[HoneyCampaignRecord]
    displayed_installs_before: int
    displayed_installs_after: int
    enforcement_actions: int
    mean_cost_per_install: float

    def total_installs(self) -> int:
        return self.analysis.total_installs()


class HoneyAppExperiment(Checkpointed):
    """Runs the whole Section-3 experiment inside a world."""

    #: The finished campaigns' records, and each campaign's install
    #: (day, hour) stamps by campaign id.
    _STATE = ("_records", "_install_days")
    _records: List[HoneyCampaignRecord]
    _install_days: Dict[str, List[Tuple[int, float]]]
    _TRANSIENT = {
        "_cells": "a cell is touched only by its own campaign: a "
                  "finished campaign's cell is never read again, and an "
                  "unfinished one is still in its post-construction "
                  "state on resume",
    }

    def __init__(self, world: World,
                 installs_per_iip: int = paperdata.HONEY_INSTALLS_PURCHASED,
                 detection: Optional[LiveDetection] = None,
                 ) -> None:
        if installs_per_iip and not _supported(installs_per_iip):
            smallest = next(n for n in itertools.count(1) if _supported(n))
            raise ValueError(
                f"cannot purchase {installs_per_iip} installs per IIP: the "
                f"smallest supported purchase is {smallest} (or 0 for a "
                f"dry run)")
        self.world = world
        self.installs_per_iip = installs_per_iip
        #: Live detection hook; when set, every delivered install also
        #: becomes a DeviceInstallEvent (published after its campaign
        #: finishes, with its ground-truth label).  The adapter is
        #: RNG-free, so attaching it never perturbs the campaign runs.
        self.detection = detection
        self._cells = {iip_name: _CampaignCell(world, iip_name)
                       for iip_name in _CAMPAIGN_ORDER}
        self._records = []
        self._install_days = {}
        declare_stage_histograms(world.obs.metrics, STAGE_HISTOGRAMS)
        self._publish_listing()

    def _publish_listing(self) -> None:
        developer = Developer(
            developer_id=HONEY_DEVELOPER_ID,
            name="Honey Research Labs",
            country="US",
            website="https://research.example",
        )
        self.world.store.publish(AppListing(
            package=HONEY_PACKAGE, title=HONEY_TITLE, genre="Tools",
            developer=developer, release_day=0))

    # ------------------------------------------------------------------

    def run(self, recovery=None) -> HoneyExperimentResults:
        """Run the campaigns; ``recovery`` (a
        :class:`repro.recovery.RecoveryContext`) arms per-campaign
        checkpointing, crash injection, and resume.

        Each campaign runs, merges, and (with recovery) checkpoints
        before the next one starts, so every checkpoint is quiescent:
        it contains exactly the finished campaigns' effects and nothing
        from campaigns still to run.  Recovery adds no work to that
        schedule, so a plain run, a recovery-mode run, and a
        crash+resume run are byte-identical.  Resume restores the
        checkpoint roots (:meth:`_checkpoint_roots`: the accumulated
        per-campaign outcomes, the IIP platforms, the shared ledgers,
        the telemetry collector, and observability last), then runs
        only the remaining campaigns: cells derive their RNG streams
        from their own keys, so skipping finished campaigns cannot
        perturb the rest.
        """
        store = self.world.store
        tracer = self.world.obs.tracer
        self._records, self._install_days = [], {}
        start_index = 0
        adopted_span = None
        if recovery is not None and recovery.resume:
            loaded = recovery.store.latest()
            if loaded is not None:
                cursor, state = loaded
                start_index = cursor + 1
                active = state["obs"]["tracer"]["active"]
                adopted_span = active[0] if active else None
                recovery.restore(cursor, self._checkpoint_roots(), state)
        before = store.displayed_installs(HONEY_PACKAGE, 0)
        run_span = (tracer.adopt(adopted_span) if adopted_span is not None
                    else tracer.span("honey.run"))
        return self._run_campaigns(run_span, start_index, recovery, before)

    def _run_campaigns(self, run_span, start_index: int, recovery,
                       before: int) -> HoneyExperimentResults:
        store = self.world.store
        tracer = self.world.obs.tracer
        metrics = self.world.obs.metrics
        records = self._records
        with run_span:
            for index in range(start_index, len(_CAMPAIGN_ORDER)):
                iip_name = _CAMPAIGN_ORDER[index]
                if recovery is not None:
                    recovery.crash_point("honey.campaign", index)
                outcome, task_obs = self.run_campaign_payload(iip_name)
                self.world.obs.merge(task_obs)
                self._merge_outcome(iip_name, outcome)
                if recovery is not None:
                    recovery.checkpoint(index, self._checkpoint_roots())
            windows = [record.window for record in records]
            last_day = max(w.end_day for w in windows) + 1
            after = store.displayed_installs(HONEY_PACKAGE, last_day + 30)
            # The developer console's install count per campaign.
            console_installs = {record.campaign_id: record.delivered
                                for record in records}
            with tracer.span("honey.analysis") as span:
                analysis = HoneyExperimentAnalysis(
                    windows, self.world.telemetry, console_installs,
                    self._install_days)
            metrics.observe("honey.analysis_ops", span.duration_ops)
        total_cost = sum(record.total_cost_usd for record in records)
        total_installs = sum(record.delivered for record in records)
        return HoneyExperimentResults(
            analysis=analysis,
            campaigns=records,
            displayed_installs_before=before,
            displayed_installs_after=after,
            enforcement_actions=len(store.enforcement.actions_for(HONEY_PACKAGE)),
            mean_cost_per_install=(total_cost / total_installs
                                   if total_installs else 0.0),
        )

    def _merge_outcome(self, iip_name: str, outcome) -> None:
        """Fold one finished campaign into the world: publish its
        install events and roll up its metrics.  The caller has already
        merged the campaign's task obs."""
        metrics = self.world.obs.metrics
        record, timestamps, events, campaign_ops = outcome
        if self.detection is not None:
            # Campaign windows don't overlap and campaigns run in
            # window order, so the stream stays time-ordered.
            self.detection.record_incentivized(
                event.device_id for event in events)
            self.detection.publish_batch(events)
        metrics.observe("honey.campaign_ops", campaign_ops)
        metrics.inc("core.honey.installs_delivered",
                    record.delivered, iip=iip_name)
        metrics.inc("core.honey.completions_paid",
                    record.completions_paid, iip=iip_name)
        self._records.append(record)
        self._install_days[record.campaign_id] = timestamps

    # -- checkpoint/restore ---------------------------------------------------

    def _checkpoint_roots(self) -> Dict[str, object]:
        """The shared surfaces the finished campaigns wrote plus their
        outcomes, in restore order, observability last (see the wild
        pipeline).  Campaign cells are absent (see ``_TRANSIENT``), and
        so are the campaign windows and console install counts: each is
        a field of its campaign's record."""
        world = self.world
        return {
            "honey": self,
            "platforms": world.platforms,
            "root_ca": world.root_ca,
            "ledger": world.store.ledger,
            "enforcement": world.store.enforcement,
            "telemetry": world.telemetry,
            "money": world.money,
            "mediator": world.mediator,
            "fault_plan": world.fabric.chaos,
            "detection": self.detection,
            "obs": world.obs,
        }

    # ------------------------------------------------------------------

    def run_campaign_payload(self, iip_name: str
                             ) -> Tuple[Tuple, Observability]:
        """Run one IIP's campaign: a self-contained run with its own
        cell and observability context.

        Returns ``((record, timestamps, events, campaign_ops),
        task_obs)``; the caller merges the task obs."""
        cell = self._cells[iip_name]
        task_obs = Observability(clock=self.world.clock.now)
        with task_obs.tracer.span("honey.campaign", iip=iip_name) as span:
            record, timestamps, events = self._run_campaign(
                iip_name, cell, task_obs)
        return (record, timestamps, events, span.duration_ops), task_obs

    def _run_campaign(self, iip_name: str, cell: _CampaignCell,
                      task_obs: Observability
                      ) -> Tuple[HoneyCampaignRecord, List[Tuple[int, float]],
                                 List[DeviceInstallEvent]]:
        world = self.world
        rng = cell.rng
        platform = world.platforms[iip_name]
        start_day = _START_DAYS[iip_name]
        end_day = start_day + _WINDOW_DAYS[iip_name] - 1
        payout = _PAYOUTS[iip_name]
        purchased = self.installs_per_iip
        platform.register_developer(DeveloperCredentials(
            developer_id=HONEY_DEVELOPER_ID, tax_id="TAX-RESEARCH",
            bank_account="IBAN-RESEARCH"))
        cost = (payout * (1 + platform.config.advertiser_markup)
                + FEE_PER_USER_USD)
        budget = max(cost * purchased * 1.5, platform.config.min_deposit_usd * 1.2)
        world.money.mint(HONEY_DEVELOPER_ID, budget, day=start_day,
                         memo=f"honey campaign on {iip_name}")
        campaign = platform.create_campaign(
            developer_id=HONEY_DEVELOPER_ID,
            package=HONEY_PACKAGE,
            app_title=HONEY_TITLE,
            description="Install and Launch",
            payout_usd=payout,
            category=OfferCategory.NO_ACTIVITY,
            activity_kind=None,
            tasks=tasks_for(OfferCategory.NO_ACTIVITY, None),
            installs=purchased,
            start_day=start_day,
            end_day=end_day,
        )
        platform.launch(campaign.campaign_id, start_day)

        delivered = _delivered(iip_name, purchased)
        delivery_hours = paperdata.HONEY_DELIVERY_HOURS[iip_name]
        affiliate = platform.affiliate_ids[0] if platform.affiliate_ids else "direct"
        timestamps: List[Tuple[int, float]] = []
        events: List[DeviceInstallEvent] = []
        opened = 0
        paid = 0
        emulator_count = 0
        # The dry run (a purchase of 0) delivers nothing: there is then
        # no population to build (the builder rejects count == 0), no
        # open rate to measure, and nothing for policy to review.
        if delivered > 0:
            mix = _mix_for(iip_name, delivered)
            sample = cell.population.build(
                mix, delivered, trust_store=world.device_trust_store())
            for worker in sample.workers:
                offset = rng.uniform(0.0, delivery_hours)
                day = start_day + int((8.0 + offset) // 24.0)
                hour = (8.0 + offset) % 24.0
                result = worker.work_offer(campaign.offer, day, rng)
                world.store.record_install(HONEY_PACKAGE, day,
                                           InstallSource.INCENTIVIZED,
                                           campaign_id=campaign.campaign_id)
                timestamps.append((day, hour))
                if self.detection is not None:
                    events.append(honey_install_event(
                        worker.device, HONEY_PACKAGE, day, hour,
                        result.opened, result.engaged_beyond_task,
                        result.returned_next_day))
                if result.opened:
                    opened += 1
                    app = HoneyApp(worker.device,
                                   world.client_for(
                                       worker.device, rng=cell.tls_rng,
                                       obs=task_obs,
                                       session_cache=cell.sessions,
                                       today=day))
                    app.open(day, hour)
                    if result.engaged_beyond_task:
                        app.click_record(day, min(23.99, hour + 0.05))
                    if result.returned_next_day:
                        return_hour = rng.uniform(8.0, 20.0)
                        app.open(day + 1, return_hour)
                        app.click_record(day + 1, min(23.99, return_hour + 0.02))
                if result.completed:
                    disbursement = platform.complete_offer(
                        campaign.offer.offer_id, worker.device.device_id, day,
                        affiliate_id=affiliate, user_id=worker.worker_id,
                        tasks_completed=result.tasks_completed)
                    if disbursement is not None:
                        paid += 1
            emulator_count = sum(
                worker.device.profile.is_emulator for worker in sample.workers)
            signals = CampaignSignals(
                campaign_id=campaign.campaign_id,
                package=HONEY_PACKAGE,
                installs_delivered=delivered,
                open_rate=opened / delivered,
                emulator_rate=emulator_count / delivered,
                delivery_hours=delivery_hours,
                end_day=end_day,
            )
            world.store.review_campaign(
                signals, end_day + 3,
                world.seeds.rng(f"honey-enforce:{iip_name}"))
        total_cost = cost * paid
        record = HoneyCampaignRecord(
            iip_name=iip_name,
            campaign_id=campaign.campaign_id,
            window=CampaignWindow(iip_name, campaign.campaign_id,
                                  start_day, end_day),
            purchased=purchased,
            delivered=delivered,
            completions_paid=paid,
            total_cost_usd=total_cost,
        )
        return record, timestamps, events
