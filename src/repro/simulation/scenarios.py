"""The wild-measurement scenario: 900+ advertised apps, 7 IIPs, 300
baseline apps, three months of store dynamics.

Generation is calibrated to the paper's own measurements (Table 4 app
counts, payout medians, install/age medians; Table 3 offer mixes;
Figure 4 baseline popularity; Crunchbase match/funded rates).  The
analysis pipeline never sees these parameters -- it re-measures
everything through the milking + crawling infrastructure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.crunchbase.database import FundingRound, Organization
from repro.iip.campaigns import Campaign
from repro.iip.mediator import FEE_PER_USER_USD
from repro.iip.offers import (
    ActivityKind,
    OfferCategory,
    OfferDescriptionGenerator,
    tasks_for,
)
from repro.iip.platform import DeveloperCredentials
from repro.iip.registry import UNVETTED_IIPS, VETTED_IIPS
from repro.net.ip import MILKER_COUNTRIES, WORLD_COUNTRIES
from repro.parallel import derive_rng
from repro.playstore.catalog import GENRES, AppListing, Developer
from repro.playstore.charts import (
    DEFAULT_CHART_SIZE,
    INSTALL_VELOCITY_WEIGHT,
    ChartKind,
)
from repro.playstore.engagement import DailyEngagement
from repro.playstore.ledger import InstallSource
from repro.playstore.policy import CampaignSignals
from repro.playstore.reviews import AppReview
from repro.scenarios.downloadfraud import BoostPlan
from repro.scenarios.fakereviews import ReviewCampaignPlan
from repro.scenarios.profiles import ScenarioPack
from repro.simulation import paperdata
from repro.simulation.world import World
from repro.staticanalysis.apk import ApkBuilder
from repro.users.reviewers import ReviewerPool

_TITLE_WORDS = ("Super", "Magic", "Epic", "Happy", "Turbo", "Mega", "Pixel",
                "Crazy", "Royal", "Lucky", "Star", "Prime", "Swift", "Neon")
_TITLE_NOUNS = ("Saga", "Quest", "Runner", "Manager", "Wallet", "Scanner",
                "Diary", "Market", "Tycoon", "Legends", "Puzzle", "Chat",
                "Radio", "Fitness")

#: Figure 4: baseline install-count histogram (counts per popularity bin).
BASELINE_HISTOGRAM = (
    ("0-1k", 15, 10, 1_000),
    ("1k-10k", 25, 1_000, 10_000),
    ("10k-100k", 45, 10_000, 100_000),
    ("100k-1M", 60, 100_000, 1_000_000),
    ("1M-10M", 75, 1_000_000, 10_000_000),
    ("10M-100M", 50, 10_000_000, 100_000_000),
    ("100M-1000M", 25, 100_000_000, 1_000_000_000),
    ("1000M+", 5, 1_000_000_000, 5_000_000_000),
)

#: Per-IIP price level relative to the global type-mean payouts
#: (calibrated so per-IIP median payouts land near Table 4).
IIP_PRICE_FACTOR = {
    "RankApp": 0.33, "ayeT-Studios": 0.75, "Fyber": 0.55,
    "AdscendMedia": 0.32, "AdGem": 3.6, "HangMyAds": 1.05,
    "OfferToro": 0.55,
}

#: Campaign volume (installs purchased), log-uniform ranges.
VETTED_VOLUME_RANGE = (2_000, 60_000)
UNVETTED_VOLUME_RANGE = (5, 400)

#: IIP memberships that reuse an existing advertised app of the same
#: tier, the mean offer count per membership, and the share of offers
#: that are geo-targeted.
OVERLAP_FRACTION = 0.245
OFFERS_PER_MEMBERSHIP_MEAN = 1.74
GEO_TARGETED_FRACTION = 0.18

#: Some mainstream apps appear on IIPs (the paper saw TikTok and Fiverr
#: on unvetted platforms, Apple Music and LinkedIn on vetted ones) --
#: likely placed by third-party marketers, not the brands themselves.
MAINSTREAM_FRACTION = {"vetted": 0.03, "unvetted": 0.15}
MAINSTREAM_MEDIAN_INSTALLS = {"vetted": 50_000_000, "unvetted": 6_000_000}

#: Developer-website prevalence per group (drives Crunchbase matching).
WEBSITE_RATE = {"vetted": 0.55, "unvetted": 0.22, "baseline": 0.42}
#: P(org exists in Crunchbase | developer has a website) and (| not).
CRUNCHBASE_PRESENCE = {"with_site": 0.72, "without_site": 0.03}
#: P(round after campaign start | org matched), per group (Table 7).
FUNDED_AFTER_RATE = {"vetted": 0.156, "unvetted": 0.11, "baseline": 0.06}
#: Fraction of Crunchbase orgs that are publicly traded companies.
PUBLIC_COMPANY_RATE = 0.10
#: Funding-seeking developers pay more per install (Table 8: the
#: campaigns of funded apps carry ~2x the average payout).
FUNDED_PAYOUT_MULTIPLIER = 1.6

#: Figure 6 ad-library load, Poisson lambda by
#: (uses activity offers, advertised on a vetted IIP).
AD_LIB_LAMBDA = {
    ("activity", "vetted"): 5.7,
    ("activity", "unvetted"): 4.2,
    ("no_activity", "vetted"): 3.5,
    ("no_activity", "unvetted"): 2.9,
    ("baseline", "baseline"): 4.2,
}

#: Organic dynamics.
ORGANIC_GROWTH_MEDIAN = 0.0003       # daily fractional install growth
FAST_GROWER_FRACTION = 0.015          # apps growing ~2%/day
FAST_GROWER_RATE = 0.02
DAU_RATE_RANGE = (0.01, 0.06)        # daily active users / installs
ENGAGEMENT_NOISE_SIGMA = 0.12        # day-to-day lognormal chart churn

#: The fake-reviews profile: campaign-driven review bursts plus the
#: organic background.
REVIEW_CAMPAIGN_PROBABILITY = 0.35   # advertised apps buying reviews
PAID_REVIEWS_PER_APP_RANGE = (24, 120)  # log-uniform
REVIEW_BURST_DAYS_RANGE = (2, 5)
PAID_POOL_REUSE = 0.8                # professional reviewer accounts
THROWAWAY_PROBABILITY = 0.25         # one-off paid accounts
PAID_FIVE_STAR_RATE = 0.9
ORGANIC_REVIEWS_PER_DAY = 0.5        # per app, popularity-scaled
ORGANIC_REVIEWER_REUSE = 0.05        # enthusiasts reviewing many apps

#: The download-fraud profile: install spikes sized to climb the
#: top-free chart.
FRAUD_APP_FRACTION = 0.08            # of advertised apps (min 2)
#: Only unknown apps buy chart rank: an app with real traction has
#: organic engagement deep enough to drown the farm's footprint (and no
#: reason to pay for a spike in the first place).
FRAUD_MAX_INITIAL_INSTALLS = 100_000
FRAUD_SPIKE_DAYS_RANGE = (3, 4)
FRAUD_EARLIEST_START_DAY = 7         # after day-0 batches leave the window
FRAUD_CHART_MARGIN = 1.25            # overshoot above the entry score
FRAUD_DAILY_FLOOR = 400
FRAUD_DAILY_CAP = 250_000
FRAUD_ENFORCEMENT_LAG_DAYS = 2       # review lag after the spike ends
FRAUD_OBSERVED_OPEN_RATE = 0.03      # what the store sees of the farm
FRAUD_OBSERVED_EMULATOR_RATE = 0.8
FARM_OPEN_RATE = 0.05                # farm devices that open at all


@dataclass
class AdvertisedApp:
    """One advertised app and its simulation-side ground truth."""

    listing: AppListing
    iips: List[str]
    initial_installs: int
    organic_growth: float
    dau_rate: float
    planned_start: int = 0
    campaigns: List[Campaign] = field(default_factory=list)
    uses_activity: bool = False

    @property
    def package(self) -> str:
        return self.listing.package

    @property
    def vetted_advertised(self) -> bool:
        return any(name in VETTED_IIPS for name in self.iips)


@dataclass
class BaselineApp:
    listing: AppListing
    initial_installs: int
    organic_growth: float
    dau_rate: float

    @property
    def package(self) -> str:
        return self.listing.package


@dataclass(frozen=True)
class WildScenarioConfig:
    """Scenario knobs; ``scale`` shrinks the world for fast tests."""

    scale: float = 1.0
    measurement_days: int = paperdata.WILD_MEASUREMENT_DAYS
    #: Visibility feedback: extra daily organic installs for apps in the
    #: top-free chart, scaled by percentile.  Off by default (the paper
    #: measures correlation, not this mechanism); the chart-feedback
    #: ablation bench turns it on to show why developers want charts.
    chart_feedback_installs: float = 0.0
    #: Which adversarial behaviours are switched on (``repro.scenarios``).
    scenario: ScenarioPack = field(default_factory=ScenarioPack)

    def scaled(self, count: int, minimum: int = 1) -> int:
        return max(minimum, int(round(count * self.scale)))


class WildScenario:
    """Builds and animates the in-the-wild world."""

    def __init__(self, world: World, config: WildScenarioConfig) -> None:
        self.world = world
        self.config = config
        self._rng = world.seeds.rng("wild-scenario")
        self._describe = OfferDescriptionGenerator(
            world.seeds.rng("offer-descriptions"))
        self.advertised: List[AdvertisedApp] = []
        self.baseline: List[BaselineApp] = []
        self._by_package: Dict[str, AdvertisedApp] = {}
        self._developers: Dict[str, Developer] = {}
        self._next_app = 0
        self._next_dev = 0
        self._reviewed_campaigns: Set[str] = set()
        self._funded_developers: Set[str] = set()
        # Adversarial-profile state (repro.scenarios).  Every draw uses
        # streams derived off one dedicated seed, never the shared
        # ``wild-scenario`` stream: switching a profile on must not
        # perturb a single naive-path draw, or the frozen naive exports
        # would shift.
        self._adv_seed = world.seeds.seed_for("adversarial-scenario")
        self._review_plans: List[ReviewCampaignPlan] = []
        self._paid_pool = ReviewerPool("paid", PAID_POOL_REUSE)
        self._burner_pool = ReviewerPool("burner", 0.0)
        self._organic_pool = ReviewerPool("reviewer", ORGANIC_REVIEWER_REUSE)
        self._paid_reviewers: Set[str] = set()
        self._boost_plans: List[BoostPlan] = []
        self._boost_campaigns: Dict[str, Campaign] = {}

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------

    def build(self) -> None:
        # Chart capacity scales with the population so the fraction of
        # apps that chart (and hence Table 6 exclusion rates) is
        # scale-invariant.
        self.world.store.charts.chart_size = max(
            20, self.config.scaled(DEFAULT_CHART_SIZE))
        self._generate_advertised_apps()
        self._generate_baseline_apps()
        self._create_campaigns()
        self._populate_crunchbase()
        self._build_apks()
        # Adversarial planning runs strictly after every naive build
        # step, so the naive draw sequence is a byte-identical prefix.
        if self.config.scenario.fake_reviews:
            self._plan_review_campaigns()
        if self.config.scenario.download_fraud:
            self._plan_download_fraud()

    def _new_package(self, prefix: str) -> str:
        self._next_app += 1
        word = self._rng.choice(_TITLE_WORDS).lower()
        return f"{prefix}.{word}{self._next_app:04d}.app"

    def _new_title(self) -> str:
        rng = self._rng
        return f"{rng.choice(_TITLE_WORDS)} {rng.choice(_TITLE_NOUNS)}"

    def _zipf_genre(self) -> str:
        """Zipf-weighted genre choice (games and casual apps dominate)."""
        rng = self._rng
        ranks = list(range(1, len(GENRES) + 1))
        weights = [1.0 / rank for rank in ranks]
        return rng.choices(list(GENRES), weights=weights, k=1)[0]

    def _new_developer(self, group: str) -> Developer:
        self._next_dev += 1
        rng = self._rng
        name = f"{rng.choice(_TITLE_WORDS)}{rng.choice(_TITLE_NOUNS)} {self._next_dev:04d}"
        website = None
        if rng.random() < WEBSITE_RATE[group]:
            website = f"https://{name.split()[0].lower()}{self._next_dev}.example"
        developer = Developer(
            developer_id=f"dev-{group}-{self._next_dev:05d}",
            name=name,
            country=rng.choice(WORLD_COUNTRIES),
            website=website,
            email=f"contact{self._next_dev}@mail.example",
        )
        self._developers[developer.developer_id] = developer
        return developer

    def _lognormal_installs(self, median: int) -> int:
        """Install counts around a median, log10 sigma ~ 1.05."""
        import math
        draw = self._rng.lognormvariate(math.log(median), 1.05 * math.log(10) / 1.17)
        return max(10, int(draw))

    def _generate_advertised_apps(self) -> None:
        rng = self._rng
        pools: Dict[str, List[AdvertisedApp]] = {"vetted": [], "unvetted": []}
        for iip_name, calibration in paperdata.TABLE4.items():
            count = self.config.scaled(calibration.app_count, minimum=3)
            dev_reuse = 1.0 - calibration.developer_count / calibration.app_count
            group = "vetted" if iip_name in VETTED_IIPS else "unvetted"
            iip_developers: List[Developer] = []
            for _ in range(count):
                if (pools[group] and
                        rng.random() < OVERLAP_FRACTION):
                    # Reuse an existing advertised app of the same tier:
                    # it runs campaigns on one more platform.  (Cross-tier
                    # reuse would drag unvetted-sized apps into vetted
                    # medians, which Table 4 shows does not happen.)
                    app = rng.choice(pools[group])
                    if iip_name not in app.iips:
                        app.iips.append(iip_name)
                    continue
                if iip_developers and rng.random() < dev_reuse:
                    developer = rng.choice(iip_developers)
                else:
                    developer = self._new_developer(group)
                    iip_developers.append(developer)
                # Age is measured the way the paper measures it: days
                # between the Play release and the campaign start.
                planned_start = rng.randrange(
                    0, max(1, self.config.measurement_days - 12))
                age = max(3, int(rng.lognormvariate(
                    _ln(calibration.median_age_days), 0.9)))
                listing = AppListing(
                    package=self._new_package("com.adv"),
                    title=self._new_title(),
                    genre=self._zipf_genre(),
                    developer=developer,
                    release_day=planned_start - age,
                    has_in_app_purchases=rng.random() < 0.6,
                )
                median_installs = calibration.median_installs
                if rng.random() < MAINSTREAM_FRACTION[group]:
                    median_installs = MAINSTREAM_MEDIAN_INSTALLS[group]
                app = AdvertisedApp(
                    listing=listing,
                    iips=[iip_name],
                    initial_installs=self._lognormal_installs(median_installs),
                    organic_growth=self._draw_growth(),
                    dau_rate=rng.uniform(*DAU_RATE_RANGE),
                    planned_start=planned_start,
                )
                self.world.store.publish(listing)
                self.world.store.record_install_batch(
                    listing.package, 0, InstallSource.ORGANIC,
                    app.initial_installs)
                self.advertised.append(app)
                pools[group].append(app)
                self._by_package[listing.package] = app

    def _draw_growth(self) -> float:
        rng = self._rng
        if rng.random() < FAST_GROWER_FRACTION:
            return FAST_GROWER_RATE * rng.uniform(0.5, 2.0)
        return rng.lognormvariate(_ln(ORGANIC_GROWTH_MEDIAN), 0.8)

    def _generate_baseline_apps(self) -> None:
        rng = self._rng
        for label, count, low, high in BASELINE_HISTOGRAM:
            for _ in range(self.config.scaled(count)):
                developer = self._new_developer("baseline")
                listing = AppListing(
                    package=self._new_package("com.base"),
                    title=self._new_title(),
                    genre=self._zipf_genre(),
                    developer=developer,
                    release_day=-rng.randrange(100, 2000),
                    has_in_app_purchases=rng.random() < 0.5,
                )
                installs = int(rng.uniform(low, high) ** 0.5
                               * rng.uniform(low, high) ** 0.5)
                app = BaselineApp(
                    listing=listing,
                    initial_installs=max(10, installs),
                    organic_growth=self._draw_growth(),
                    dau_rate=rng.uniform(*DAU_RATE_RANGE),
                )
                self.world.store.publish(listing)
                self.world.store.record_install_batch(
                    listing.package, 0, InstallSource.ORGANIC,
                    app.initial_installs)
                self.baseline.append(app)

    # -- campaigns ------------------------------------------------------

    def _offer_type(self, iip_name: str) -> Tuple[OfferCategory,
                                                  Optional[ActivityKind]]:
        rng = self._rng
        calibration = paperdata.TABLE4[iip_name]
        if rng.random() < calibration.no_activity_fraction:
            return OfferCategory.NO_ACTIVITY, None
        draw = rng.random()
        cumulative = 0.0
        for kind_name, weight in paperdata.ACTIVITY_KIND_WEIGHTS.items():
            cumulative += weight
            if draw < cumulative:
                return OfferCategory.ACTIVITY, ActivityKind(kind_name)
        return OfferCategory.ACTIVITY, ActivityKind.USAGE

    def _payout(self, iip_name: str, category: OfferCategory,
                kind: Optional[ActivityKind]) -> float:
        key = "no_activity" if category is OfferCategory.NO_ACTIVITY else kind.value
        factor = IIP_PRICE_FACTOR[iip_name]
        if kind is ActivityKind.PURCHASE:
            # Purchase payouts track the purchase amount, not the
            # platform's price level (Table 3: $2.98 average everywhere).
            factor = factor ** 0.4
        base = paperdata.MEAN_PAYOUTS[key] * factor
        return round(max(0.01, self._rng.lognormvariate(_ln(base), 0.45)), 2)

    def _decide_funding_intent(self, app: AdvertisedApp) -> bool:
        """Funding-seeking developers run different campaigns (Table 8)."""
        developer_id = app.listing.developer.developer_id
        if developer_id in self._funded_developers:
            return True
        group = "vetted" if app.vetted_advertised else "unvetted"
        if self._rng.random() < FUNDED_AFTER_RATE[group]:
            self._funded_developers.add(developer_id)
            return True
        return False

    def _create_campaigns(self) -> None:
        rng = self._rng
        describe = self._describe
        horizon = self.config.measurement_days
        for app in self.advertised:
            arbitrage_rate = (paperdata.ARBITRAGE_VETTED_FRACTION
                              if app.vetted_advertised
                              else paperdata.ARBITRAGE_UNVETTED_FRACTION)
            app_is_arbitrage = rng.random() < arbitrage_rate
            arbitrage_pending = app_is_arbitrage
            seeking_funding = self._decide_funding_intent(app)
            start = app.planned_start
            for iip_name in app.iips:
                platform = self.world.platforms[iip_name]
                developer_id = app.listing.developer.developer_id
                if not platform.is_registered(developer_id):
                    platform.register_developer(DeveloperCredentials(
                        developer_id=developer_id, tax_id=f"TAX-{developer_id}",
                        bank_account=f"IBAN-{developer_id}"))
                offer_count = max(1, int(rng.expovariate(
                    1.0 / OFFERS_PER_MEMBERSHIP_MEAN)))
                offer_count = min(offer_count, 5)
                forced_types: List[Tuple[OfferCategory, Optional[ActivityKind]]] = []
                if seeking_funding:
                    # Funded apps tend to run both offer types (Table 8:
                    # 67% use no-activity and 63% use activity offers).
                    _, activity_kind = self._offer_type(iip_name)
                    if rng.random() < 0.67:
                        forced_types.append((OfferCategory.NO_ACTIVITY, None))
                    if rng.random() < 0.63 or not forced_types:
                        forced_types.append((OfferCategory.ACTIVITY,
                                             activity_kind or ActivityKind.USAGE))
                    offer_count = max(offer_count, len(forced_types))
                for index in range(offer_count):
                    if index < len(forced_types):
                        category, kind = forced_types[index]
                    else:
                        category, kind = self._offer_type(iip_name)
                    if arbitrage_pending:
                        category, kind = (OfferCategory.ACTIVITY,
                                          ActivityKind.USAGE)
                        arbitrage_pending = False
                        is_arbitrage = True
                    else:
                        is_arbitrage = False
                    if category is OfferCategory.ACTIVITY:
                        app.uses_activity = True
                    payout = self._payout(iip_name, category, kind)
                    if seeking_funding:
                        payout = round(payout * FUNDED_PAYOUT_MULTIPLIER, 2)
                    purchase_usd = round(rng.choice((0.99, 1.99, 4.99, 9.99)), 2)
                    # Mainstream brands (or their marketers) buy real
                    # volume wherever they advertise; small unvetted
                    # advertisers buy handfuls of installs.
                    big_budget = (iip_name in VETTED_IIPS
                                  or app.initial_installs > 500_000)
                    volume_hint = (VETTED_VOLUME_RANGE if big_budget
                                   else UNVETTED_VOLUME_RANGE)
                    volume = int(_log_uniform(rng, *volume_hint))
                    duration = max(4, int(rng.gauss(20, 7) + volume / 1500))
                    offer_start = min(start + rng.randrange(0, 6), horizon - 3)
                    offer_end = min(offer_start + duration, horizon - 1)
                    target = None
                    language = "en"
                    if rng.random() < GEO_TARGETED_FRACTION:
                        target = tuple(rng.sample(
                            MILKER_COUNTRIES, rng.randrange(1, 4)))
                        # Single-country offers are often localized.
                        local = {"ES": "es", "DE": "de", "RU": "ru"}
                        if (len(target) == 1 and target[0] in local
                                and rng.random() < 0.6):
                            language = local[target[0]]
                    cost = (payout * (1 + platform.config.advertiser_markup)
                            + FEE_PER_USER_USD)
                    budget = max(cost * volume * 1.1,
                                 platform.config.min_deposit_usd * 1.1)
                    self.world.money.mint(developer_id, budget, day=0,
                                          memo="campaign funding")
                    campaign = platform.create_campaign(
                        developer_id=developer_id,
                        package=app.package,
                        app_title=app.listing.title,
                        description=describe.describe(
                            category, kind, app.listing.title,
                            is_arbitrage=is_arbitrage,
                            purchase_usd=purchase_usd,
                            language=language),
                        payout_usd=payout,
                        category=category,
                        activity_kind=kind,
                        tasks=tasks_for(category, kind,
                                        is_arbitrage=is_arbitrage,
                                        purchase_usd=purchase_usd),
                        installs=volume,
                        start_day=offer_start,
                        end_day=offer_end,
                        target_countries=target,
                        is_arbitrage=is_arbitrage,
                    )
                    platform.launch(campaign.campaign_id, offer_start)
                    app.campaigns.append(campaign)

    # -- crunchbase ------------------------------------------------------

    def _populate_crunchbase(self) -> None:
        rng = self._rng
        snapshot_day = paperdata.CRUNCHBASE_SNAPSHOT_DAY

        def maybe_add(developer: Developer, funded: bool,
                      campaign_start: Optional[int]) -> None:
            presence = (CRUNCHBASE_PRESENCE["with_site"] if developer.website
                        else CRUNCHBASE_PRESENCE["without_site"])
            if rng.random() >= presence:
                return
            org = Organization(
                org_id=f"org-{developer.developer_id}",
                name=developer.name,
                website=developer.website,
                country=developer.country,
                is_public_company=rng.random() < PUBLIC_COMPANY_RATE,
            )
            try:
                self.world.crunchbase.add_organization(org)
            except ValueError:
                return  # developer with several apps: org already added
            if rng.random() < 0.25:  # historical round before our window
                self.world.crunchbase.add_round(FundingRound(
                    org_id=org.org_id, day=-rng.randrange(30, 700),
                    round_type=rng.choice(("Angel", "Seed", "Series A")),
                    amount_usd=rng.uniform(0.5e6, 20e6),
                    investor_name="EarlyBird Capital",
                    investor_type="VC investor"))
            if funded:
                anchor = campaign_start if campaign_start is not None else 0
                round_day = anchor + rng.randrange(7, 60)
                if round_day <= snapshot_day:
                    self.world.crunchbase.add_round(FundingRound(
                        org_id=org.org_id, day=round_day,
                        round_type=rng.choice(("Seed", "Series A", "Series B",
                                               "Series D", "Series F")),
                        amount_usd=rng.uniform(1e6, 120e6),
                        investor_name=rng.choice(
                            ("Sequoia Example", "Accel Example",
                             "Lightspeed Example")),
                        investor_type="VC investor"))

        seen: Set[str] = set()
        for app in self.advertised:
            developer = app.listing.developer
            if developer.developer_id in seen:
                continue
            seen.add(developer.developer_id)
            starts = [c.offer.start_day for c in app.campaigns]
            maybe_add(developer,
                      developer.developer_id in self._funded_developers,
                      min(starts) if starts else None)
        for app in self.baseline:
            developer = app.listing.developer
            if developer.developer_id in seen:
                continue
            seen.add(developer.developer_id)
            maybe_add(developer,
                      rng.random() < FUNDED_AFTER_RATE["baseline"], 0)

    # -- APKs ------------------------------------------------------

    def _build_apks(self) -> None:
        builder = ApkBuilder(self.world.seeds.rng("apks"))
        rng = self._rng
        for app in self.advertised:
            key = ("activity" if app.uses_activity else "no_activity",
                   "vetted" if app.vetted_advertised else "unvetted")
            count = _poisson(rng, AD_LIB_LAMBDA[key])
            self.world.apks.add(builder.build(app.package, count,
                                              obfuscate_fraction=0.05))
        for app in self.baseline:
            count = _poisson(rng, AD_LIB_LAMBDA[("baseline", "baseline")])
            self.world.apks.add(builder.build(app.package, count,
                                              obfuscate_fraction=0.05))

    # ------------------------------------------------------------------
    # daily dynamics
    # ------------------------------------------------------------------

    def run_day(self, day: int) -> None:
        self._organic_dynamics(day)
        self._campaign_delivery(day)
        self._chart_feedback(day)
        self._enforcement_sweep(day)
        if self.config.scenario.fake_reviews:
            self._review_dynamics(day)
        if self.config.scenario.download_fraud:
            self._fraud_spikes(day)

    def _chart_feedback(self, day: int) -> None:
        """Chart visibility converts into organic installs (why
        developers pay to manipulate charts in the first place)."""
        bonus = self.config.chart_feedback_installs
        if bonus <= 0:
            return
        from repro.playstore.charts import ChartKind
        snapshot = self.world.store.chart_snapshot(ChartKind.TOP_FREE, day)
        for entry in snapshot.entries:
            extra = _stochastic_round(self._rng, bonus * entry.percentile)
            if extra:
                self.world.store.record_install_batch(
                    entry.package, day, InstallSource.ORGANIC, extra)

    def _organic_dynamics(self, day: int) -> None:
        rng = self._rng
        store = self.world.store
        for app in self._all_apps():
            installs = app.initial_installs  # growth relative to launch size
            # Organic acquisition is bursty (press, featuring, seasonal
            # spikes): daily velocity carries heavy multiplicative noise.
            velocity_noise = rng.lognormvariate(0.0, 0.6)
            new_installs = _stochastic_round(
                rng, installs * app.organic_growth * velocity_noise)
            if new_installs:
                store.record_install_batch(app.package, day,
                                           InstallSource.ORGANIC, new_installs)
            noise = rng.lognormvariate(0.0, ENGAGEMENT_NOISE_SIGMA)
            dau = int(installs * app.dau_rate * noise)
            if dau <= 0:
                continue
            revenue = 0.0
            if app.listing.has_in_app_purchases:
                revenue = dau * 0.01 * rng.uniform(0.5, 1.5)
            store.record_engagement(app.package, day, DailyEngagement(
                active_users=dau,
                sessions=int(dau * 1.4),
                session_seconds=dau * rng.uniform(180, 420),
                registrations=int(dau * 0.002),
                purchase_revenue_usd=revenue,
                ad_impressions=int(dau * 3),
            ))

    def _all_apps(self):
        for app in self.advertised:
            yield app
        for app in self.baseline:
            yield app

    def _campaign_delivery(self, day: int) -> None:
        rng = self._rng
        store = self.world.store
        for app in self.advertised:
            for campaign in app.campaigns:
                offer = campaign.offer
                if not campaign.is_live_on(day) or not offer.live_on(day):
                    continue
                days_left = max(1, offer.end_day - day + 1)
                quota = _stochastic_round(
                    rng, campaign.remaining / days_left * rng.uniform(0.7, 1.3))
                quota = min(quota, campaign.remaining)
                if quota <= 0:
                    continue
                campaign.record_delivery(quota)
                store.record_install_batch(
                    app.package, day, InstallSource.INCENTIVIZED, quota,
                    campaign_id=campaign.campaign_id)
                self._incentivized_engagement(app, campaign, day, quota)

    def _incentivized_engagement(self, app: AdvertisedApp, campaign,
                                 day: int, completions: int) -> None:
        offer = campaign.offer
        rng = self._rng
        session_seconds = completions * (30.0 + offer.total_effort_minutes * 60.0)
        registrations = 0
        revenue = 0.0
        if offer.activity_kind is ActivityKind.REGISTRATION:
            registrations = completions
        if offer.activity_kind is ActivityKind.PURCHASE:
            purchase_tasks = [t for t in offer.tasks if t.amount > 0]
            amount = purchase_tasks[0].amount if purchase_tasks else 4.99
            revenue = completions * amount
        if offer.category is OfferCategory.NO_ACTIVITY:
            session_seconds = completions * rng.uniform(20, 60)
        self.world.store.record_engagement(app.package, day, DailyEngagement(
            active_users=completions,
            sessions=completions,
            session_seconds=session_seconds,
            registrations=registrations,
            purchase_revenue_usd=revenue,
            ad_impressions=completions * (4 if app.uses_activity else 1),
        ))

    def _enforcement_sweep(self, day: int) -> None:
        """Review campaigns that finished yesterday."""
        rng = self._rng
        for app in self.advertised:
            for campaign in app.campaigns:
                if campaign.campaign_id in self._reviewed_campaigns:
                    continue
                finished = (campaign.remaining == 0
                            or day > campaign.offer.end_day)
                if not finished:
                    continue
                self._reviewed_campaigns.add(campaign.campaign_id)
                vetted = campaign.offer.iip_name in VETTED_IIPS
                open_rate = 0.98 if vetted else rng.uniform(0.45, 0.7)
                signals = CampaignSignals(
                    campaign_id=campaign.campaign_id,
                    package=app.package,
                    installs_delivered=campaign.delivered,
                    open_rate=open_rate,
                    emulator_rate=0.002 if vetted else 0.006,
                    delivery_hours=(self.world.platforms[campaign.offer.iip_name]
                                    .config.delivery_hours_typical),
                    end_day=day,
                )
                self.world.store.review_campaign(signals, day,
                                                 self.world.seeds.rng(
                                                     f"enforce:{campaign.campaign_id}"))

    # ------------------------------------------------------------------
    # adversarial profiles (repro.scenarios)
    # ------------------------------------------------------------------
    #
    # All randomness below derives from ``self._adv_seed`` keyed per
    # purpose (and per day for the daily dynamics), so replaying the
    # same days in order — which is what checkpoint resume does —
    # rebuilds identical store state.

    def _plan_review_campaigns(self) -> None:
        """Decide which advertised apps buy review bursts (build time).

        A paid burst launches alongside the app's earliest install
        campaign: the point of bought reviews is to make the freshly
        promoted app look loved while the installs roll in.
        """
        rng = derive_rng(self._adv_seed, "review-plan")
        horizon = self.config.measurement_days
        for app in self.advertised:
            if rng.random() >= REVIEW_CAMPAIGN_PROBABILITY:
                continue
            starts = [c.offer.start_day for c in app.campaigns]
            start = max(0, min(min(starts) if starts else 0, horizon - 2))
            duration = rng.randint(*REVIEW_BURST_DAYS_RANGE)
            total = max(duration, int(_log_uniform(
                rng, *PAID_REVIEWS_PER_APP_RANGE)))
            self._review_plans.append(ReviewCampaignPlan(
                package=app.package, start_day=start,
                duration_days=duration, total_reviews=total))

    def _review_dynamics(self, day: int) -> None:
        """Paid review bursts plus the organic review trickle."""
        rng = derive_rng(self._adv_seed, "reviews", day)
        store = self.world.store
        for plan in self._review_plans:
            if not plan.active_on(day):
                continue
            quota = _stochastic_round(
                rng, plan.total_reviews / plan.duration_days
                * rng.uniform(0.6, 1.4))
            for _ in range(quota):
                if rng.random() < THROWAWAY_PROBABILITY:
                    reviewer = self._burner_pool.fresh()
                else:
                    reviewer = self._paid_pool.draw(rng)
                self._paid_reviewers.add(reviewer)
                rating = 5 if rng.random() < PAID_FIVE_STAR_RATE else 4
                store.record_review(AppReview(
                    reviewer_id=reviewer, package=plan.package, day=day,
                    hour=rng.uniform(8.0, 23.0), rating=rating))
        for app in self._all_apps():
            popularity = min(3.0, math.log10(max(10, app.initial_installs))
                             / 2.5)
            expected = ORGANIC_REVIEWS_PER_DAY * popularity
            for _ in range(_stochastic_round(rng, expected)):
                reviewer = self._organic_pool.draw(rng)
                # Each app sits at its own quality level; organic
                # ratings scatter around it.
                mu = derive_rng(self._adv_seed, "review-mu",
                                app.package).uniform(2.8, 4.6)
                rating = max(1, min(5, round(rng.gauss(mu, 0.9))))
                store.record_review(AppReview(
                    reviewer_id=reviewer, package=app.package, day=day,
                    hour=rng.uniform(0.0, 23.99), rating=rating))

    def _plan_download_fraud(self) -> None:
        """Pick the apps buying chart boosts and open their campaigns.

        The boost goes through the developer's existing IIP as a real
        paid campaign (``is_chart_boost=True``) so the money trail and
        the enforcement surface both exist — but it never joins
        ``app.campaigns``: delivery is driven by :meth:`_fraud_spikes`,
        and farm installs must not inherit the per-completion
        engagement that makes naive campaigns look (barely) alive.
        """
        rng = derive_rng(self._adv_seed, "fraud-plan")
        horizon = self.config.measurement_days
        count = min(len(self.advertised),
                    max(2, int(round(len(self.advertised)
                                     * FRAUD_APP_FRACTION))))
        # Chart boosts are bought for unknown apps: sample from the
        # small end of the advertised population (falling back to the
        # smallest apps when the world is tiny).
        ordered = sorted(self.advertised,
                         key=lambda app: (app.initial_installs, app.package))
        small = [app for app in ordered
                 if app.initial_installs <= FRAUD_MAX_INITIAL_INSTALLS]
        candidates = small if len(small) >= count else ordered[:count]
        for app in rng.sample(candidates, count):
            spike_days = rng.randint(*FRAUD_SPIKE_DAYS_RANGE)
            # Start late enough that the day-0 seeding batches have left
            # the 7-day chart window, early enough that the post-spike
            # enforcement review still lands inside the horizon.
            latest = max(1, horizon - spike_days - FRAUD_ENFORCEMENT_LAG_DAYS)
            earliest = min(FRAUD_EARLIEST_START_DAY, latest)
            start = rng.randint(earliest, latest)
            end = min(start + spike_days - 1, horizon - 1)
            platform = self.world.platforms[app.iips[0]]
            developer_id = app.listing.developer.developer_id
            payout = 0.03   # farm installs are bought in bulk, dirt cheap
            volume = FRAUD_DAILY_CAP * (end - start + 1)
            cost = (payout * (1 + platform.config.advertiser_markup)
                    + FEE_PER_USER_USD)
            budget = max(cost * volume * 1.1,
                         platform.config.min_deposit_usd * 1.1)
            self.world.money.mint(developer_id, budget, day=0,
                                  memo="chart-boost funding")
            campaign = platform.create_campaign(
                developer_id=developer_id,
                package=app.package,
                app_title=app.listing.title,
                description=self._describe.describe(
                    OfferCategory.NO_ACTIVITY, None, app.listing.title),
                payout_usd=payout,
                category=OfferCategory.NO_ACTIVITY,
                activity_kind=None,
                tasks=tasks_for(OfferCategory.NO_ACTIVITY, None),
                installs=volume,
                start_day=start,
                end_day=end,
                is_chart_boost=True,
            )
            platform.launch(campaign.campaign_id, start)
            self._boost_campaigns[campaign.campaign_id] = campaign
            self._boost_plans.append(BoostPlan(
                package=app.package, campaign_id=campaign.campaign_id,
                start_day=start, end_day=end))
        self._boost_plans.sort(key=lambda plan: plan.package)

    def _fraud_spikes(self, day: int) -> None:
        """Deliver boost installs sized from the live chart; review later.

        Each spike day buys just enough 7-day install velocity to clear
        the current top-free entry score with margin, so the same
        profile climbs the chart at any world scale.  The store's
        enforcement reviews the campaign ``FRAUD_ENFORCEMENT_LAG_DAYS``
        after the spike ends — the reaction lag the takedown trajectories
        in the report measure.
        """
        store = self.world.store
        rng = derive_rng(self._adv_seed, "fraud", day)
        for plan in self._boost_plans:
            campaign = self._boost_campaigns[plan.campaign_id]
            if plan.start_day <= day <= plan.end_day:
                snapshot = store.chart_snapshot(ChartKind.TOP_FREE, day)
                entry_score = (snapshot.entries[-1].score
                               if snapshot.entries else 0.0)
                target = entry_score * FRAUD_CHART_MARGIN
                current = store.charts.trending_score(plan.package, day)
                deficit = max(0.0, target - current)
                installs = int(math.ceil(deficit / INSTALL_VELOCITY_WEIGHT))
                installs = max(FRAUD_DAILY_FLOOR, installs)
                installs = int(installs * rng.uniform(1.0, 1.15))
                installs = min(installs, FRAUD_DAILY_CAP, campaign.remaining)
                if installs <= 0:
                    continue
                campaign.record_delivery(installs)
                store.record_install_batch(
                    plan.package, day, InstallSource.INCENTIVIZED, installs,
                    campaign_id=plan.campaign_id)
                # Farm devices barely ever open the app: the engagement
                # deficit the fraud detector keys on.
                opens = int(installs * FARM_OPEN_RATE)
                if opens:
                    store.record_engagement(plan.package, day,
                                            DailyEngagement(
                                                active_users=opens,
                                                sessions=opens,
                                                session_seconds=opens * 15.0,
                                                registrations=0,
                                                purchase_revenue_usd=0.0,
                                                ad_impressions=0,
                                            ))
            elif (day >= plan.end_day + FRAUD_ENFORCEMENT_LAG_DAYS
                  and plan.campaign_id not in self._reviewed_campaigns):
                self._reviewed_campaigns.add(plan.campaign_id)
                signals = CampaignSignals(
                    campaign_id=plan.campaign_id,
                    package=plan.package,
                    installs_delivered=campaign.delivered,
                    open_rate=FRAUD_OBSERVED_OPEN_RATE,
                    emulator_rate=FRAUD_OBSERVED_EMULATOR_RATE,
                    delivery_hours=24.0 * plan.spike_days,
                    end_day=plan.end_day,
                )
                store.review_campaign(signals, day,
                                      self.world.seeds.rng(
                                          f"enforce:{plan.campaign_id}"))

    # -- adversarial ground truth ---------------------------------------

    def paid_reviewer_ids(self) -> List[str]:
        """Ground truth for the review-spam detector evaluation."""
        return sorted(self._paid_reviewers)

    def fraud_packages(self) -> List[str]:
        """Ground truth for the download-fraud detector evaluation."""
        return sorted(plan.package for plan in self._boost_plans)

    def boost_plans(self) -> List[BoostPlan]:
        return list(self._boost_plans)

    # -- convenience ------------------------------------------------------

    def advertised_packages(self) -> List[str]:
        return sorted(app.package for app in self.advertised)

    def baseline_packages(self) -> List[str]:
        return sorted(app.package for app in self.baseline)


def _ln(value: float) -> float:
    import math
    return math.log(value)


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    import math
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def _stochastic_round(rng: random.Random, value: float) -> int:
    base = int(value)
    if rng.random() < value - base:
        base += 1
    return base


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's algorithm; lambda is small here."""
    import math
    threshold = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count
