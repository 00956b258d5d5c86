"""Every paper-reported constant, in one annotated module.

This is the single source of truth for (a) scenario calibration and
(b) the expected values EXPERIMENTS.md compares against.  Nothing in
the measurement or analysis path imports this module -- the pipeline
must re-measure these numbers from simulated observables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

# ---------------------------------------------------------------------------
# Measurement window (Section 4): March-June 2019, day 0 = 2019-03-01.
# ---------------------------------------------------------------------------

WILD_MEASUREMENT_DAYS = 110
CRUNCHBASE_SNAPSHOT_DAY = 210          # the October 2019 snapshot
AVERAGE_CAMPAIGN_DURATION_DAYS = 25    # used as the baseline window length

# ---------------------------------------------------------------------------
# Headline dataset sizes (Section 4.1)
# ---------------------------------------------------------------------------

TOTAL_OFFERS = 2126
TOTAL_ADVERTISED_APPS = 922
TOTAL_UNIQUE_DESCRIPTIONS = 1128
BASELINE_APP_COUNT = 300
MONITORED_IIPS = 7
INSTRUMENTED_AFFILIATE_APPS = 8
MILKER_COUNTRY_COUNT = 8

# ---------------------------------------------------------------------------
# Table 3: offer types and average payouts
# ---------------------------------------------------------------------------

TABLE3 = {
    "No activity": {"fraction": 0.47, "average_payout": 0.06},
    "Activity": {"fraction": 0.53, "average_payout": 0.52},
    "Activity (Usage)": {"fraction": 0.37, "average_payout": 0.50},
    "Activity (Registration)": {"fraction": 0.11, "average_payout": 0.34},
    "Activity (Purchase)": {"fraction": 0.05, "average_payout": 2.98},
}

# ---------------------------------------------------------------------------
# Table 4: per-IIP characterisation
# (median payout, % no-activity, apps, developers, countries, genres,
#  median installs, median age days)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IipCalibration:
    median_payout_usd: float
    no_activity_fraction: float
    app_count: int
    developer_count: int
    country_count: int
    genre_count: int
    median_installs: int
    median_age_days: int


TABLE4: Dict[str, IipCalibration] = {
    "RankApp": IipCalibration(0.02, 1.00, 152, 114, 39, 20, 100, 33),
    "ayeT-Studios": IipCalibration(0.05, 0.71, 392, 351, 44, 51, 1_000, 70),
    "Fyber": IipCalibration(0.19, 0.24, 378, 319, 40, 36, 1_000_000, 777),
    "AdscendMedia": IipCalibration(0.12, 0.09, 104, 79, 27, 21, 500_000, 722),
    "AdGem": IipCalibration(1.71, 0.16, 28, 27, 15, 8, 500_000, 854),
    "HangMyAds": IipCalibration(0.40, 0.23, 27, 27, 17, 9, 1_000_000, 699),
    "OfferToro": IipCalibration(0.09, 0.52, 140, 131, 34, 19, 500_000, 557),
}

#: Within activity offers: usage : registration : purchase = 37 : 11 : 5.
ACTIVITY_KIND_WEIGHTS = {"usage": 0.37 / 0.53, "registration": 0.11 / 0.53,
                         "purchase": 0.05 / 0.53}

#: Mean *user* payouts per offer type (Table 3); generation draws
#: around the per-IIP medians with these as global anchors.
MEAN_PAYOUTS = {"no_activity": 0.06, "usage": 0.50, "registration": 0.34,
                "purchase": 2.98}

# ---------------------------------------------------------------------------
# Table 5: install-count increases (group: positive / total)
# ---------------------------------------------------------------------------

TABLE5 = {
    "Baseline": (6, 300),
    "Vetted": (61, 492),
    "Unvetted": (88, 538),
}
TABLE5_CHI2 = {"Vetted": 26.0, "Unvetted": 39.9}

# ---------------------------------------------------------------------------
# Table 6: top-chart appearances after filtering pre-charting apps
# ---------------------------------------------------------------------------

TABLE6 = {
    "Baseline": (8, 261),
    "Vetted": (24, 320),
    "Unvetted": (12, 484),
}
TABLE6_CHI2 = {"Vetted": 5.43, "Unvetted": 0.22}
TABLE6_P = {"Vetted": 0.02, "Unvetted": 0.64}

# ---------------------------------------------------------------------------
# Table 7: funding raised after campaigns (of Crunchbase-matched apps)
# ---------------------------------------------------------------------------

TABLE7 = {
    "Baseline": (5, 82),
    "Vetted": (30, 192),
    "Unvetted": (11, 79),
}
TABLE7_CHI2 = {"Vetted": 4.7, "Unvetted": 2.8}
CRUNCHBASE_MATCH_RATE = {"Baseline": 82 / 300, "Vetted": 192 / 492,
                         "Unvetted": 79 / 538}
PUBLIC_COMPANY_APPS = 28

# ---------------------------------------------------------------------------
# Table 8: offer mix of the 30 funded vetted apps
# ---------------------------------------------------------------------------

TABLE8 = {
    "No activity": {"app_fraction": 0.67, "average_payout": 0.12},
    "Activity": {"app_fraction": 0.63, "average_payout": 0.92},
}

# ---------------------------------------------------------------------------
# Figure 6: ad-library prevalence (fraction of apps with >= 5 ad libs)
# ---------------------------------------------------------------------------

FIG6_AT_LEAST_5 = {
    "Activity offers": 0.60,
    "No activity offers": 0.25,
    "Vetted": 0.55,
    "Unvetted": 0.20,
    "Baseline": 0.35,
}

#: Arbitrage prevalence (Section 4.3.2).
ARBITRAGE_APP_FRACTION = 0.039
ARBITRAGE_VETTED_FRACTION = 0.07
ARBITRAGE_UNVETTED_FRACTION = 0.02

#: Enforcement (Section 5.2): fraction of unvetted apps whose install
#: count ever decreased; zero for baseline and vetted apps.
ENFORCEMENT_UNVETTED_DECREASE_FRACTION = 0.02

# ---------------------------------------------------------------------------
# Section 3: the honey-app experiment
# ---------------------------------------------------------------------------

HONEY_INSTALLS_PURCHASED = 500

HONEY_DELIVERED = {"Fyber": 626, "ayeT-Studios": 550, "RankApp": 503}
HONEY_TOTAL_INSTALLS = 1679

#: Fraction of installs that never opened the app (telemetry missing).
HONEY_MISSING_TELEMETRY = {"Fyber": 0.0, "ayeT-Studios": 0.0, "RankApp": 0.45}

#: Fraction of installing users who clicked the record button.
HONEY_CLICK_RATE = {"Fyber": 0.44, "ayeT-Studios": 0.44, "RankApp": 0.06}

#: Devices clicking the record button the day after installing.
HONEY_DAY_AFTER_CLICKS = {"Fyber": 4, "ayeT-Studios": 1, "RankApp": 2}

#: Delivery speed: hours to drain the 500-install purchase.
HONEY_DELIVERY_HOURS = {"Fyber": 2.0, "ayeT-Studios": 2.0, "RankApp": 30.0}

#: Automation signals.
HONEY_EMULATORS = {"Fyber": 2, "RankApp": 2}                 # 4 total
HONEY_CLOUD_ASN = {"Fyber": 2, "ayeT-Studios": 4, "RankApp": 1}  # 7 total
HONEY_FARM_SIZE = 20
HONEY_FARM_ROOTED = 18

#: Fraction of users with >= 1 money-keyword affiliate app installed.
HONEY_AFFILIATE_KEYWORD_RATE = {"Fyber": 0.42, "ayeT-Studios": 0.72,
                                "RankApp": 0.98}

#: Most popular affiliate app per IIP and its share of that IIP's users.
HONEY_FLAGSHIP_AFFILIATE = {
    "Fyber": ("proxima.makemoney.android", 0.09),
    "ayeT-Studios": ("com.ayet.cashpirate", 0.20),
    "RankApp": ("eu.gcashapp", 0.37),
}

HONEY_CO_INSTALLED_PACKAGES = 17_454

#: Costs quoted in the paper's introduction.
MEAN_INCENTIVIZED_INSTALL_COST = 0.06
MEAN_NON_INCENTIVIZED_INSTALL_COST = 1.22
