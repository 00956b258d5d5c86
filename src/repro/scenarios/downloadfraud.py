"""Download fraud: chart-boost install spikes and their detector.

"Uncovering Download Fraud Activities in Mobile App Markets" describes
installs bought purely for chart rank: a farm pumps installs for a few
days, the app climbs the top chart, the store's enforcement reacts on a
lag (if at all).  The scenario side sizes each day's spike adaptively
from the live chart — enough 7-day install velocity to clear the
current entry score with margin — so the same profile climbs the chart
at any world scale.

The detector reads only store-side observables (the install ledger and
the engagement book, never the ground-truth source labels): a fraud app
shows a day whose installs dwarf its own trailing baseline *and* whose
new installs produce almost no active users.  Naive incentivized
campaigns spike too, but their workers at least open the app once, so
the engagement-deficit feature separates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.detection.evaluation import DetectionReport, evaluate_detector
from repro.playstore.charts import ChartKind
from repro.playstore.store import PlayStore


@dataclass(frozen=True)
class BoostPlan:
    """One app's purchased chart-boost window."""

    package: str
    campaign_id: str
    start_day: int
    end_day: int           # inclusive

    @property
    def spike_days(self) -> int:
        return self.end_day - self.start_day + 1


#: The detector's spike-ratio and engagement-deficit thresholds.
TRAILING_DAYS = 7               # baseline window before each day
MIN_SPIKE_RATIO = 8.0           # day installs vs trailing mean
MIN_SPIKE_INSTALLS = 200        # ignore tiny-app noise
MIN_ENGAGEMENT_DEFICIT = 5.0    # installs per active user
FIRST_DAY = 2                   # skip the day-0 seeding batches


class DownloadFraudDetector:
    """Flags packages whose install history looks farm-pumped."""

    def _daily_total(self, store: PlayStore, package: str, day: int) -> int:
        return sum(store.ledger.daily_installs(package, day).values())

    def scores(self, store: PlayStore, packages: Iterable[str],
               through_day: int) -> Dict[str, float]:
        """Per-package suspicion: the best spike-ratio x deficit day.

        A package scores 0 unless some day clears *both* thresholds —
        the two features multiply, so a huge organic press spike (high
        ratio, healthy engagement) and a big lazy campaign (engagement
        recorded per completion) both stay at zero.
        """
        scores: Dict[str, float] = {}
        for package in packages:
            best = 0.0
            daily = [self._daily_total(store, package, day)
                     for day in range(through_day + 1)]
            for day in range(FIRST_DAY, through_day + 1):
                installs = daily[day]
                if installs < MIN_SPIKE_INSTALLS:
                    continue
                start = max(1, day - TRAILING_DAYS)
                trailing = daily[start:day]
                baseline = (sum(trailing) / len(trailing)) if trailing else 0.0
                ratio = installs / (baseline + 1.0)
                if ratio < MIN_SPIKE_RATIO:
                    continue
                active = store.engagement.for_day(package, day).active_users
                deficit = installs / (active + 1.0)
                if deficit < MIN_ENGAGEMENT_DEFICIT:
                    continue
                best = max(best, ratio * deficit)
            scores[package] = best
        return scores

    def flag_packages(self, store: PlayStore, packages: Iterable[str],
                      through_day: int) -> Set[str]:
        return {package for package, score
                in self.scores(store, packages, through_day).items()
                if score > 0.0}

    def evaluate(self, store: PlayStore, packages: Sequence[str],
                 fraud_packages: Iterable[str],
                 through_day: int) -> DetectionReport:
        flagged = self.flag_packages(store, packages, through_day)
        truth = set(fraud_packages) & set(packages)
        return evaluate_detector(flagged, truth, packages)


def rank_trajectory(store: PlayStore, package: str, start_day: int,
                    end_day: int) -> List[Tuple[int, Optional[int]]]:
    """``(day, top-free rank)`` per day; ``None`` = off the chart.

    Charts are a pure function of the ledger/engagement state, so the
    trajectory can be recomputed after the run without having sampled
    it live.
    """
    trajectory: List[Tuple[int, Optional[int]]] = []
    for day in range(start_day, end_day + 1):
        snapshot = store.chart_snapshot(ChartKind.TOP_FREE, day)
        entry = snapshot.entry_for(package)
        trajectory.append((day, entry.rank if entry else None))
    return trajectory


def render_fraud_report(store: PlayStore, plans: Sequence[BoostPlan],
                        report: DetectionReport, through_day: int) -> str:
    """The download-fraud section both CLIs print under the profile."""
    lines = [
        f"download fraud: {len(plans)} boosted apps",
        f"fraud detector: precision {report.precision:.2f}, "
        f"recall {report.recall:.2f}, FPR {report.false_positive_rate:.3f}",
    ]
    boost_ids = {plan.campaign_id for plan in plans}
    for plan in plans:
        window_end = min(plan.end_day + 3, through_day)
        trajectory = rank_trajectory(store, plan.package,
                                     max(0, plan.start_day - 1), window_end)
        ranks = [rank for _, rank in trajectory if rank is not None]
        best = f"#{min(ranks)}" if ranks else "unranked"
        takedown = next(
            (action.day for action
             in store.enforcement.actions_for(plan.package)
             if action.campaign_id in boost_ids), None)
        fate = (f"taken down day {takedown}" if takedown is not None
                else "survived enforcement")
        path = " ".join(f"{day}:{rank if rank is not None else '-'}"
                        for day, rank in trajectory)
        lines.append(f"  {plan.package}: spike days "
                     f"{plan.start_day}-{plan.end_day}, best rank {best}, "
                     f"{fate} | rank path {path}")
    return "\n".join(lines)
