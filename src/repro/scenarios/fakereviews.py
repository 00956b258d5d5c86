"""Review-spam detection: burstiness + rating deviation + overlap.

The detector scores *reviewers*, mirroring how app-store review-fraud
work frames the problem ("Towards Understanding and Detecting Fake
Reviews in App Stores"): paid accounts review many unrelated apps
(cross-campaign overlap), their reviews land inside short per-app
bursts, and their ratings sit far above the app's organic baseline.
Organic reviewers overwhelmingly review one app at an unremarkable
hour with a rating near the app's quality level — but a minority of
enthusiasts review many apps, and a slice of paid accounts are one-off
throwaways, so no single feature is a free lunch.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.detection.evaluation import DetectionReport, evaluate_detector
from repro.playstore.reviews import AppReview, ReviewBook


@dataclass(frozen=True)
class ReviewCampaignPlan:
    """One app's purchased review burst, decided at build time."""

    package: str
    start_day: int
    duration_days: int
    total_reviews: int

    def active_on(self, day: int) -> bool:
        return self.start_day <= day < self.start_day + self.duration_days


#: The detector's feature weights and flagging threshold.
BURST_WINDOW_DAYS = 3       # reviews-per-app burst granularity
BURST_MULTIPLIER = 3.0      # burst = window above x the app's median
MIN_BURST_REVIEWS = 6       # and at least this many reviews
OVERLAP_WEIGHT = 1.0        # per extra package reviewed (capped)
OVERLAP_CAP = 4
BURST_WEIGHT = 1.5          # per burst participated in (capped)
BURST_CAP = 4
DEVIATION_WEIGHT = 1.2      # mean in-burst uplift vs the baseline
FLAG_THRESHOLD = 2.7


class ReviewSpamDetector:
    """Flags reviewer accounts from the store's review book alone."""

    # -- features -------------------------------------------------------------

    def _burst_windows(self, book: ReviewBook) -> Set[Tuple[str, int]]:
        """Per-app windows holding an outsized share of the app's
        reviews: ``(package, window_index)`` keys.

        The quiet-level baseline is the *median* window count over the
        whole observation span (empty windows count as zero) — a mean
        would be inflated by the very burst being hunted, which lets a
        large burst hide behind itself.
        """
        days = [review.day for review in book.all_reviews()]
        if not days:
            return set()
        span = range(min(days) // BURST_WINDOW_DAYS,
                     max(days) // BURST_WINDOW_DAYS + 1)
        bursts: Set[Tuple[str, int]] = set()
        for package in book.packages():
            reviews = book.reviews_for(package)
            per_window: Counter = Counter(
                review.day // BURST_WINDOW_DAYS for review in reviews)
            counts = sorted(per_window.get(window, 0) for window in span)
            median = counts[len(counts) // 2]
            threshold = max(MIN_BURST_REVIEWS, BURST_MULTIPLIER * median)
            for window, count in per_window.items():
                if count >= threshold:
                    bursts.add((package, window))
        return bursts

    def scores(self, book: ReviewBook) -> Dict[str, float]:
        """Per-reviewer suspicion scores (higher = more likely paid)."""
        bursts = self._burst_windows(book)
        packages_by_reviewer: Dict[str, Set[str]] = defaultdict(set)
        burst_hits: Counter = Counter()
        deviation_sum: Dict[str, float] = defaultdict(float)
        baseline = {package: self._organic_baseline(book.reviews_for(package))
                    for package in book.packages()}
        for review in book.all_reviews():
            reviewer = review.reviewer_id
            packages_by_reviewer[reviewer].add(review.package)
            window = review.day // BURST_WINDOW_DAYS
            if (review.package, window) not in bursts:
                # Rating deviation only counts when the burst feature
                # corroborates it: a lone enthusiastic rating at a quiet
                # hour is how organic reviews look.
                continue
            burst_hits[reviewer] += 1
            # Positive-only: paid reviews deviate *up* from the organic
            # level; punishing honest low ratings on flooded apps would
            # flag exactly the reviewers the spam drowns out.
            deviation_sum[reviewer] += max(
                0.0, review.rating - baseline[review.package])
        scores: Dict[str, float] = {}
        for reviewer, packages in packages_by_reviewer.items():
            overlap = min(len(packages) - 1, OVERLAP_CAP)
            burst = min(burst_hits[reviewer], BURST_CAP)
            deviation = (deviation_sum[reviewer] / burst_hits[reviewer]
                         if burst_hits[reviewer] else 0.0)
            scores[reviewer] = (OVERLAP_WEIGHT * overlap
                                + BURST_WEIGHT * burst
                                + DEVIATION_WEIGHT * deviation)
        return scores

    @staticmethod
    def _organic_baseline(reviews: List[AppReview]) -> float:
        """The app's rating level with the top-heavy tail trimmed.

        Paid reviews pile onto 5 stars; the lower *third* of the rating
        distribution is a robust estimate of where organic sentiment
        sits even when paid reviews are the outright majority.
        """
        ratings = sorted(review.rating for review in reviews)
        lower = ratings[:max(1, len(ratings) // 3)]
        return sum(lower) / len(lower)

    # -- flagging / scoring ---------------------------------------------------

    def flag_reviewers(self, book: ReviewBook) -> Set[str]:
        return {reviewer for reviewer, score in self.scores(book).items()
                if score >= FLAG_THRESHOLD}

    def evaluate(self, book: ReviewBook,
                 paid_reviewers: Iterable[str]) -> DetectionReport:
        """Score the flagged set against the scenario's ground truth."""
        universe = book.reviewers()
        paid = set(paid_reviewers) & set(universe)
        return evaluate_detector(self.flag_reviewers(book), paid, universe)


def render_review_report(book: ReviewBook, report: DetectionReport,
                         paid_count: int) -> str:
    """The review-spam section both CLIs print under ``fake-reviews``."""
    lines = [
        f"reviews: {len(book)} on {len(book.packages())} apps "
        f"from {len(book.reviewers())} reviewers "
        f"({paid_count} paid ground truth)",
        f"review-spam detector: precision {report.precision:.2f}, "
        f"recall {report.recall:.2f}, FPR {report.false_positive_rate:.3f}",
    ]
    return "\n".join(lines)
