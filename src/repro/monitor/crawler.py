"""Play Store crawler: profiles and top charts, every other day.

"We periodically collect this data every other day from March 2019 to
June 2019" (paper Section 4.3.1).  The crawler can only see the store's
*current* state on each visit; the archive of those visits is all the
longitudinal analysis has to work from.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.streams import SpillableLog
from repro.checkpointed import Checkpointed
from repro.net.client import RETRIABLE_STATUSES, HttpClient
from repro.net.errors import NetError
from repro.obs import Observability, label_key
from repro.parallel import ShardScheduler
from repro.playstore.charts import ChartKind

#: Profiles and top charts are crawled every other day (Section 4.3.1).
CRAWL_CADENCE_DAYS = 2


@dataclass(frozen=True)
class ProfileSnapshot:
    package: str
    day: int
    installs_floor: int
    genre: str
    release_day: int
    developer_id: str
    developer_name: str
    developer_country: str
    developer_website: Optional[str]
    is_game: bool


@dataclass(frozen=True)
class ChartAppearance:
    package: str
    chart: str
    day: int
    rank: int
    percentile: float


#: One crawled chart on one day, as the archive's log records it:
#: ``(chart, day, appearances)``.
ChartDay = Tuple[str, int, List[ChartAppearance]]


class CrawlArchive:
    """Everything the crawler has collected, indexed for analysis.

    Every profile snapshot and every crawled chart day is one record of
    a :class:`SpillableLog`: in memory, or with ``spill_path`` set in an
    append-only JSONL file on disk.  A checkpoint holds that log's
    state — its cursor when spilled — plus the crawl days, and resume
    rebuilds every index below in one replay of the log.  The archive
    keeps a ``(package, day) -> locator`` index into the log and the
    per-package ``(day, installs_floor)`` series the analyses query, so
    an install series reads no snapshot.  Chart appearances also stay
    resident, indexed by ``(chart, day)`` and by package: their size is
    fixed by the chart roster, not the device population.  Queries
    behave identically in both modes; only peak RSS differs.
    """

    def __init__(self, spill_path: Optional[str] = None) -> None:
        self._log = SpillableLog(_record_to_state, _record_from_state,
                                 spill_path)
        self._locators: Dict[Tuple[str, int], int] = {}
        self._chart_days: Dict[Tuple[str, int], List[ChartAppearance]] = {}
        self.crawl_days: List[int] = []
        # Per-package indexes, maintained incrementally: the analyses
        # ask for one package's series hundreds of times per report, and
        # a full-archive scan per ask is O(packages x archive).  Each
        # package maps to its sorted days and, index for index, their
        # installs floors.
        self._package_series: Dict[str, Tuple[List[int], List[int]]] = {}
        self._chart_by_package: Dict[str, List[ChartAppearance]] = {}

    def _index_profile(self, snapshot: ProfileSnapshot,
                       locator: int) -> None:
        """Point ``(package, day)`` at ``locator`` and record (or, for a
        re-added day, replace) the snapshot's entry in its package's
        series."""
        self._locators[(snapshot.package, snapshot.day)] = locator
        days, floors = self._package_series.setdefault(snapshot.package,
                                                       ([], []))
        at = bisect.bisect_left(days, snapshot.day)
        if at < len(days) and days[at] == snapshot.day:
            floors[at] = snapshot.installs_floor
        else:
            days.insert(at, snapshot.day)
            floors.insert(at, snapshot.installs_floor)

    def add_profile(self, snapshot: ProfileSnapshot) -> None:
        # Re-adding a (package, day) appends a fresh record and moves
        # its locator; the dead record is never read again.
        self._index_profile(snapshot, self._log.append(snapshot))

    def add_chart(self, chart: str, day: int,
                  appearances: Sequence[ChartAppearance]) -> None:
        # Re-adding a (chart, day) appends a fresh record, which replaces
        # the earlier one in the indexes and on replay.
        record: ChartDay = (chart, day, list(appearances))
        self._log.append(record)
        self._index_chart(record)

    def _index_chart(self, record: ChartDay) -> None:
        chart, day, appearances = record
        key = (chart, day)
        replacing = key in self._chart_days
        self._chart_days[key] = appearances
        if replacing:
            self._rebuild_chart_index()
        else:
            for appearance in appearances:
                self._chart_by_package.setdefault(
                    appearance.package, []).append(appearance)

    def _rebuild_chart_index(self) -> None:
        self._chart_by_package = {}
        for appearances in self._chart_days.values():
            for appearance in appearances:
                self._chart_by_package.setdefault(
                    appearance.package, []).append(appearance)

    def note_crawl_day(self, day: int) -> None:
        if day not in self.crawl_days:
            self.crawl_days.append(day)

    # -- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return {"log": self._log.state_dict(),
                "crawl_days": list(self.crawl_days)}

    def load_state(self, state: Dict[str, object]) -> None:
        self._log.load_state(state["log"])
        self._locators = {}
        self._package_series = {}
        self._chart_days = {}
        self._chart_by_package = {}
        for locator, record in self._log.items():
            if isinstance(record, ProfileSnapshot):
                self._index_profile(record, locator)
            else:
                self._index_chart(record)  # type: ignore[arg-type]
        self.crawl_days = [int(day) for day in state["crawl_days"]]  # type: ignore[union-attr]

    # -- profile queries -------------------------------------------------------

    def profile(self, package: str, day: int) -> Optional[ProfileSnapshot]:
        locator = self._locators.get((package, day))
        return None if locator is None else self._log.read(locator)

    def profile_packages(self) -> List[str]:
        """Sorted unique packages with at least one archived profile."""
        return sorted(self._package_series)

    def iter_profiles(self) -> Iterator[ProfileSnapshot]:
        """All snapshots in sorted (package, day) order — the canonical
        export order, identical in spill and in-memory modes."""
        for key in sorted(self._locators):
            yield self._log.read(self._locators[key])

    def profile_days(self, package: str) -> List[int]:
        days, _ = self._package_series.get(package, ((), ()))
        return list(days)

    def install_series(self, package: str) -> List[Tuple[int, int]]:
        """[(day, binned installs)] across all crawls of this app."""
        days, floors = self._package_series.get(package, ((), ()))
        return list(zip(days, floors))

    def first_profile(self, package: str) -> Optional[ProfileSnapshot]:
        days = self.profile_days(package)
        return self.profile(package, days[0]) if days else None

    def last_profile(self, package: str) -> Optional[ProfileSnapshot]:
        days = self.profile_days(package)
        return self.profile(package, days[-1]) if days else None

    def filtered(self, keep_days) -> "CrawlArchive":
        """An in-memory copy containing only crawls from ``keep_days``.

        Used by the crawl-cadence ablation: what would the analysis have
        seen with a sparser crawl schedule?  The copy is always
        in-memory — ablations keep a strict subset of the archive.
        """
        keep = set(keep_days)
        copy = CrawlArchive()
        for snapshot in self.iter_profiles():
            if snapshot.day in keep:
                copy.add_profile(snapshot)
        for (chart, day), appearances in self._chart_days.items():
            if day in keep:
                copy.add_chart(chart, day, appearances)
        copy.crawl_days = sorted(day for day in self.crawl_days if day in keep)
        return copy

    # -- chart queries -------------------------------------------------------

    def chart_packages(self, day: int) -> List[str]:
        """Unique packages charted on ``day``, in (chart, rank) order."""
        packages: List[str] = []
        seen = set()
        for (chart, chart_day) in sorted(self._chart_days):
            if chart_day != day:
                continue
            for appearance in self._chart_days[(chart, chart_day)]:
                if appearance.package not in seen:
                    seen.add(appearance.package)
                    packages.append(appearance.package)
        return packages

    def chart_appearances(self, package: str) -> List[ChartAppearance]:
        found = self._chart_by_package.get(package, [])
        return sorted(found, key=lambda a: (a.day, a.chart))

    def charted_on(self, package: str, day: int) -> bool:
        return any(a.day == day for a in self.chart_appearances(package))

    def chart_days_observed(self) -> List[int]:
        return sorted({day for (_, day) in self._chart_days})

    def rank_timeline(self, package: str, chart: str) -> List[Tuple[int, Optional[float]]]:
        """[(day, percentile-or-None)] -- the Figure 5 series."""
        timeline = []
        for day in self.chart_days_observed():
            entries = self._chart_days.get((chart, day), [])
            percentile = None
            for appearance in entries:
                if appearance.package == package:
                    percentile = appearance.percentile
                    break
            timeline.append((day, percentile))
        return timeline


def snapshot_to_state(snapshot: ProfileSnapshot) -> Dict[str, object]:
    return {
        "package": snapshot.package,
        "day": snapshot.day,
        "installs_floor": snapshot.installs_floor,
        "genre": snapshot.genre,
        "release_day": snapshot.release_day,
        "developer_id": snapshot.developer_id,
        "developer_name": snapshot.developer_name,
        "developer_country": snapshot.developer_country,
        "developer_website": snapshot.developer_website,
        "is_game": snapshot.is_game,
    }


def snapshot_from_state(state: Dict[str, object]) -> ProfileSnapshot:
    website = state["developer_website"]
    return ProfileSnapshot(
        package=sys.intern(str(state["package"])),
        day=int(state["day"]),                      # type: ignore[arg-type]
        installs_floor=int(state["installs_floor"]),  # type: ignore[arg-type]
        genre=sys.intern(str(state["genre"])),
        release_day=int(state["release_day"]),      # type: ignore[arg-type]
        developer_id=sys.intern(str(state["developer_id"])),
        developer_name=sys.intern(str(state["developer_name"])),
        developer_country=sys.intern(str(state["developer_country"])),
        developer_website=None if website is None else str(website),
        is_game=bool(state["is_game"]),
    )


def _record_to_state(record: object) -> Dict[str, object]:
    """A log record's JSON form: a profile, or a chart day."""
    if isinstance(record, ProfileSnapshot):
        return snapshot_to_state(record)
    chart, day, appearances = record  # type: ignore[misc]
    return {"chart": chart, "day": day,
            "appearances": [_appearance_to_state(a) for a in appearances]}


def _record_from_state(state: Dict[str, object]) -> object:
    if "appearances" not in state:
        return snapshot_from_state(state)
    return (sys.intern(str(state["chart"])), int(state["day"]),  # type: ignore[arg-type]
            [_appearance_from_state(item)
             for item in state["appearances"]])  # type: ignore[union-attr]


def _appearance_to_state(appearance: ChartAppearance) -> Dict[str, object]:
    return {
        "package": appearance.package,
        "chart": appearance.chart,
        "day": appearance.day,
        "rank": appearance.rank,
        "percentile": appearance.percentile,
    }


def _appearance_from_state(state: Dict[str, object]) -> ChartAppearance:
    return ChartAppearance(
        package=sys.intern(str(state["package"])),
        chart=sys.intern(str(state["chart"])),
        day=int(state["day"]),                # type: ignore[arg-type]
        rank=int(state["rank"]),              # type: ignore[arg-type]
        percentile=float(state["percentile"]),  # type: ignore[arg-type]
    )


#: A side-effect-free fetch result: (snapshot, failure label, retryable).
FetchOutcome = Tuple[Optional[ProfileSnapshot], Optional[str], bool]

#: Label keys of the per-lookup cache and request counters.
_CHART_KEY = label_key({"kind": "chart"})
_PROFILE_KEY = label_key({"kind": "profile"})
_OFFER_PAGE_KEY = label_key({"kind": "offer_page"})


class PlayStoreCrawler(Checkpointed):
    """Scrapes profiles and charts off the HTTPS front end.

    Request-level memoisation: successful profile fetches are cached
    keyed on ``(package, day)`` (charts on ``(chart, day)``), so a
    profile asked for twice on the same store day costs one wire fetch.
    Only *successes* populate the cache — a failed fetch never poisons
    it — and a new day is a new key, so stale data cannot be served.
    Hits and misses surface as ``crawler.cache_hits/cache_misses``
    counters, and every wire fetch is a miss.  Every visit names its
    store day, and each profile fan-out first drops the other days'
    entries: the store day is monotonic, so the crawl never reads an
    earlier day's key and the memo stays one day deep.

    Profile queues: ``crawl_everything`` and ``capture_offer_pages``
    fetch every profile in queue order through
    :class:`~repro.parallel.ShardScheduler`, all on the crawler's one
    client, then apply the side effects — archive writes, retry queue,
    counters — in the same order.  Each visit stamps the client with
    its store day, so with a :class:`~repro.net.client.TlsSessionCache`
    wired in the day's first fetch handshakes in full and every later
    fetch that day resumes.

    A checkpoint holds the counters, the retry queue, the follow list,
    the archive and the client.
    """

    _STATE = ("requests_made", "failures", "retry_queue", "_followed",
              "archive", "_client")
    _TRANSIENT = {
        **dict.fromkeys(
            ("_profile_cache", "_chart_cache"),
            "the per-(key, day) memo: a checkpoint closes its day, and "
            "no later visit looks up an earlier day's key"),
    }

    def __init__(self, client: HttpClient, play_host: str,
                 archive: Optional[CrawlArchive] = None,
                 obs: Optional[Observability] = None,
                 crawl_chart_profiles: bool = False) -> None:
        self._client = client
        self._play_host = play_host
        self.archive = archive or CrawlArchive()
        self.requests_made = 0
        self.failures = 0
        #: Profiles whose fetch failed transiently, carried to the next
        #: crawl visit (the paper's crawler re-tried gaps on later days).
        self.retry_queue: List[str] = []
        self.obs = obs or client.obs
        #: When set, every chart entry's profile is crawled too (the
        #: paper archives charted apps alongside the tracked set); the
        #: cache absorbs the heavy overlap with the tracked packages.
        self.crawl_chart_profiles = crawl_chart_profiles
        self._profile_cache: Dict[Tuple[str, int], ProfileSnapshot] = {}
        self._chart_cache: Dict[Tuple[str, int], List[ChartAppearance]] = {}
        #: Every package ever seen on a chart, in first-seen order; with
        #: ``crawl_chart_profiles`` their profiles are re-crawled every
        #: visit so the archive keeps longitudinal chart-app series.
        self._followed: List[str] = []
        self._followed_set: set = set()

    def should_crawl(self, day: int) -> bool:
        return day % CRAWL_CADENCE_DAYS == 0

    # -- checkpoint/restore ---------------------------------------------------

    def load_state(self, state: Dict[str, object]) -> None:
        super().load_state(state)
        self._followed_set = set(self._followed)

    @property
    def cache_hits(self) -> int:
        return int(self.obs.metrics.counter_total("crawler.cache_hits"))

    @property
    def cache_misses(self) -> int:
        return int(self.obs.metrics.counter_total("crawler.cache_misses"))

    def _prune_caches(self, day: int) -> None:
        """Keep only ``day``'s memo entries; no later lookup can hit
        another day's, so this changes no counter — only memory."""
        self._profile_cache = {key: snapshot for key, snapshot
                               in self._profile_cache.items()
                               if key[1] == day}
        self._chart_cache = {key: appearances for key, appearances
                             in self._chart_cache.items() if key[1] == day}

    def _queue_retry(self, package: str) -> None:
        if package not in self.retry_queue:
            self.retry_queue.append(package)
            self.obs.metrics.inc("monitor.crawl_retry_queued")

    # -- profile fetching ----------------------------------------------------

    def run_fetch_payload(self, package: str) -> FetchOutcome:
        """Fetch and parse one profile (a ``run_specs`` payload); touches
        no crawler state, so the caller applies the outcome."""
        try:
            response = self._client.get(self._play_host,
                                        "/store/apps/details",
                                        params={"id": package})
        except NetError as exc:
            # Transport-level failure: the profile is not gone, the
            # fetch is.  Queue it for the next crawl day.
            return None, type(exc).__name__, True
        if not response.ok:
            # A rate limit or server fault: the app may well exist, so
            # the profile is tried again on the next crawl day.
            return (None, f"http_{response.status}",
                    response.status in RETRIABLE_STATUSES)
        try:
            payload = response.json()
            # Every crawl repeats an app's name, genre and developer;
            # interning keeps one copy of each across the profiles a run
            # keeps and the archive's locator keys.
            snapshot = ProfileSnapshot(
                package=sys.intern(str(payload["package"])),
                day=int(payload["crawl_day"]),
                installs_floor=int(payload["installs_floor"]),
                genre=sys.intern(str(payload["genre"])),
                release_day=int(payload["release_day"]),
                developer_id=sys.intern(str(payload["developer"]["id"])),
                developer_name=sys.intern(str(payload["developer"]["name"])),
                developer_country=sys.intern(
                    str(payload["developer"]["country"])),
                developer_website=payload["developer"]["website"],
                is_game=bool(payload["is_game"]),
            )
        except (NetError, KeyError, TypeError, ValueError):
            # Corrupted profile payload: treat like a transient failure.
            return None, "corrupt_payload", True
        return snapshot, None, False

    def _apply_profile_outcome(self, package: str, outcome: FetchOutcome,
                               is_retry: bool) -> Optional[ProfileSnapshot]:
        """Apply one fetch's side effects (always in the caller)."""
        snapshot, failure, retryable = outcome
        if snapshot is None:
            self.failures += 1
            self.obs.metrics.inc("monitor.crawl_failures", kind="profile",
                                 error=failure)
            if retryable:
                self._queue_retry(package)
            return None
        if is_retry:
            self.obs.metrics.inc("monitor.crawl_retry_recovered")
        self.archive.add_profile(snapshot)
        self._profile_cache[(package, snapshot.day)] = snapshot
        return snapshot

    # -- charts --------------------------------------------------------------

    def crawl_charts(self, day: int) -> int:
        """Scrape every chart; returns the day the store reported."""
        self._client.today = day
        day_seen = -1
        for kind in ChartKind:
            cached = self._chart_cache.get((kind.value, day))
            if cached is not None:
                self.obs.metrics.inc_keyed("crawler.cache_hits", _CHART_KEY)
                self.archive.add_chart(kind.value, day, cached)
                day_seen = day
                continue
            self.obs.metrics.inc_keyed("crawler.cache_misses", _CHART_KEY)
            self.requests_made += 1
            self.obs.metrics.inc_keyed("monitor.crawl_requests", _CHART_KEY)
            try:
                response = self._client.get(self._play_host,
                                            f"/store/charts/{kind.value}")
            except NetError as exc:
                self.failures += 1
                self.obs.metrics.inc("monitor.crawl_failures", kind="chart",
                                     error=type(exc).__name__)
                continue
            if not response.ok:
                self.failures += 1
                self.obs.metrics.inc("monitor.crawl_failures", kind="chart",
                                     error=f"http_{response.status}")
                continue
            try:
                payload = response.json()
                chart_day = int(payload["day"])
                appearances = [
                    ChartAppearance(
                        package=sys.intern(str(entry["package"])),
                        chart=kind.value,
                        day=chart_day,
                        rank=int(entry["rank"]),
                        percentile=float(entry["percentile"]),
                    )
                    for entry in payload["entries"]
                ]
            except (NetError, KeyError, TypeError, ValueError):
                self.failures += 1
                self.obs.metrics.inc("monitor.crawl_failures", kind="chart",
                                     error="corrupt_payload")
                continue
            day_seen = chart_day
            self.archive.add_chart(kind.value, day_seen, appearances)
            self._chart_cache[(kind.value, chart_day)] = appearances
        return day_seen

    # -- full visits ---------------------------------------------------------

    def _crawl_profiles(self, queue: Sequence[str], pending: set,
                        day: int) -> int:
        """Fetch a queue of profiles (cache-filtered) in queue order,
        then apply their side effects in the same order."""
        self._client.today = day
        self._prune_caches(day)
        best_day = -1
        to_fetch: List[Tuple[str, bool]] = []
        for package in queue:
            is_retry = package in pending
            if is_retry:
                self.obs.metrics.inc("monitor.crawl_retry_drained")
            cached = self._profile_cache.get((package, day))
            if cached is not None:
                self.obs.metrics.inc_keyed("crawler.cache_hits",
                                           _PROFILE_KEY)
                best_day = cached.day
                continue
            self.obs.metrics.inc_keyed("crawler.cache_misses", _PROFILE_KEY)
            to_fetch.append((package, is_retry))
        specs = [(package, package) for package, _ in to_fetch]
        outcomes = ShardScheduler.run_specs(specs, self.run_fetch_payload)
        for (package, is_retry), outcome in zip(to_fetch, outcomes):
            self.requests_made += 1
            self.obs.metrics.inc_keyed("monitor.crawl_requests",
                                       _PROFILE_KEY)
            snapshot = self._apply_profile_outcome(package, outcome, is_retry)
            if snapshot is not None:
                best_day = snapshot.day
        return best_day

    def capture_offer_pages(self, packages: Sequence[str], day: int) -> int:
        """Capture the Play listing of every offer *impression*.

        The paper's monitor logged the store page of each offer as it
        was seen, to pin installs/price at observation time.  The same
        package shows up on many walls and countries in one day, so the
        impression stream is heavily duplicated; the duplicates collapse
        to one wire fetch per ``(package, day)`` (the rest count as
        ``crawler.cache_hits``).  Returns the impression count.
        """
        captured = 0
        queue: List[str] = []
        seen_today: set = set()
        for package in packages:
            captured += 1
            self.obs.metrics.inc("monitor.offer_pages")
            if package in seen_today:
                # Served by the (package, day) entry the first
                # impression's fetch populated.
                self.obs.metrics.inc_keyed("crawler.cache_hits",
                                           _OFFER_PAGE_KEY)
                continue
            seen_today.add(package)
            queue.append(package)
        self._crawl_profiles(queue, set(), day)
        return captured

    def crawl_everything(self, packages: Sequence[str], day: int) -> int:
        """One full crawl visit: all charts, the retry queue from the
        previous visit, every tracked profile (deduplicated — a package
        in both the baseline list and the discovered set costs one
        fetch), then optionally every charted app's profile (where the
        cache absorbs the overlap with the tracked set)."""
        best_day = self.crawl_charts(day=day)
        tracked_set = set(packages)
        pending = set(self.retry_queue)
        # Queued on a previous visit but no longer tracked: retry those
        # anyway so the archive keeps its longitudinal series.
        orphaned = [p for p in self.retry_queue if p not in tracked_set]
        self.retry_queue = []
        queue: List[str] = []
        seen = set()
        for package in list(orphaned) + list(packages):
            if package in seen:
                self.obs.metrics.inc("monitor.crawl_deduped")
                continue
            seen.add(package)
            queue.append(package)
        profile_day = self._crawl_profiles(queue, pending, day)
        if profile_day >= 0:
            best_day = profile_day
        if self.crawl_chart_profiles and best_day >= 0:
            # Follow every app that has *ever* charted: the chart
            # analyses need profile series that keep going after an app
            # falls off the charts.  Follow order is first-chart-seen
            # order, so the queue stays deterministic.
            for package in self.archive.chart_packages(best_day):
                if package not in self._followed_set:
                    self._followed_set.add(package)
                    self._followed.append(package)
            chart_day = self._crawl_profiles(self._followed, set(), day)
            if chart_day >= 0:
                best_day = chart_day
        if best_day >= 0:
            self.archive.note_crawl_day(best_day)
        return best_day
