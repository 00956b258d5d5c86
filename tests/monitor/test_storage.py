"""Dataset persistence tests (the public data release)."""

import json

import pytest

from repro.analysis.streams import SpillError
from repro.monitor.crawler import ChartAppearance, CrawlArchive
from repro.monitor.dataset import OfferDataset
from repro.monitor.storage import (
    DatasetFormatError,
    load_archive,
    load_offer_records,
    rehydrate_dataset,
    save_archive,
    save_dataset,
)
from tests.analysis.test_tables import SPEC, build_dataset, obs, profile


class TestOfferDatasetRoundTrip:
    def test_round_trip_preserves_records(self, tmp_path):
        dataset = build_dataset()
        path = tmp_path / "offers.json"
        count = save_dataset(dataset, path)
        assert count == dataset.offer_count()
        records = load_offer_records(path)
        reloaded = rehydrate_dataset(records)
        assert reloaded.offer_count() == dataset.offer_count()
        assert reloaded.unique_packages() == dataset.unique_packages()
        original = {(r.iip_name, r.offer_id): r for r in dataset.offers()}
        for record in reloaded.offers():
            source = original[(record.iip_name, record.offer_id)]
            assert record.description == source.description
            assert record.payout_usd == pytest.approx(source.payout_usd)
            assert record.countries == source.countries

    def test_rehydrated_dataset_supports_analysis(self, tmp_path):
        from repro.analysis.characterize import offer_type_table
        dataset = build_dataset()
        path = tmp_path / "offers.json"
        save_dataset(dataset, path)
        reloaded = rehydrate_dataset(load_offer_records(path))
        rows = offer_type_table(reloaded)
        assert rows == offer_type_table(dataset)

    def test_file_is_stable_json(self, tmp_path):
        dataset = build_dataset()
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        save_dataset(dataset, path_a)
        save_dataset(dataset, path_b)
        assert path_a.read_text() == path_b.read_text()

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "something_else",
                                    "format_version": 1}))
        with pytest.raises(DatasetFormatError, match="not an offer dataset"):
            load_offer_records(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "offer_dataset",
                                    "format_version": 99, "offers": []}))
        with pytest.raises(DatasetFormatError, match="version"):
            load_offer_records(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DatasetFormatError):
            load_offer_records(path)

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "kind": "offer_dataset", "format_version": 1,
            "offers": [{"iip": "Fyber"}]}))
        with pytest.raises(DatasetFormatError, match="malformed"):
            load_offer_records(path)

    @pytest.mark.parametrize("offers", [None, 5, {"iip": "Fyber"}],
                             ids=["missing", "number", "object"])
    def test_offers_that_are_not_a_list_rejected(self, tmp_path, offers):
        payload = {"kind": "offer_dataset", "format_version": 1}
        if offers is not None:
            payload["offers"] = offers
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetFormatError, match="'offers'"):
            load_offer_records(path)


class TestArchiveRoundTrip:
    def _archive(self):
        archive = CrawlArchive()
        for day, installs in ((0, 100), (2, 500)):
            archive.add_profile(profile("com.app.one", day, installs,
                                        website="https://dev.example"))
        archive.add_chart("top_free", 2, [
            ChartAppearance("com.app.one", "top_free", 2, 7, 0.97)])
        archive.note_crawl_day(0)
        archive.note_crawl_day(2)
        return archive

    def test_round_trip(self, tmp_path):
        archive = self._archive()
        path = tmp_path / "archive.json"
        count = save_archive(archive, path)
        assert count == 2
        reloaded = load_archive(path)
        assert reloaded.crawl_days == [0, 2]
        assert reloaded.install_series("com.app.one") == [(0, 100), (2, 500)]
        assert reloaded.charted_on("com.app.one", 2)
        snapshot = reloaded.profile("com.app.one", 0)
        assert snapshot.developer_website == "https://dev.example"

    def test_rank_timeline_survives(self, tmp_path):
        archive = self._archive()
        path = tmp_path / "archive.json"
        save_archive(archive, path)
        reloaded = load_archive(path)
        assert reloaded.rank_timeline("com.app.one", "top_free") == [(2, 0.97)]

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "offer_dataset",
                                    "format_version": 1}))
        with pytest.raises(DatasetFormatError):
            load_archive(path)

    @pytest.mark.parametrize("damage", [
        lambda p: p["profiles"][0].pop("developer_website"),
        lambda p: p["profiles"][1].update(installs_floor="many"),
        lambda p: p.pop("profiles"),
        lambda p: p.update(charts={"top_free": []}),
        lambda p: p["charts"][0]["entries"][0].pop("rank"),
        lambda p: p["charts"].append(["top_free", 4]),
        lambda p: p.pop("crawl_days"),
        lambda p: p.update(crawl_days=[0, None]),
    ], ids=["profile-key", "profile-type", "profiles-key", "charts-type",
            "entry-key", "chart-type", "crawl-days-key", "crawl-day-type"])
    def test_malformed_archive_rejected(self, tmp_path, damage):
        path = tmp_path / "archive.json"
        save_archive(self._archive(), path)
        payload = json.loads(path.read_text())
        damage(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetFormatError):
            load_archive(path)


class TestSpilledInstallSeries:
    """A spilled archive answers install series from its in-memory
    index: no spill line is read, and the answer equals an in-memory
    archive's."""

    PACKAGES = ("com.app.one", "com.app.two", "com.app.three")

    @staticmethod
    def archive(profiles, spill_path=None):
        archive = CrawlArchive(spill_path=spill_path)
        for package, day, installs in profiles:
            archive.add_profile(profile(package, day, installs))
        return archive

    @staticmethod
    def refuse_spill_reads(archive, monkeypatch):
        def refuse(locator):
            raise AssertionError(f"spill line read at {locator}")
        monkeypatch.setattr(archive._log, "read", refuse)

    def assert_same_series(self, spilled, memory):
        for package in self.PACKAGES:
            assert spilled.install_series(package) == \
                memory.install_series(package)

    def test_day_added_twice(self, tmp_path, monkeypatch):
        profiles = [("com.app.one", 0, 100), ("com.app.two", 0, 5),
                    ("com.app.one", 2, 500), ("com.app.one", 2, 800),
                    ("com.app.two", 4, 50)]
        memory = self.archive(profiles)
        spilled = self.archive(profiles, str(tmp_path / "profiles.jsonl"))
        self.refuse_spill_reads(spilled, monkeypatch)
        self.assert_same_series(spilled, memory)
        assert spilled.install_series("com.app.one") == [(0, 100), (2, 800)]

    def test_resume_truncates_later_lines(self, tmp_path, monkeypatch):
        path = str(tmp_path / "profiles.jsonl")
        kept = [("com.app.one", 0, 100), ("com.app.one", 2, 500),
                ("com.app.one", 2, 700), ("com.app.two", 0, 5)]
        crashed = self.archive(kept, path)
        state = crashed.state_dict()
        # Written after the checkpoint, then lost to the crash.
        for package, day, installs in (("com.app.one", 2, 900),
                                       ("com.app.one", 4, 1000),
                                       ("com.app.three", 0, 1)):
            crashed.add_profile(profile(package, day, installs))
        crashed.state_dict()  # flushes the lost lines to disk

        resumed = CrawlArchive(spill_path=path)
        resumed.load_state(state)
        memory = CrawlArchive()
        memory.load_state(self.archive(kept).state_dict())
        self.refuse_spill_reads(resumed, monkeypatch)
        self.assert_same_series(resumed, memory)
        assert resumed.install_series("com.app.one") == [(0, 100), (2, 700)]
        assert resumed.profile_packages() == ["com.app.one", "com.app.two"]


ARCHIVE_PACKAGES = ("com.app.one", "com.app.two", "com.app.three")


@pytest.mark.parametrize("spill", [False, True], ids=["memory", "spill"])
class TestArchiveModes:
    """One add sequence, including a (package, day) added twice, gives
    the same answers and the same export from an in-memory archive and
    a spilled one, before and after a checkpoint round trip."""

    PROFILES = [("com.app.one", 0, 100), ("com.app.two", 0, 5),
                ("com.app.one", 2, 500), ("com.app.one", 2, 800),
                ("com.app.two", 4, 50), ("com.app.three", 4, 1)]
    LATER = [("com.app.one", 4, 900), ("com.app.one", 2, 950),
             ("com.app.three", 6, 2)]

    @staticmethod
    def archive(spill, tmp_path, name="profiles.jsonl"):
        return CrawlArchive(
            spill_path=str(tmp_path / name) if spill else None)

    @staticmethod
    def fill(archive, profiles):
        for package, day, installs in profiles:
            archive.add_profile(profile(package, day, installs,
                                        website=f"https://{package}"))
            archive.add_chart("top_free", day, [
                ChartAppearance(package, "top_free", day, 1, 0.99)])
            archive.note_crawl_day(day)
        return archive

    @staticmethod
    def answers(archive, tmp_path):
        path = tmp_path / "export.json"
        save_archive(archive, path)
        per_package = {
            package: (archive.install_series(package),
                      archive.first_profile(package),
                      archive.last_profile(package),
                      [archive.profile(package, day)
                       for day in archive.profile_days(package)])
            for package in ARCHIVE_PACKAGES}
        return per_package, list(archive.iter_profiles()), path.read_bytes()

    def test_answers_match_the_memory_archive(self, spill, tmp_path):
        archive = self.fill(self.archive(spill, tmp_path), self.PROFILES)
        reference = self.fill(CrawlArchive(), self.PROFILES)
        assert archive.profile("com.app.one", 2).installs_floor == 800
        assert self.answers(archive, tmp_path) == \
            self.answers(reference, tmp_path)

    def test_checkpoint_round_trip(self, spill, tmp_path):
        crashed = self.fill(self.archive(spill, tmp_path), self.PROFILES)
        state = json.loads(json.dumps(crashed.state_dict()))
        # Appended after the checkpoint, then lost to the crash; the
        # second state_dict flushes the lost lines to disk.
        self.fill(crashed, self.LATER)
        crashed.state_dict()

        resumed = self.archive(spill, tmp_path)
        resumed.load_state(state)
        reference = self.fill(CrawlArchive(), self.PROFILES)
        assert self.answers(resumed, tmp_path) == \
            self.answers(reference, tmp_path)
        self.fill(resumed, self.LATER)
        self.fill(reference, self.LATER)
        assert self.answers(resumed, tmp_path) == \
            self.answers(reference, tmp_path)

    def test_checkpoint_from_the_other_mode_is_an_error(self, spill,
                                                        tmp_path):
        other = self.fill(self.archive(not spill, tmp_path, "other.jsonl"),
                          self.PROFILES)
        with pytest.raises(SpillError, match="--batch-devices"):
            self.archive(spill, tmp_path).load_state(other.state_dict())


class TestDatasetIngestProperties:
    """Ingestion invariants, via hypothesis."""

    def test_ingest_is_idempotent(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from repro.monitor.dataset import ObservedOffer, OfferDataset

        @settings(max_examples=30)
        @given(st.lists(st.tuples(
            st.sampled_from(["Fyber", "RankApp"]),
            st.integers(min_value=0, max_value=5),    # offer index
            st.integers(min_value=0, max_value=40),   # day
            st.sampled_from(["US", "DE", None]),
        ), max_size=30))
        def check(observations):
            def build(order):
                dataset = OfferDataset({"com.aff.app": SPEC})
                for iip, index, day, country in order:
                    dataset.ingest(ObservedOffer(
                        iip_name=iip, offer_id=f"o{index}",
                        package=f"com.app.n{index}.x", app_title="T",
                        play_store_url="u", description="Install and Launch",
                        payout_points=100, currency="coins",
                        affiliate_package="com.aff.app", country=country,
                        day=day))
                return dataset

            once = build(observations)
            twice = build(observations + observations)
            assert once.offer_count() == twice.offer_count()
            for a, b in zip(once.offers(), twice.offers()):
                assert (a.first_seen_day, a.last_seen_day) == \
                    (b.first_seen_day, b.last_seen_day)
                assert a.countries == b.countries

        check()

    def test_window_invariants(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from repro.monitor.dataset import ObservedOffer, OfferDataset

        @settings(max_examples=30)
        @given(st.lists(st.integers(min_value=0, max_value=100),
                        min_size=1, max_size=20))
        def check(days):
            dataset = OfferDataset({"com.aff.app": SPEC})
            for day in days:
                dataset.ingest(ObservedOffer(
                    iip_name="Fyber", offer_id="o1", package="com.app.x.y",
                    app_title="T", play_store_url="u",
                    description="Install and Launch", payout_points=100,
                    currency="coins", affiliate_package="com.aff.app",
                    country=None, day=day))
            record = dataset.offers()[0]
            assert record.first_seen_day == min(days)
            assert record.last_seen_day == max(days)
            start, end = dataset.campaign_window("com.app.x.y")
            assert (start, end) == (min(days), max(days))

        check()
