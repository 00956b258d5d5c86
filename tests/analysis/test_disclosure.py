"""Responsible-disclosure workflow tests (Section 5.1)."""

import random

import pytest

from repro.disclosure.campaign import DisclosureCampaign
from repro.monitor.crawler import CrawlArchive
from repro.monitor.dataset import OfferDataset
from tests.analysis.test_tables import SPEC, obs, profile


@pytest.fixture()
def world_slice():
    dataset = OfferDataset({"com.aff.app": SPEC})
    dataset.ingest_all([
        obs("Fyber", "f1", "com.pop.big", "Install and Register", 0.30, day=2),
        obs("RankApp", "r9", "com.pop.big", "Install and Launch", 0.02, day=3),
        obs("Fyber", "f2", "com.pop.nosite", "Install and Launch", 0.06, day=2),
        obs("Fyber", "f3", "com.tiny.app", "Install and Launch", 0.06, day=2),
    ])
    archive = CrawlArchive()
    archive.add_profile(profile("com.pop.big", 4, 10_000_000,
                                developer="d-big", name="Big Corp",
                                website="https://bigcorp.example"))
    archive.add_profile(profile("com.pop.nosite", 4, 5_000_000,
                                developer="d-anon", name="Anon"))
    archive.add_profile(profile("com.tiny.app", 4, 1_000, developer="d-tiny"))
    return dataset, archive


class TestTargetSelection:
    def test_popularity_threshold(self, world_slice):
        dataset, archive = world_slice
        campaign = DisclosureCampaign(archive, dataset)
        targets = {t.package for t in campaign.select_targets()}
        assert targets == {"com.pop.big", "com.pop.nosite"}

    def test_notice_lists_all_iips(self, world_slice):
        dataset, archive = world_slice
        campaign = DisclosureCampaign(archive, dataset)
        by_package = {t.package: t for t in campaign.select_targets()}
        assert by_package["com.pop.big"].iips == ("Fyber", "RankApp")

    def test_developer_without_website_is_unreachable(self, world_slice):
        dataset, archive = world_slice
        campaign = DisclosureCampaign(archive, dataset)
        by_package = {t.package: t for t in campaign.select_targets()}
        assert not by_package["com.pop.nosite"].deliverable
        assert by_package["com.pop.big"].deliverable


class TestOutreach:
    def test_notify_sends_only_deliverable(self, world_slice):
        dataset, archive = world_slice
        campaign = DisclosureCampaign(archive, dataset)
        sent = campaign.notify_developers(day=110, rng=random.Random(0))
        assert sent == 1
        assert len(campaign.notices) == 2

    def test_response_model_statistics(self, world_slice):
        dataset, archive = world_slice
        responses = 0
        trials = 400
        for seed in range(trials):
            campaign = DisclosureCampaign(archive, dataset)
            campaign.notify_developers(day=110, rng=random.Random(seed))
            responses += len(campaign.responses)
        # One deliverable notice per trial at the paper's 3/136 rate.
        assert 0.005 < responses / trials < 0.06

    def test_responders_are_unaware_and_blame_marketers(self, world_slice):
        dataset, archive = world_slice
        campaign = DisclosureCampaign(archive, dataset)
        campaign.notify_developers(day=110, rng=random.Random(1),
                                   response_rate=1.0)
        assert campaign.responses
        for response in campaign.responses:
            assert not response.was_aware
            assert response.blames_marketing_org
            assert response.day > 110

    def test_google_acknowledges_only(self, world_slice):
        dataset, archive = world_slice
        campaign = DisclosureCampaign(archive, dataset)
        assert not campaign.google_acknowledged
        campaign.notify_google()
        assert campaign.google_acknowledged

    def test_summary_and_render(self, world_slice):
        dataset, archive = world_slice
        campaign = DisclosureCampaign(archive, dataset)
        campaign.notify_developers(day=110, rng=random.Random(1),
                                   response_rate=1.0)
        campaign.notify_google()
        summary = campaign.summary()
        assert summary["apps_selected"] == 2
        assert summary["notices_sent"] == 1
        assert summary["responses"] == summary["responders_unaware"]
        text = campaign.render()
        assert "Responsible disclosure" in text
        assert "acknowledgement only" in text
