"""Campaign state-machine edge cases and mediator semantics."""

import pytest

from repro.iip.campaigns import Campaign, CampaignState
from repro.iip.mediator import AttributionMediator, Conversion
from repro.iip.offers import OfferCategory, tasks_for
from tests.iip.test_offers import make_offer


def make_campaign(installs=10, payout=0.06, **offer_overrides):
    offer = make_offer(payout_usd=payout, **offer_overrides)
    return Campaign(campaign_id="c1", developer_id="dev", offer=offer,
                    installs_purchased=installs,
                    advertiser_cost_per_install_usd=payout * 1.5)


class TestCampaignStateMachine:
    def test_initial_state_is_pending(self):
        campaign = make_campaign()
        assert campaign.state is CampaignState.PENDING
        assert not campaign.is_live_on(0)

    def test_cannot_deliver_before_launch(self):
        campaign = make_campaign()
        with pytest.raises(ValueError, match="cannot deliver"):
            campaign.record_delivery(1)

    def test_cannot_launch_twice(self):
        campaign = make_campaign()
        campaign.launch(0)
        with pytest.raises(ValueError, match="cannot launch"):
            campaign.launch(1)

    def test_delivery_exhausts(self):
        campaign = make_campaign(installs=3)
        campaign.launch(0)
        campaign.record_delivery(2)
        assert campaign.state is CampaignState.LIVE
        campaign.record_delivery(1)
        assert campaign.state is CampaignState.EXHAUSTED
        assert campaign.remaining == 0

    def test_cannot_overdeliver(self):
        campaign = make_campaign(installs=2)
        campaign.launch(0)
        with pytest.raises(ValueError, match="beyond purchased"):
            campaign.record_delivery(3)

    def test_negative_delivery_rejected(self):
        campaign = make_campaign()
        campaign.launch(0)
        with pytest.raises(ValueError):
            campaign.record_delivery(-1)

    def test_expiry_after_offer_end(self):
        campaign = make_campaign()
        campaign.launch(0)
        campaign.expire(26)  # offer ends day 25
        assert campaign.state is CampaignState.ENDED
        assert not campaign.is_live_on(26)

    def test_expire_is_noop_before_end(self):
        campaign = make_campaign()
        campaign.launch(0)
        campaign.expire(10)
        assert campaign.state is CampaignState.LIVE

    def test_cost_below_payout_rejected(self):
        offer = make_offer(payout_usd=1.0)
        with pytest.raises(ValueError, match="below user payout"):
            Campaign(campaign_id="c", developer_id="d", offer=offer,
                     installs_purchased=1,
                     advertiser_cost_per_install_usd=0.5)

    def test_negative_installs_rejected(self):
        with pytest.raises(ValueError):
            make_campaign(installs=-1)


class TestMediator:
    def test_dedup_per_offer_device(self):
        mediator = AttributionMediator()
        first = mediator.report_completion("o1", "d1", 0, ("install",))
        duplicate = mediator.report_completion("o1", "d1", 1, ("install",))
        assert first is not None
        assert duplicate is None
        assert mediator.total_conversions == 1

    def test_same_device_different_offers_allowed(self):
        mediator = AttributionMediator()
        assert mediator.report_completion("o1", "d1", 0, ()) is not None
        assert mediator.report_completion("o2", "d1", 0, ()) is not None
        assert mediator.total_conversions == 2

    def test_certify(self):
        mediator = AttributionMediator()
        mediator.report_completion("o1", "d1", 0, ())
        assert mediator.certify("o1", "d1")
        assert not mediator.certify("o1", "d2")

    def test_conversions_for(self):
        mediator = AttributionMediator()
        conversion = mediator.report_completion(
            "o1", "d1", 3, ("install", "open"))
        assert conversion == Conversion(
            offer_id="o1", device_id="d1", day=3,
            tasks_completed=("install", "open"))
        assert mediator.total_conversions == 1
        assert not mediator.certify("o2", "d1")


class TestPurchaseValidation:
    def test_zero_purchase_allowed(self):
        # A purchase can round down to nothing delivered; the campaign
        # object itself must tolerate that (the honey CLI exposes
        # --installs-per-iip 0 for dry runs).
        campaign = make_campaign(installs=0)
        campaign.launch(0)
        assert campaign.remaining == 0
