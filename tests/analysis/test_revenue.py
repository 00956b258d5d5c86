"""Cost-recovery economics tests."""

import pytest

from repro.analysis import revenue
from repro.analysis.classify import OfferClassifier
from repro.analysis.revenue import (
    cost_recovery_analysis,
    offer_economics,
    summarize_cost_recovery,
)
from tests.analysis.test_tables import build_dataset


def classified(text):
    return OfferClassifier().classify(text)


def record_for(dataset, offer_id):
    for record in dataset.offers():
        if record.offer_id == offer_id:
            return record
    raise KeyError(offer_id)


class TestOfferEconomics:
    def setup_method(self):
        self.dataset = build_dataset()

    def test_no_activity_offer_barely_earns(self):
        record = record_for(self.dataset, "r1")  # $0.02 install-and-launch
        economics = offer_economics(record, classified(record.description),
                                    ad_libraries=2)
        assert economics.offer_kind == "no_activity"
        assert economics.cost_per_completion == pytest.approx(0.06, abs=0.01)
        assert economics.ad_revenue < 0.01
        assert economics.iap_revenue == 0.0

    def test_usage_offer_buys_ad_minutes(self):
        record = record_for(self.dataset, "f2")  # reach level 10, $0.50
        economics = offer_economics(record, classified(record.description),
                                    ad_libraries=8)
        assert economics.offer_kind == "usage"
        assert economics.ad_revenue > 0.05
        assert economics.ad_revenue < economics.cost_per_completion

    def test_purchase_offer_recoups_via_iap(self):
        record = record_for(self.dataset, "f3")  # $4.99 purchase, $2.98 payout
        economics = offer_economics(record, classified(record.description),
                                    ad_libraries=5)
        assert economics.offer_kind == "purchase"
        assert economics.iap_revenue == pytest.approx(4.99 * 0.7)
        # Even so, the payout+markup usually exceeds the IAP take.
        assert economics.recovery_ratio < 1.2

    def test_arbitrage_offer_earns_commission(self):
        record = record_for(self.dataset, "f4")
        economics = offer_economics(record, classified(record.description),
                                    ad_libraries=6)
        assert economics.offer_kind == "arbitrage"
        assert economics.arbitrage_revenue > 0
        assert economics.total_revenue == pytest.approx(
            economics.ad_revenue + economics.arbitrage_revenue)

    def test_no_ad_libraries_no_ad_revenue(self):
        record = record_for(self.dataset, "f2")
        economics = offer_economics(record, classified(record.description),
                                    ad_libraries=0)
        assert economics.ad_revenue == 0.0

    def test_more_ad_libraries_more_revenue(self):
        record = record_for(self.dataset, "f2")
        text = classified(record.description)
        few = offer_economics(record, text, ad_libraries=1)
        many = offer_economics(record, text, ad_libraries=5)
        assert many.ad_revenue > few.ad_revenue


class TestCostRecoveryAnalysis:
    def test_analysis_covers_scanned_apps_only(self):
        dataset = build_dataset()
        scan = {"com.app.one": 6, "com.app.four": 1}
        economics = cost_recovery_analysis(dataset, scan)
        assert {e.package for e in economics} == {"com.app.one",
                                                  "com.app.four"}

    def test_summary_shape(self):
        dataset = build_dataset()
        scan = {p: 5 for p in dataset.unique_packages()}
        summary = summarize_cost_recovery(cost_recovery_analysis(dataset, scan))
        assert summary.offers_analysed == dataset.offer_count()
        assert 0.0 <= summary.recouping_fraction <= 1.0
        assert set(summary.recovery_by_kind) <= {
            "no_activity", "registration", "usage", "purchase", "arbitrage"}

    def test_paper_conclusion_direct_recovery_is_rare(self):
        # Under default economics, buying engagement does not pay for
        # itself through ads alone -- the paper's scepticism holds.
        dataset = build_dataset()
        scan = {p: 5 for p in dataset.unique_packages()}
        economics = [e for e in cost_recovery_analysis(dataset, scan)
                     if e.offer_kind in ("usage", "registration")]
        assert economics
        assert all(not e.recoups_cost for e in economics)

    def test_high_ecpm_changes_the_answer(self, monkeypatch):
        # The conclusion is an economics statement, not hard-coded:
        # crank eCPM and usage offers start recouping.
        dataset = build_dataset()
        scan = {p: 5 for p in dataset.unique_packages()}
        monkeypatch.setattr(revenue, "ECPM_USD", 60.0)
        economics = [e for e in cost_recovery_analysis(dataset, scan)
                     if e.offer_kind == "usage"]
        assert any(e.recoups_cost for e in economics)

    def test_empty_summary(self):
        summary = summarize_cost_recovery([])
        assert summary.offers_analysed == 0
        assert summary.recouping_fraction == 0.0
