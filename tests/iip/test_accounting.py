"""Money-ledger tests: balances, transfers, the Figure-1 waterfall."""

import pytest

from repro.iip.accounting import LedgerEntry, MoneyLedger


class TestWallet:
    """One owner's balance, as the ledger keeps it."""

    def test_deposit_withdraw(self):
        ledger = MoneyLedger()
        ledger.mint("dev", 100, day=0)
        ledger.transfer("dev", "iip", 40, day=0, memo="deposit")
        assert ledger.balance("dev") == pytest.approx(60)
        assert ledger.balance("nobody") == 0.0

    def test_overdraft_rejected(self):
        ledger = MoneyLedger()
        ledger.mint("dev", 5, day=0)
        with pytest.raises(ValueError, match="insufficient funds for 'dev': "
                                             "have 5.00, need 10.00"):
            ledger.transfer("dev", "iip", 10, day=0, memo="x")
        assert ledger.balance("dev") == 5.0
        assert len(ledger.entries()) == 1

    def test_negative_amounts_rejected(self):
        ledger = MoneyLedger()
        with pytest.raises(ValueError, match="cannot deposit a negative"):
            ledger.mint("dev", -1, day=0)
        ledger.mint("dev", 5, day=0)
        with pytest.raises(ValueError, match="negative transfer"):
            ledger.transfer("dev", "iip", -1, day=0, memo="x")
        assert ledger.balance("dev") == 5.0
        assert ledger.balance("iip") == 0.0


class TestMoneyLedger:
    def setup_method(self):
        self.ledger = MoneyLedger()

    def test_mint_and_transfer(self):
        self.ledger.mint("dev", 100, day=0)
        self.ledger.transfer("dev", "iip", 30, day=1, memo="deposit")
        assert self.ledger.balance("dev") == pytest.approx(70)
        assert self.ledger.balance("iip") == pytest.approx(30)

    def test_transfer_without_funds_fails(self):
        with pytest.raises(ValueError):
            self.ledger.transfer("dev", "iip", 1, day=0, memo="x")

    def test_entry_log(self):
        self.ledger.mint("dev", 10, day=0)
        self.ledger.transfer("dev", "iip", 10, day=0, memo="deposit")
        assert self.ledger.entries() == [
            LedgerEntry(day=0, source="<external>", destination="dev",
                        amount_usd=10.0, memo="external deposit"),
            LedgerEntry(day=0, source="dev", destination="iip",
                        amount_usd=10.0, memo="deposit")]

    def test_disbursement_waterfall_conserves_money(self):
        self.ledger.mint("dev", 100, day=0)
        disbursement = self.ledger.disburse(
            offer_id="o1", day=3, developer="dev", iip="Fyber",
            affiliate="cashapp", user="worker-1", mediator="appsflyer",
            advertiser_cost_usd=0.10, user_payout_usd=0.06,
            affiliate_share=0.5, mediator_fee_usd=0.03)
        # Split: margin 0.04 -> affiliate 0.02, iip 0.02; user 0.06; fee 0.03.
        assert disbursement.iip_cut_usd == pytest.approx(0.02)
        assert disbursement.affiliate_cut_usd == pytest.approx(0.02)
        assert disbursement.user_payout_usd == pytest.approx(0.06)
        balances = {
            owner: self.ledger.balance(owner)
            for owner in ("dev", "Fyber", "cashapp", "worker-1", "appsflyer")
        }
        assert balances["dev"] == pytest.approx(100 - 0.10 - 0.03)
        assert balances["Fyber"] == pytest.approx(0.02)
        assert balances["cashapp"] == pytest.approx(0.02)
        assert balances["worker-1"] == pytest.approx(0.06)
        assert balances["appsflyer"] == pytest.approx(0.03)
        assert sum(balances.values()) == pytest.approx(100)

    def test_user_payout_cannot_exceed_cost(self):
        self.ledger.mint("dev", 100, day=0)
        with pytest.raises(ValueError):
            self.ledger.disburse(
                offer_id="o1", day=0, developer="dev", iip="i",
                affiliate="a", user="u", mediator="m",
                advertiser_cost_usd=0.05, user_payout_usd=0.06,
                affiliate_share=0.5, mediator_fee_usd=0.0)

    def test_bad_affiliate_share_rejected(self):
        self.ledger.mint("dev", 1, day=0)
        with pytest.raises(ValueError):
            self.ledger.disburse(
                offer_id="o1", day=0, developer="dev", iip="i",
                affiliate="a", user="u", mediator="m",
                advertiser_cost_usd=0.10, user_payout_usd=0.06,
                affiliate_share=1.5, mediator_fee_usd=0.0)
