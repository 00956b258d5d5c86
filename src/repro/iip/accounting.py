"""Money flow: wallets and the disbursement ledger.

Figure 1 of the paper traces one dollar through the ecosystem: the
developer deposits with the IIP (1b), the IIP pays the affiliate app
after certified completion (6), and the affiliate pays the user (7),
each intermediary keeping a cut.  ``MoneyLedger.disburse`` implements
exactly that waterfall and the tests assert conservation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Wallet:
    """A named account with a non-negative balance."""

    owner: str
    balance_usd: float = 0.0

    def deposit(self, amount: float) -> None:
        if amount < 0:
            raise ValueError("cannot deposit a negative amount")
        self.balance_usd += amount

    def withdraw(self, amount: float) -> None:
        if amount < 0:
            raise ValueError("cannot withdraw a negative amount")
        if amount > self.balance_usd + 1e-9:
            raise ValueError(
                f"insufficient funds for {self.owner!r}: "
                f"have {self.balance_usd:.2f}, need {amount:.2f}")
        self.balance_usd -= amount


@dataclass(frozen=True)
class LedgerEntry:
    """One transfer between two wallets."""

    day: int
    source: str
    destination: str
    amount_usd: float
    memo: str


@dataclass(frozen=True)
class Disbursement:
    """How one completed offer's payout was split."""

    offer_id: str
    advertiser_cost_usd: float
    iip_cut_usd: float
    affiliate_cut_usd: float
    user_payout_usd: float
    mediator_fee_usd: float


class MoneyLedger:
    """All wallets plus an append-only transfer log."""

    def __init__(self) -> None:
        self._wallets: Dict[str, Wallet] = {}
        self.entries: List[LedgerEntry] = []

    def wallet(self, owner: str) -> Wallet:
        found = self._wallets.get(owner)
        if found is None:
            found = Wallet(owner=owner)
            self._wallets[owner] = found
        return found

    def mint(self, owner: str, amount: float, day: int, memo: str = "external deposit") -> None:
        """Money entering the system from outside (developer's bank)."""
        self.wallet(owner).deposit(amount)
        self.entries.append(LedgerEntry(day=day, source="<external>",
                                        destination=owner,
                                        amount_usd=amount, memo=memo))

    def transfer(self, source: str, destination: str, amount: float,
                 day: int, memo: str) -> None:
        if amount < 0:
            raise ValueError("negative transfer")
        self.wallet(source).withdraw(amount)
        self.wallet(destination).deposit(amount)
        self.entries.append(LedgerEntry(day=day, source=source,
                                        destination=destination,
                                        amount_usd=amount, memo=memo))

    # -- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return {
            "wallets": {owner: wallet.balance_usd
                        for owner, wallet in sorted(self._wallets.items())},
            "entries": [
                [entry.day, entry.source, entry.destination,
                 entry.amount_usd, entry.memo]
                for entry in self.entries],
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self._wallets = {
            str(owner): Wallet(owner=str(owner),
                               balance_usd=float(balance))
            for owner, balance in state["wallets"].items()}  # type: ignore[union-attr]
        self.entries = [
            LedgerEntry(day=int(day), source=str(source),
                        destination=str(destination),
                        amount_usd=float(amount), memo=str(memo))
            for day, source, destination, amount, memo in (
                state["entries"])]  # type: ignore[union-attr]

    def total_received(self, owner: str) -> float:
        return sum(entry.amount_usd for entry in self.entries
                   if entry.destination == owner)

    def total_sent(self, owner: str) -> float:
        return sum(entry.amount_usd for entry in self.entries
                   if entry.source == owner)

    def disburse(
        self,
        offer_id: str,
        day: int,
        developer: str,
        iip: str,
        affiliate: str,
        user: str,
        mediator: str,
        advertiser_cost_usd: float,
        user_payout_usd: float,
        affiliate_share: float,
        mediator_fee_usd: float,
    ) -> Disbursement:
        """Run the Figure-1 waterfall for one certified completion.

        ``advertiser_cost_usd`` leaves the developer's deposit; the user
        receives ``user_payout_usd``; the affiliate receives a
        ``affiliate_share`` fraction of the margin above the user payout;
        the mediator charges the developer its per-user fee; the IIP
        keeps the rest.
        """
        if user_payout_usd > advertiser_cost_usd:
            raise ValueError("user payout exceeds advertiser cost")
        if not 0.0 <= affiliate_share <= 1.0:
            raise ValueError("affiliate share out of range")
        margin = advertiser_cost_usd - user_payout_usd
        affiliate_cut = margin * affiliate_share
        iip_cut = margin - affiliate_cut
        self.transfer(developer, iip, advertiser_cost_usd, day,
                      f"offer {offer_id}: advertiser cost")
        self.transfer(iip, affiliate, affiliate_cut + user_payout_usd, day,
                      f"offer {offer_id}: affiliate payout")
        self.transfer(affiliate, user, user_payout_usd, day,
                      f"offer {offer_id}: user reward")
        self.transfer(developer, mediator, mediator_fee_usd, day,
                      f"offer {offer_id}: attribution fee")
        return Disbursement(
            offer_id=offer_id,
            advertiser_cost_usd=advertiser_cost_usd,
            iip_cut_usd=iip_cut,
            affiliate_cut_usd=affiliate_cut,
            user_payout_usd=user_payout_usd,
            mediator_fee_usd=mediator_fee_usd,
        )
