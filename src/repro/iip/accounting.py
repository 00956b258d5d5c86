"""Money flow: wallets and the disbursement ledger.

Figure 1 of the paper traces one dollar through the ecosystem: the
developer deposits with the IIP (1b), the IIP pays the affiliate app
after certified completion (6), and the affiliate pays the user (7),
each intermediary keeping a cut.  ``MoneyLedger.disburse`` implements
exactly that waterfall and the tests assert conservation.

The transfer log is append-only and kept as columns: day and amount in
stdlib ``array``s, and per transfer a reference to its owners' names
(the wallets' own strings) and to its memo (one string per distinct
memo text).  An amount is stored as a float.  :class:`LedgerEntry` rows
are built only when asked for.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple


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


#: The source named by a :meth:`MoneyLedger.mint`.
_EXTERNAL = "<external>"


class MoneyLedger:
    """All wallets plus an append-only transfer log."""

    def __init__(self) -> None:
        self._wallets: Dict[str, Wallet] = {}
        self._days = array("q")
        self._amounts = array("d")
        self._sources: List[str] = []
        self._destinations: List[str] = []
        self._memos: List[str] = []
        #: Each distinct memo text, mapped to itself.
        self._memo_texts: Dict[str, str] = {}

    def wallet(self, owner: str) -> Wallet:
        found = self._wallets.get(owner)
        if found is None:
            found = Wallet(owner=owner)
            self._wallets[owner] = found
        return found

    def _owner(self, name: str) -> str:
        """``name`` as the log keeps it: its wallet's own string."""
        wallet = self._wallets.get(name)
        return name if wallet is None else wallet.owner

    def _log(self, day: int, source: str, destination: str, amount: float,
             memo: str) -> None:
        self._days.append(day)
        self._amounts.append(amount)
        self._sources.append(source)
        self._destinations.append(destination)
        self._memos.append(self._memo_texts.setdefault(memo, memo))

    def mint(self, owner: str, amount: float, day: int, memo: str = "external deposit") -> None:
        """Money entering the system from outside (developer's bank)."""
        wallet = self.wallet(owner)
        wallet.deposit(amount)
        self._log(day, _EXTERNAL, wallet.owner, amount, memo)

    def transfer(self, source: str, destination: str, amount: float,
                 day: int, memo: str) -> None:
        if amount < 0:
            raise ValueError("negative transfer")
        paying = self.wallet(source)
        paying.withdraw(amount)
        receiving = self.wallet(destination)
        receiving.deposit(amount)
        self._log(day, paying.owner, receiving.owner, amount, memo)

    def _rows(self) -> Iterator[Tuple[int, str, str, float, str]]:
        return zip(self._days, self._sources, self._destinations,
                   self._amounts, self._memos)

    def entries(self) -> List[LedgerEntry]:
        """The transfer log as rows, in order."""
        return [LedgerEntry(day=day, source=source, destination=destination,
                            amount_usd=amount, memo=memo)
                for day, source, destination, amount, memo in self._rows()]

    # -- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return {
            "wallets": {owner: wallet.balance_usd
                        for owner, wallet in sorted(self._wallets.items())},
            "entries": [list(row) for row in self._rows()],
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self._wallets = {
            str(owner): Wallet(owner=str(owner),
                               balance_usd=float(balance))
            for owner, balance in state["wallets"].items()}  # type: ignore[union-attr]
        self._days = array("q")
        self._amounts = array("d")
        self._sources, self._destinations, self._memos = [], [], []
        self._memo_texts = {}
        for day, source, destination, amount, memo in (
                state["entries"]):  # type: ignore[union-attr]
            self._log(int(day), self._owner(str(source)),
                      self._owner(str(destination)), float(amount),
                      str(memo))

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
