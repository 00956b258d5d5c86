"""Money flow: balances and the disbursement ledger.

Figure 1 of the paper traces one dollar through the ecosystem: the
developer deposits with the IIP (1b), the IIP pays the affiliate app
after certified completion (6), and the affiliate pays the user (7),
each intermediary keeping a cut.  ``MoneyLedger.disburse`` implements
exactly that waterfall and the tests assert conservation.

The transfer log is append-only and kept as columns: day and amount in
stdlib ``array``s, and per transfer a reference to its owners' names
and to its memo (one string per distinct memo text).  An amount is
stored as a float.  :class:`LedgerEntry` rows are built only when
asked for.  Each owner's balance is one float in a dict keyed by
owner: a fold of the log, so a checkpoint holds the log alone and a
restore replays it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple


@dataclass(frozen=True)
class LedgerEntry:
    """One transfer between two owners."""

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
    """Every owner's balance plus an append-only transfer log."""

    def __init__(self) -> None:
        #: Owner -> balance in USD; an owner the ledger never paid or
        #: charged has none and reads 0.0.
        self._balances: Dict[str, float] = {}
        self._days = array("q")
        self._amounts = array("d")
        self._sources: List[str] = []
        self._destinations: List[str] = []
        self._memos: List[str] = []
        #: Each distinct memo text, mapped to itself.
        self._memo_texts: Dict[str, str] = {}

    def balance(self, owner: str) -> float:
        return self._balances.get(owner, 0.0)

    def _log(self, day: int, source: str, destination: str, amount: float,
             memo: str) -> None:
        self._days.append(day)
        self._amounts.append(amount)
        self._sources.append(source)
        self._destinations.append(destination)
        self._memos.append(self._memo_texts.setdefault(memo, memo))

    def mint(self, owner: str, amount: float, day: int, memo: str = "external deposit") -> None:
        """Money entering the system from outside (developer's bank)."""
        if amount < 0:
            raise ValueError("cannot deposit a negative amount")
        self._balances[owner] = self.balance(owner) + amount
        self._log(day, _EXTERNAL, owner, amount, memo)

    def transfer(self, source: str, destination: str, amount: float,
                 day: int, memo: str) -> None:
        if amount < 0:
            raise ValueError("negative transfer")
        have = self.balance(source)
        if amount > have + 1e-9:
            raise ValueError(
                f"insufficient funds for {source!r}: "
                f"have {have:.2f}, need {amount:.2f}")
        self._balances[source] = have - amount
        self._balances[destination] = self.balance(destination) + amount
        self._log(day, source, destination, amount, memo)

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
        return {"entries": [list(row) for row in self._rows()]}

    def load_state(self, state: Dict[str, object]) -> None:
        """Replay the logged entries through :meth:`mint` and
        :meth:`transfer`: the same float operations in the same order
        give every balance bit for bit.  Decoded names go through one
        dict, so the restored log keeps one string per owner."""
        self._balances = {}
        self._days = array("q")
        self._amounts = array("d")
        self._sources, self._destinations, self._memos = [], [], []
        self._memo_texts = {}
        owners: Dict[str, str] = {}
        for day, source, destination, amount, memo in (
                state["entries"]):  # type: ignore[union-attr]
            destination = owners.setdefault(destination, destination)
            if source == _EXTERNAL:
                self.mint(destination, float(amount), int(day), str(memo))
            else:
                self.transfer(owners.setdefault(source, source),
                              destination, float(amount), int(day),
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
