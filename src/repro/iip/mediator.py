"""Third-party attribution mediators (appsflyer.com and friends).

The mediator is trusted by both the developer and the IIP: the
advertised app embeds the mediator's SDK, the SDK reports installs and
task completions, and the IIP only disburses payouts that the mediator
certifies.  The paper cites appsflyer's 0.03 USD/user pricing, which is
the fee here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: The mediator's fee per attributed user (appsflyer's pricing).
FEE_PER_USER_USD = 0.03

#: The mediator named in every disbursement.
MEDIATOR_NAME = "appsflyer.example"


@dataclass(frozen=True)
class Conversion:
    """One certified offer completion."""

    offer_id: str
    device_id: str
    day: int
    tasks_completed: Tuple[str, ...]


class AttributionMediator:
    """Tracks SDK postbacks and certifies completions."""

    def __init__(self) -> None:
        self.name = MEDIATOR_NAME
        self._conversions: List[Conversion] = []
        self._seen: Set[Tuple[str, str]] = set()  # (offer, device) dedup

    def report_completion(self, offer_id: str, device_id: str, day: int,
                          tasks_completed: Tuple[str, ...]) -> Optional[Conversion]:
        """SDK postback.  Duplicate (offer, device) pairs are rejected --
        attribution services dedup so one device cannot be paid twice."""
        key = (offer_id, device_id)
        if key in self._seen:
            return None
        self._seen.add(key)
        conversion = Conversion(offer_id=offer_id, device_id=device_id,
                                day=day, tasks_completed=tasks_completed)
        self._conversions.append(conversion)
        return conversion

    # -- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return {
            "conversions": [
                [c.offer_id, c.device_id, c.day, list(c.tasks_completed)]
                for c in self._conversions],
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self._conversions = [
            Conversion(offer_id=str(offer_id), device_id=str(device_id),
                       day=int(day),
                       tasks_completed=tuple(str(t) for t in tasks))
            for offer_id, device_id, day, tasks in (
                state["conversions"])]  # type: ignore[union-attr]
        self._seen = {(c.offer_id, c.device_id)
                      for c in self._conversions}

    def certify(self, offer_id: str, device_id: str) -> bool:
        return (offer_id, device_id) in self._seen

    def conversions_for(self, offer_id: str) -> List[Conversion]:
        return [c for c in self._conversions if c.offer_id == offer_id]

    def conversion_count(self, offer_id: str) -> int:
        return len(self.conversions_for(offer_id))

    @property
    def total_conversions(self) -> int:
        return len(self._conversions)
