"""Third-party attribution mediators (appsflyer.com and friends).

The mediator is trusted by both the developer and the IIP: the
advertised app embeds the mediator's SDK, the SDK reports installs and
task completions, and the IIP only disburses payouts that the mediator
certifies.  The paper cites appsflyer's 0.03 USD/user pricing, which is
the fee here.

Certified conversions are kept as columns: the day in a stdlib
``array``, and per conversion a reference to its offer id, its device
id and its task list (one tuple per distinct list).  The only
:class:`Conversion` row built is the one ``report_completion`` returns.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

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
        self._offer_ids: List[str] = []
        self._device_ids: List[str] = []
        self._days = array("q")
        self._tasks: List[Tuple[str, ...]] = []
        #: Each distinct task list, mapped to itself.
        self._task_lists: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        #: offer -> the devices certified for it (the dedup), as dict
        #: keys: a dict holds them in a fraction of a set's memory.
        self._certified: Dict[str, Dict[str, None]] = {}

    def report_completion(self, offer_id: str, device_id: str, day: int,
                          tasks_completed: Tuple[str, ...]) -> Optional[Conversion]:
        """SDK postback.  Duplicate (offer, device) pairs are rejected --
        attribution services dedup so one device cannot be paid twice."""
        devices = self._certified.setdefault(offer_id, {})
        if device_id in devices:
            return None
        devices[device_id] = None
        tasks = self._task_lists.setdefault(tasks_completed, tasks_completed)
        self._offer_ids.append(offer_id)
        self._device_ids.append(device_id)
        self._days.append(day)
        self._tasks.append(tasks)
        return Conversion(offer_id=offer_id, device_id=device_id, day=day,
                          tasks_completed=tasks)

    def _rows(self) -> Iterator[Tuple[str, str, int, Tuple[str, ...]]]:
        return zip(self._offer_ids, self._device_ids, self._days,
                   self._tasks)

    # -- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return {
            "conversions": [
                [offer_id, device_id, day, list(tasks)]
                for offer_id, device_id, day, tasks in self._rows()],
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self._offer_ids, self._device_ids, self._tasks = [], [], []
        self._days = array("q")
        self._task_lists, self._certified = {}, {}
        for offer_id, device_id, day, tasks in (
                state["conversions"]):  # type: ignore[union-attr]
            self.report_completion(str(offer_id), str(device_id), int(day),
                                   tuple(str(t) for t in tasks))

    def certify(self, offer_id: str, device_id: str) -> bool:
        return device_id in self._certified.get(offer_id, ())

    @property
    def total_conversions(self) -> int:
        return len(self._days)
