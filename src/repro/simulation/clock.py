"""The simulation clock.

Day 0 corresponds to 2019-03-01, the start of the paper's measurement
window; the wild measurement runs through day ~110 (June 2019) and the
Crunchbase snapshot is taken around day 210 (October 2019).
"""

from __future__ import annotations

from repro.checkpointed import Checkpointed


class SimulationClock(Checkpointed):
    """A monotonically advancing day counter."""

    _STATE = ("_day",)

    def __init__(self) -> None:
        self._day = 0

    @property
    def day(self) -> int:
        return self._day

    def advance(self, days: int = 1) -> int:
        if days < 0:
            raise ValueError("the clock does not run backwards")
        self._day += days
        return self._day

    def now(self) -> int:
        """Callable-friendly accessor (servers take ``clock.now``)."""
        return self._day
