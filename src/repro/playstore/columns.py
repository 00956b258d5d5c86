"""Day-indexed columns: the layout of the store's per-app daily series.

Every per-package daily series (installs by source, engagement) is one
stdlib ``array`` indexed by simulated day: ``'q'`` for counts, ``'d'``
for seconds and dollars.  A column is zero-filled up to the last day
recorded into it, and a day past its end reads as zero, so a day with
zeros and a day never recorded are the same day to every query.
"""

from __future__ import annotations

from array import array


def extend_to(column: array, day: int) -> None:
    """Zero-fill ``column`` so that ``column[day]`` exists (``day >= 0``)."""
    missing = day + 1 - len(column)
    if missing > 0:
        column.frombytes(bytes(missing * column.itemsize))


def day_span(start_day: int, end_day: int) -> slice:
    """The slice of days ``[start_day, end_day]``, clamped at day 0: a
    negative bound must never become a from-the-end index."""
    return slice(max(0, start_day), max(0, end_day + 1))
