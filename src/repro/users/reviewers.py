"""Reviewer identities: paid pools and the organic background.

The fake-review scenario needs two populations with different account
shapes.  Paid review campaigns mostly run through *recurring*
professional accounts — the cross-campaign overlap those accounts leave
behind is the strongest store-side signal ("Towards Understanding and
Detecting Fake Reviews in App Stores") — plus a slice of one-off
throwaway accounts.  Organic reviewers are overwhelmingly one-app
users, with a small enthusiast minority that reviews many apps and
keeps the overlap feature from being a free lunch.

A :class:`ReviewerPool` is deterministic given its draw sequence: the
caller supplies the RNG (the scenario derives one per day), and the
pool only holds the identities minted so far — replaying the same days
in order rebuilds the identical pool, which is exactly what the
checkpoint-resume replay does.
"""

from __future__ import annotations

from typing import List


class ReviewerPool:
    """Mints reviewer ids, reusing existing ones at a caller-set rate."""

    def __init__(self, prefix: str, reuse_probability: float) -> None:
        if not 0.0 <= reuse_probability <= 1.0:
            raise ValueError(
                f"reuse probability out of [0, 1]: {reuse_probability}")
        self.prefix = prefix
        self.reuse_probability = reuse_probability
        self._members: List[str] = []
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._members)

    def draw(self, rng) -> str:
        """One reviewer id: an existing member or a fresh account."""
        if self._members and rng.random() < self.reuse_probability:
            return rng.choice(self._members)
        return self.fresh()

    def fresh(self) -> str:
        """Mint a new member unconditionally."""
        self._next_id += 1
        member = f"{self.prefix}-{self._next_id:06d}"
        self._members.append(member)
        return member

    def members(self) -> List[str]:
        return list(self._members)
