"""Crash-fault injection: deterministic kill points in the pipeline loops.

Extends PR 2's chaos engine from the network frame to process death.
A :class:`CrashPlan` is consulted at named stages of the wild, honey,
and serve loops; when a kill point fires it raises
:class:`SimulatedCrash`, which the CLI translates into a non-zero exit
after flushing nothing — exactly like a ``kill -9`` would, except the
checkpoint already on disk is the only survivor.

Decisions follow the :class:`repro.net.chaos.FaultPlan` recipe: hash
``(crash seed, stage, day, per-stage op seq)`` through SHA-256 and
compare against the rate, so a same-seed run dies at the same spot
every time and the reference (no-crash) run is untouched — the plan
draws no RNG and records only into the dedicated recovery metrics.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.net.chaos import hashed_roll
from repro.obs import NULL_OBS, Observability

#: A kill point: (stage, day, within-(stage, day) sequence number).
KillPoint = Tuple[str, int, int]


class SimulatedCrash(RuntimeError):
    """The process died here.  Carries the kill point for reporting."""

    def __init__(self, stage: str, day: int, seq: int) -> None:
        super().__init__(
            f"simulated crash at stage {stage!r}, day {day}, seq {seq}")
        self.stage = stage
        self.day = day
        self.seq = seq


def parse_kill_point(text: str) -> KillPoint:
    """Parse a CLI kill-point spec ``stage:day[:seq]``."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"bad kill point {text!r} (expected stage:day[:seq])")
    stage = parts[0]
    try:
        day = int(parts[1])
        seq = int(parts[2]) if len(parts) == 3 else 0
    except ValueError:
        raise ValueError(
            f"bad kill point {text!r} (day/seq must be integers)") from None
    if not stage:
        raise ValueError(f"bad kill point {text!r} (empty stage)")
    return (stage, day, seq)


class CrashPlan:
    """Deterministic process-death schedule.

    ``rate`` enables hashed probabilistic kills per consulted point;
    ``kill_points`` pins explicit ``(stage, day, seq)`` triples — the
    form the recovery tests and the CI job use to kill a run at *every*
    injected point in turn.  An exhausted explicit point never fires
    twice: the resumed process passes the same point again and must
    survive it, which callers get by constructing the resumed run
    without the plan (the CLI's ``--resume`` does exactly that unless
    crash flags are given again).
    """

    def __init__(self, seed: int = 0, rate: float = 0.0,
                 kill_points: Sequence[KillPoint] = (),
                 obs: Optional[Observability] = None) -> None:
        self.seed = seed
        self.rate = rate
        self.kill_points = frozenset(kill_points)
        self.obs = obs or NULL_OBS
        self._seq: Dict[Tuple[str, int], int] = {}

    @classmethod
    def at(cls, stage: str, day: int, seq: int = 0,
           obs: Optional[Observability] = None) -> "CrashPlan":
        """A plan that kills at exactly one explicit point."""
        return cls(kill_points=((stage, day, seq),), obs=obs)

    @property
    def enabled(self) -> bool:
        return bool(self.rate > 0.0 or self.kill_points)

    def _hit(self, stage: str, day: int, seq: int) -> bool:
        return hashed_roll(self.seed, "crash", stage, day, seq) < self.rate

    def maybe_crash(self, stage: str, day: int) -> None:
        """Consult the plan at one pipeline point; may not return."""
        if not self.enabled:
            return
        key = (stage, day)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        if (stage, day, seq) in self.kill_points or self._hit(stage, day, seq):
            self.obs.metrics.inc("recovery.crashes_injected", stage=stage)
            raise SimulatedCrash(stage, day, seq)


__all__ = ["CrashPlan", "KillPoint", "SimulatedCrash", "parse_kill_point"]
