"""Deterministic chaos engine: scheduled faults for the network fabric.

The paper's three-month campaign ran against flaky real infrastructure:
apps crashed mid-fuzz, VPN exits dropped, offer-wall APIs rate-limited
and returned garbage.  This module reproduces those failure modes as a
*seeded, fully deterministic* fault schedule so the pipeline's coverage
loss under realistic failure rates is measurable — and so two runs with
the same chaos seed produce byte-identical reports.

Design:

* :class:`ChaosScenario` is the declarative config — per-fault-class
  rates plus explicit outage windows — with named profiles (``off``,
  ``mild``, ``paper``, ``harsh``) selectable from the CLI.
* :class:`FaultPlan` turns a scenario into decisions.  Every decision is
  a pure function of ``(chaos seed, fault class, host, port, day,
  per-host sequence number)`` hashed through SHA-256, so decisions never
  depend on Python's global RNG, wall time, or whether observability is
  wired in.
* :class:`NetworkFabric` owns a plan (an inert one by default) and
  consults it on ``connect()`` and on every observed response frame;
  HTTP servers consult it for application-level faults (429/5xx and
  malformed JSON).  The fabric's historic ``inject_fault`` API is a thin
  wrapper over the plan's static fault table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.checkpointed import Checkpointed
from repro.net.errors import (
    ConnectionRefusedFabricError,
    TransientNetworkError,
)
from repro.parallel.hashing import stable_hash

DayClock = Callable[[], int]
FaultFactory = Callable[[], Exception]

#: Retriable statuses the chaos engine injects at the HTTP layer.
INJECTED_STATUSES: Tuple[int, ...] = (429, 503)


def hashed_roll(*parts: object) -> float:
    """A uniform draw in [0, 1) that is a pure function of ``parts``:
    :func:`~repro.parallel.hashing.stable_hash` over 2**64."""
    return stable_hash(*parts) / 2.0 ** 64


def injected_status(*parts: object) -> int:
    """The status an injected HTTP fault answers with, picked by the
    hashed roll of ``parts``."""
    count = len(INJECTED_STATUSES)
    return INJECTED_STATUSES[int(hashed_roll(*parts) * count) % count]


@dataclass(frozen=True)
class OutageWindow:
    """A persistent outage: ``host`` is down for ``start_day..end_day``
    (inclusive).  ``port`` of ``None`` means every port."""

    host: str
    start_day: int
    end_day: int
    port: Optional[int] = None

    def covers(self, host: str, port: int, day: int) -> bool:
        if host != self.host:
            return False
        if self.port is not None and port != self.port:
            return False
        return self.start_day <= day <= self.end_day


@dataclass(frozen=True)
class ChaosScenario:
    """Declarative chaos config.  All rates are per-event probabilities
    decided deterministically from the chaos seed."""

    name: str = "off"
    seed: int = 0
    #: Transient connect failure (connection reset) per connect attempt.
    connect_failure_rate: float = 0.0
    #: Injected 429/503 per HTTP request reaching a server.
    http_error_rate: float = 0.0
    #: Malformed-JSON body corruption per HTTP response.
    corrupt_json_rate: float = 0.0
    #: Wire-level truncation per response frame (breaks TLS records /
    #: HTTP framing; clients see it as a transport error).
    truncate_rate: float = 0.0
    #: Probability a VPN exit is down for a whole simulation day.
    vpn_outage_rate: float = 0.0
    #: Explicit persistent outages (host down over a day window).
    outages: Tuple[OutageWindow, ...] = ()

    @property
    def enabled(self) -> bool:
        return bool(self.connect_failure_rate or self.http_error_rate
                    or self.corrupt_json_rate or self.truncate_rate
                    or self.vpn_outage_rate or self.outages)

    @classmethod
    def off(cls) -> "ChaosScenario":
        return cls()

    @classmethod
    def profile(cls, name: str, seed: int = 0) -> "ChaosScenario":
        """A named profile; ``paper`` approximates the failure rates the
        authors describe fighting during the in-the-wild campaign."""
        try:
            rates = CHAOS_PROFILES[name]
        except KeyError:
            known = ", ".join(sorted(CHAOS_PROFILES))
            raise ValueError(
                f"unknown chaos profile {name!r} (known: {known})") from None
        return cls(name=name, seed=seed, **rates)


#: Rate tables behind :meth:`ChaosScenario.profile`.
CHAOS_PROFILES: Dict[str, Dict[str, float]] = {
    "off": dict(),
    "mild": dict(connect_failure_rate=0.01, http_error_rate=0.01,
                 corrupt_json_rate=0.005, truncate_rate=0.005,
                 vpn_outage_rate=0.01),
    "paper": dict(connect_failure_rate=0.03, http_error_rate=0.04,
                  corrupt_json_rate=0.02, truncate_rate=0.01,
                  vpn_outage_rate=0.03),
    "harsh": dict(connect_failure_rate=0.10, http_error_rate=0.12,
                  corrupt_json_rate=0.08, truncate_rate=0.04,
                  vpn_outage_rate=0.10),
}


@dataclass(frozen=True)
class HttpFault:
    """An application-level fault decision for one HTTP request."""

    kind: str                      # "status" or "corrupt"
    status: int = 0                # for kind == "status"


def clone_exception(error: Exception) -> Exception:
    """A fresh instance equivalent to ``error``.

    Raising the same exception object twice accumulates ``__traceback__``
    and ``__context__`` state across unrelated connects; fault tables
    therefore store templates and raise copies.
    """
    try:
        copy = type(error)(*error.args)
    except Exception:  # noqa: BLE001 - exotic exception signatures
        import copy as _copy
        copy = _copy.copy(error)
        copy.__traceback__ = None
    return copy


class FaultPlan(Checkpointed):
    """Schedules faults per (host, port) on the simulation day clock.

    All randomness is hashed from the scenario seed; the plan keeps only
    deterministic sequence counters — per ``(host, port)`` for connects,
    per host for HTTP faults and wire frames — so a fault decision is a
    pure function of ``(seed, class, host[, port], day, seq)``.  The
    pipelines run serially in a fixed order, so a same-seed run
    reproduces the exact same fault schedule regardless of
    observability wiring, and a resumed run does too once
    :meth:`load_state` restores the counters.
    """

    def __init__(self, scenario: Optional[ChaosScenario] = None,
                 clock: Optional[DayClock] = None) -> None:
        self.scenario = scenario or ChaosScenario.off()
        self._clock = clock or (lambda: 0)
        self._static: Dict[Tuple[str, int], FaultFactory] = {}
        self._vpn_exits: List[str] = []
        self._connect_seq = {}
        self._http_seq: Dict[str, int] = {}
        self._frame_seq: Dict[str, int] = {}
        #: Decision log totals (deterministic; exposed for reports).
        self.decisions: Dict[str, int] = {}

    # -- wiring ---------------------------------------------------------------

    def bind_clock(self, clock: DayClock) -> None:
        self._clock = clock

    def day(self) -> int:
        return self._clock()

    def mark_vpn_exit(self, hostname: str) -> None:
        if hostname not in self._vpn_exits:
            self._vpn_exits.append(hostname)

    def adopt(self, other: "FaultPlan") -> None:
        """Carry over registrations when a fabric swaps plans."""
        for hostname in other._vpn_exits:
            self.mark_vpn_exit(hostname)
        self._static.update(other._static)

    # -- static fault table (the inject_fault API) ----------------------------

    def inject(self, hostname: str, port: int, error) -> None:
        """Make every connect to (hostname, port) fail.

        ``error`` may be an exception *instance* (stored as a template;
        a fresh copy is raised each time) or a zero-argument factory.
        """
        if isinstance(error, Exception):
            factory: FaultFactory = lambda error=error: clone_exception(error)
        elif callable(error):
            factory = error
        else:
            raise TypeError("error must be an Exception or a factory")
        self._static[(hostname, port)] = factory

    def clear(self, hostname: str, port: int) -> None:
        self._static.pop((hostname, port), None)

    # -- deterministic dice ---------------------------------------------------

    def _hit(self, rate: float, *parts: object) -> bool:
        if rate <= 0.0:
            return False
        return hashed_roll(self.scenario.seed, *parts) < rate

    def _count(self, kind: str) -> None:
        self.decisions[kind] = self.decisions.get(kind, 0) + 1

    def _next_seq(self, table: Dict, key) -> int:
        seq = table.get(key, 0)
        table[key] = seq + 1
        return seq

    # -- decisions ------------------------------------------------------------

    def connect_fault(self, hostname: str, port: int) -> Optional[Exception]:
        """The exception this connect attempt should raise, if any."""
        static = self._static.get((hostname, port))
        if static is not None:
            self._count("static")
            return static()
        scenario = self.scenario
        if not scenario.enabled:
            return None
        day = self.day()
        for window in scenario.outages:
            if window.covers(hostname, port, day):
                self._count("outage")
                return ConnectionRefusedFabricError(
                    f"scheduled outage: {hostname}:{port} down on day {day}")
        if hostname in self._vpn_exits and self._hit(
                scenario.vpn_outage_rate, "vpn", hostname, day):
            self._count("vpn_outage")
            return ConnectionRefusedFabricError(
                f"vpn exit {hostname} dropped (day {day})")
        seq = self._next_seq(self._connect_seq, (hostname, port))
        if self._hit(scenario.connect_failure_rate, "connect",
                     hostname, port, day, seq):
            self._count("connect")
            return TransientNetworkError(
                f"connection reset by {hostname}:{port}")
        return None

    def http_fault(self, hostname: str) -> Optional[HttpFault]:
        """Application-level fault for one request hitting ``hostname``."""
        scenario = self.scenario
        if not scenario.enabled:
            return None
        day = self.day()
        seq = self._next_seq(self._http_seq, hostname)
        if self._hit(scenario.http_error_rate, "http", hostname, day, seq):
            status = injected_status(self.scenario.seed, "status",
                                     hostname, day, seq)
            self._count("http_error")
            return HttpFault(kind="status", status=status)
        if self._hit(scenario.corrupt_json_rate, "json", hostname, day, seq):
            self._count("corrupt_json")
            return HttpFault(kind="corrupt")
        return None

    def corrupt_frame(self, hostname: str, payload: bytes) -> Optional[bytes]:
        """Wire-level response corruption: a truncated copy, or None."""
        scenario = self.scenario
        if not scenario.enabled or not scenario.truncate_rate:
            return None
        if len(payload) < 4:
            return None
        day = self.day()
        seq = self._next_seq(self._frame_seq, hostname)
        if not self._hit(scenario.truncate_rate, "wire", hostname, day, seq):
            return None
        self._count("truncate")
        # Drop the trailing third: enough to break TLS records and HTTP
        # framing, while keeping the frame recognisably a reply.
        keep = max(2, (len(payload) * 2) // 3)
        return payload[:keep]

    @staticmethod
    def corrupt_json_body(body: bytes) -> bytes:
        """Malformed-JSON corruption: the first half of the document."""
        keep = max(1, len(body) // 2)
        return body[:keep]

    # -- checkpoint/restore ---------------------------------------------------
    #
    # The plan's only mutable state is the per-host sequence counters
    # (and the decision totals shown in reports).  Restoring them makes
    # the resumed run consult the hashed schedule at exactly the offsets
    # the uninterrupted run would have reached.

    _STATE = ("_http_seq", "_frame_seq", "decisions", "_connect_seq")
    _connect_seq: Dict[Tuple[str, int], int]


__all__ = [
    "CHAOS_PROFILES",
    "ChaosScenario",
    "FaultPlan",
    "HttpFault",
    "INJECTED_STATUSES",
    "OutageWindow",
    "clone_exception",
    "hashed_roll",
    "injected_status",
]
