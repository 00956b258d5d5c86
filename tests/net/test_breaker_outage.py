"""CircuitBreaker half-open transitions across OutageWindow boundaries.

A scheduled outage (the chaos engine's persistent host-down window) is
the scenario the breaker exists for: failures open the circuit, a
half-open probe *inside* the window must re-open it, and the first
probe *after* the window closes it again.  These tests drive a real
client against a real server through a day-clocked :class:`FaultPlan`
and pin the full transition sequence — including that the breaker's
checkpointed state resumes mid-window without replaying the schedule.
"""

from __future__ import annotations

import pytest

from repro.net.chaos import ChaosScenario, FaultPlan, OutageWindow
from repro.net.client import CircuitBreaker, HttpClient
from repro.net.errors import CircuitOpenError, ConnectionRefusedFabricError
from repro.obs import Observability

from tests.conftest import make_client, make_https_server

pytestmark = pytest.mark.chaos

HOST = "wall.example.com"


@pytest.fixture()
def obs():
    return Observability()


def make_outage_rig(fabric, root_ca, trust_store, rng, obs,
                    start_day=1, end_day=2, **breaker_kwargs):
    """A server for HOST, an outage window over it, and a breaker-armed
    client with no retry policy (one allow() per get).  The fabric gets
    an observability of its own, which counts the connections it
    accepts without ticking the breaker's op clock."""
    fabric.obs = Observability()
    make_https_server(fabric, root_ca, rng, hostname=HOST)
    clock = {"day": 0}
    scenario = ChaosScenario(
        name="outage", outages=(
            OutageWindow(host=HOST, start_day=start_day, end_day=end_day),))
    fabric.set_chaos(FaultPlan(scenario, clock=lambda: clock["day"]))
    breaker = CircuitBreaker(obs=obs, **breaker_kwargs)
    client = make_client(fabric, trust_store, rng)
    client.obs = obs
    client.retry_policy = None
    client.breaker = breaker
    return clock, client, breaker


def wire_connections(fabric) -> int:
    return fabric.obs.metrics.counter_value("net.fabric.connections",
                                            host=HOST)


def get_outcome(client: HttpClient) -> str:
    try:
        return "ok" if client.get(HOST, "/json").ok else "http_error"
    except CircuitOpenError:
        return "rejected"
    except ConnectionRefusedFabricError:
        return "refused"


class TestHalfOpenAcrossTheWindow:
    def test_probe_inside_the_window_reopens_probe_after_closes(
            self, fabric, root_ca, trust_store, rng, obs):
        clock, client, breaker = make_outage_rig(
            fabric, root_ca, trust_store, rng, obs,
            failure_threshold=2, recovery_ops=3)

        # Day 0: the host is healthy, the circuit is closed.
        assert get_outcome(client) == "ok"

        # Day 1: the outage starts; two refused connects open the
        # circuit, later calls are rejected without touching the wire.
        clock["day"] = 1
        wire_before = wire_connections(fabric)
        assert get_outcome(client) == "refused"
        assert get_outcome(client) == "refused"
        assert breaker.is_open(HOST)
        outcomes = [get_outcome(client) for _ in range(3)]
        # The recovery window (3 ops on the breaker's own clock) is
        # burnt by the rejections themselves; the call after it is the
        # half-open probe — still inside the outage, so it fails and
        # re-opens the circuit for a fresh window.
        assert outcomes == ["rejected", "rejected", "refused"]
        assert breaker.is_open(HOST)
        assert wire_connections(fabric) == wire_before

        # Day 3: the window is over.  Burn the re-opened quarantine;
        # this probe reaches the healed host and closes the circuit.
        clock["day"] = 3
        outcomes = [get_outcome(client) for _ in range(3)]
        assert outcomes == ["rejected", "rejected", "ok"]
        assert not breaker.is_open(HOST)
        assert get_outcome(client) == "ok"

        value = obs.metrics.counter_value
        assert value("net.client.circuit_opened", host=HOST) == 1
        assert value("net.client.circuit_half_open", host=HOST) == 2
        assert value("net.client.circuit_reopened", host=HOST) == 1
        assert value("net.client.circuit_closed", host=HOST) == 1
        assert value("net.client.circuit_rejected", host=HOST) == 4
        assert value("net.client.request_failures", host=HOST,
                     error="ConnectionRefusedFabricError") == 3

    def test_window_boundary_day_still_counts_as_down(
            self, fabric, root_ca, trust_store, rng, obs):
        # end_day is inclusive: a probe landing exactly on it fails.
        clock, client, breaker = make_outage_rig(
            fabric, root_ca, trust_store, rng, obs,
            start_day=1, end_day=1, failure_threshold=1, recovery_ops=1)
        clock["day"] = 1
        assert get_outcome(client) == "refused"       # opens
        assert breaker.is_open(HOST)
        assert get_outcome(client) == "refused"       # immediate probe fails
        assert obs.metrics.counter_value(
            "net.client.circuit_reopened", host=HOST) == 1
        clock["day"] = 2
        assert get_outcome(client) == "ok"            # first post-window probe
        assert not breaker.is_open(HOST)


class TestBreakerStateAcrossRestart:
    def test_restored_breaker_resumes_the_quarantine_mid_window(
            self, fabric, root_ca, trust_store, rng, obs):
        clock, client, breaker = make_outage_rig(
            fabric, root_ca, trust_store, rng, obs,
            failure_threshold=2, recovery_ops=4)
        clock["day"] = 1
        assert get_outcome(client) == "refused"
        assert get_outcome(client) == "refused"
        assert breaker.is_open(HOST)

        # "Crash" mid-outage: checkpoint the breaker, stand up a fresh
        # client + breaker, and restore.
        state = breaker.state_dict()
        restored_obs = Observability()
        restored = CircuitBreaker(failure_threshold=2, recovery_ops=4,
                                  obs=restored_obs)
        restored.load_state(state)
        assert restored.is_open(HOST)
        client2 = make_client(fabric, trust_store, rng)
        client2.obs = restored_obs
        client2.retry_policy = None
        client2.breaker = restored

        # The restored run is still quarantined — no reset-to-closed on
        # restart — and its op clock picks up where the crashed run
        # stopped: three rejections remain before the next probe.
        assert [get_outcome(client2) for _ in range(4)] == \
            ["rejected", "rejected", "rejected", "refused"]
        assert restored.is_open(HOST)
        assert restored_obs.metrics.counter_value(
            "net.client.circuit_reopened", host=HOST) == 1

        # And the post-window probe closes it, same as an uninterrupted
        # breaker would.
        clock["day"] = 3
        assert [get_outcome(client2) for _ in range(4)][-1] == "ok"
        assert not restored.is_open(HOST)

    def test_state_roundtrip_is_lossless(self):
        breaker = CircuitBreaker(failure_threshold=2, recovery_ops=4)
        breaker.allow(HOST)
        breaker.record_failure(HOST)
        breaker.record_failure(HOST)
        clone = CircuitBreaker(failure_threshold=2, recovery_ops=4)
        clone.load_state(breaker.state_dict())
        assert clone.state_dict() == breaker.state_dict()
