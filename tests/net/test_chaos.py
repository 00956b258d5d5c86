"""The chaos engine: deterministic schedules, profiles, fault tables."""

from __future__ import annotations

import pytest

from repro.net.chaos import (
    CHAOS_PROFILES,
    ChaosScenario,
    FaultPlan,
    HttpFault,
    INJECTED_STATUSES,
    OutageWindow,
    clone_exception,
)
from repro.net.errors import (
    ConnectionRefusedFabricError,
    NetError,
    TransientNetworkError,
)
from repro.net.fabric import Endpoint, NetworkFabric

pytestmark = pytest.mark.chaos


# -- scenarios / profiles ----------------------------------------------------


def test_off_scenario_is_disabled():
    assert not ChaosScenario.off().enabled
    assert not ChaosScenario.profile("off").enabled


@pytest.mark.parametrize("name", ["mild", "paper", "harsh"])
def test_named_profiles_enabled(name):
    scenario = ChaosScenario.profile(name, seed=5)
    assert scenario.enabled
    assert scenario.name == name
    assert scenario.seed == 5


def test_unknown_profile_raises_with_known_names():
    with pytest.raises(ValueError, match="paper"):
        ChaosScenario.profile("catastrophic")


def test_profiles_ordered_by_intensity():
    mild = CHAOS_PROFILES["mild"]
    paper = CHAOS_PROFILES["paper"]
    harsh = CHAOS_PROFILES["harsh"]
    for rate in ("connect_failure_rate", "http_error_rate"):
        assert mild[rate] < paper[rate] < harsh[rate]


# -- determinism -------------------------------------------------------------


def _decision_trace(plan, hosts, days=10, per_day=20):
    trace = []
    current = {"day": 0}
    plan.bind_clock(lambda: current["day"])
    for day in range(days):
        current["day"] = day
        for host in hosts:
            for _ in range(per_day):
                fault = plan.connect_fault(host, 443)
                trace.append(type(fault).__name__ if fault else "-")
                http = plan.http_fault(host)
                trace.append(repr(http))
    return trace


def test_same_seed_same_schedule():
    hosts = ["wall.example", "play.example", "exit-br.vpn.example"]
    scenario = ChaosScenario.profile("harsh", seed=99)
    first = _decision_trace(FaultPlan(scenario), hosts)
    second = _decision_trace(FaultPlan(scenario), hosts)
    assert first == second
    assert any(entry != "-" for entry in first)  # harsh actually fires


def test_different_seed_different_schedule():
    hosts = ["wall.example", "play.example"]
    one = _decision_trace(
        FaultPlan(ChaosScenario.profile("harsh", seed=1)), hosts)
    two = _decision_trace(
        FaultPlan(ChaosScenario.profile("harsh", seed=2)), hosts)
    assert one != two


def test_disabled_plan_never_faults():
    plan = FaultPlan(ChaosScenario.off())
    for _ in range(200):
        assert plan.connect_fault("host.example", 443) is None
        assert plan.http_fault("host.example") is None
        assert plan.corrupt_frame("host.example", b"x" * 64) is None


def test_injected_statuses_are_retriable_shapes():
    plan = FaultPlan(ChaosScenario(name="t", seed=3, http_error_rate=1.0))
    fault = plan.http_fault("wall.example")
    assert isinstance(fault, HttpFault)
    assert fault.kind == "status"
    assert fault.status in INJECTED_STATUSES


def test_transient_connect_fault_at_full_rate():
    plan = FaultPlan(ChaosScenario(name="t", seed=3,
                                   connect_failure_rate=1.0))
    fault = plan.connect_fault("wall.example", 443)
    assert isinstance(fault, TransientNetworkError)


# -- outage windows / vpn ----------------------------------------------------


def test_outage_window_covers_day_range_and_port():
    window = OutageWindow(host="iip.example", start_day=3, end_day=5)
    assert window.covers("iip.example", 443, 3)
    assert window.covers("iip.example", 8080, 5)
    assert not window.covers("iip.example", 443, 6)
    assert not window.covers("other.example", 443, 4)
    pinned = OutageWindow(host="iip.example", start_day=0, end_day=9,
                          port=443)
    assert pinned.covers("iip.example", 443, 1)
    assert not pinned.covers("iip.example", 80, 1)


def test_scheduled_outage_raises_refused_inside_window_only():
    scenario = ChaosScenario(
        name="t", seed=0,
        outages=(OutageWindow(host="iip.example", start_day=2, end_day=4),))
    current = {"day": 0}
    plan = FaultPlan(scenario, clock=lambda: current["day"])
    assert plan.connect_fault("iip.example", 443) is None
    current["day"] = 3
    fault = plan.connect_fault("iip.example", 443)
    assert isinstance(fault, ConnectionRefusedFabricError)
    current["day"] = 5
    assert plan.connect_fault("iip.example", 443) is None


def test_vpn_outage_only_hits_marked_exits():
    scenario = ChaosScenario(name="t", seed=4, vpn_outage_rate=1.0)
    plan = FaultPlan(scenario)
    plan.mark_vpn_exit("exit-br.vpn.example")
    fault = plan.connect_fault("exit-br.vpn.example", 8080)
    assert isinstance(fault, ConnectionRefusedFabricError)
    assert plan.connect_fault("not-an-exit.example", 8080) is None


def test_vpn_outage_is_whole_day():
    """The decision is per (exit, day): every connect that day agrees."""
    scenario = ChaosScenario(name="t", seed=11, vpn_outage_rate=0.5)
    current = {"day": 0}
    plan = FaultPlan(scenario, clock=lambda: current["day"])
    plan.mark_vpn_exit("exit-us.vpn.example")
    for day in range(20):
        current["day"] = day
        outcomes = {plan.connect_fault("exit-us.vpn.example", 8080) is None
                    for _ in range(5)}
        assert len(outcomes) == 1


# -- corruption --------------------------------------------------------------


def test_corrupt_frame_truncates_deterministically():
    scenario = ChaosScenario(name="t", seed=8, truncate_rate=1.0)
    payload = b"A" * 90
    first = FaultPlan(scenario).corrupt_frame("wall.example", payload)
    second = FaultPlan(scenario).corrupt_frame("wall.example", payload)
    assert first == second
    assert first is not None and 0 < len(first) < len(payload)


def test_corrupt_json_body_is_invalid_json():
    import json
    body = json.dumps({"offers": [{"offer_id": "o1"}]}).encode()
    corrupted = FaultPlan.corrupt_json_body(body)
    with pytest.raises(Exception):
        json.loads(corrupted.decode("utf-8", "replace"))


# -- static fault table (inject_fault regression) ----------------------------


def test_clone_exception_returns_fresh_equivalent():
    template = ConnectionRefusedFabricError("host down")
    clone = clone_exception(template)
    assert clone is not template
    assert type(clone) is type(template)
    assert clone.args == template.args


def test_inject_fault_raises_fresh_instance_each_time(fabric, rng):
    """Regression: the fabric used to re-raise the *same* exception
    object on every connect, accumulating traceback/context state."""
    asn = fabric.asn_db.asns_in_country("US", kind="eyeball")[0]
    endpoint = Endpoint(address=fabric.asn_db.allocate(asn.number, rng))
    fabric.inject_fault("dead.example", 443,
                        ConnectionRefusedFabricError("dead host"))
    raised = []
    for _ in range(3):
        with pytest.raises(ConnectionRefusedFabricError) as excinfo:
            fabric.connect(endpoint, "dead.example", 443)
        raised.append(excinfo.value)
    assert len({id(exc) for exc in raised}) == 3
    assert all(exc.args == ("dead host",) for exc in raised)
    fabric.clear_fault("dead.example", 443)
    with pytest.raises(NetError):
        # Still refused -- nothing listens there -- but via the normal
        # no-listener path, not the injected fault.
        fabric.connect(endpoint, "dead.example", 443)


def test_inject_fault_accepts_factory(fabric, rng):
    asn = fabric.asn_db.asns_in_country("US", kind="eyeball")[0]
    endpoint = Endpoint(address=fabric.asn_db.allocate(asn.number, rng))
    calls = []

    def factory():
        calls.append(1)
        return TransientNetworkError("flaky")

    fabric.inject_fault("flaky.example", 443, factory)
    for _ in range(2):
        with pytest.raises(TransientNetworkError):
            fabric.connect(endpoint, "flaky.example", 443)
    assert len(calls) == 2


def test_set_chaos_keeps_existing_static_faults_and_vpn_marks():
    fabric = NetworkFabric()
    fabric.inject_fault("dead.example", 443,
                        ConnectionRefusedFabricError("down"))
    fabric.chaos.mark_vpn_exit("exit-de.vpn.example")
    fabric.set_chaos(FaultPlan(ChaosScenario.profile("mild", seed=1)))
    assert "exit-de.vpn.example" in fabric.chaos._vpn_exits
    assert fabric.chaos.connect_fault("dead.example", 443) is not None
