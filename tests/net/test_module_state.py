"""Hidden process-wide state: runs must not grow module-level containers.

A module-level ``dict``, ``list`` or ``set`` outlives every run in the
process, so one that grows per request is both a leak and state no
checkpoint sees.  After a warm-up request on each path, 200 more HTTPS
requests (full handshakes, resumptions through a ``TlsSessionCache``,
and requests through the mitm proxy) must leave every such container in
every loaded ``repro.*`` module at its length.  So must a honey run in a
fresh ``World`` after a smaller one, a 4-day wild run with a detection
hook after a 2-day one, and serve runs with two clients after runs with
one.
"""

from __future__ import annotations

import sys

from repro.core.honey_experiment import HoneyAppExperiment
from repro.core.wild_measurement import WildMeasurement, WildMeasurementConfig
from repro.net.client import TlsSessionCache
from repro.net.proxy import MitmProxy
from repro.net.tls import TrustStore
from repro.serve import ServeRunConfig, run_serve
from repro.simulation.scenarios import WildScenario, WildScenarioConfig
from repro.simulation.world import World

from tests.conftest import make_client

HOST = "api.example.com"
REQUESTS = 200


def module_container_sizes():
    sizes = {}
    for module_name, module in list(sys.modules.items()):
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for name, value in vars(module).items():
            if not name.startswith("__") and isinstance(value,
                                                        (dict, list, set)):
                sizes[f"{module_name}.{name}"] = len(value)
    return sizes


def assert_unchanged(before, after):
    grown = {name: (before.get(name), size) for name, size in after.items()
             if before.get(name) != size}
    assert not grown, f"module-level containers changed size: {grown}"


def test_requests_leave_module_containers_unchanged(fabric, root_ca,
                                                    trust_store, rng,
                                                    https_server):
    full_handshakes = make_client(fabric, trust_store, rng)
    resuming = make_client(fabric, trust_store, rng)
    resuming.session_cache = TlsSessionCache()
    mitm = MitmProxy(fabric, "mitm.example",
                     fabric.asn_db.allocate(16509, rng), rng,
                     upstream_trust=trust_store)
    phone_trust = TrustStore()
    phone_trust.add_root(mitm.ca_certificate())
    intercepted = make_client(fabric, phone_trust, rng,
                              proxy=(mitm.hostname, mitm.port))
    intercepted.session_cache = TlsSessionCache()
    clients = [full_handshakes, resuming, intercepted]
    for client in clients:
        assert client.get(HOST, "/json", params={"n": "warm-up"}).ok
    before = module_container_sizes()

    for index in range(REQUESTS):
        client = clients[index % len(clients)]
        assert client.get(HOST, "/json", params={"n": str(index)}).ok

    assert_unchanged(before, module_container_sizes())
    assert len(mitm.intercepted) == 1 + REQUESTS // len(clients)


def test_honey_run_leaves_module_containers_unchanged():
    HoneyAppExperiment(World(seed=2019), installs_per_iip=40).run()
    before = module_container_sizes()
    HoneyAppExperiment(World(seed=2019), installs_per_iip=80).run()
    assert_unchanged(before, module_container_sizes())


def test_wild_run_leaves_module_containers_unchanged():
    def run_wild(days):
        world = World(seed=2019)
        scenario = WildScenario(world, WildScenarioConfig(
            scale=0.02, measurement_days=days))
        scenario.build()
        WildMeasurement(world, scenario, WildMeasurementConfig(
            measurement_days=days),
            detection=world.detection_hook("wild")).run()

    # The warm-up: ``repro.net.crypto`` memoises RSA work per distinct
    # certificate, and days 2-3 milk through two mitm cells that days
    # 0-1 never use, so a 4-day run first mints every certificate the
    # runs below see.
    run_wild(days=4)
    run_wild(days=2)
    before = module_container_sizes()
    run_wild(days=4)
    assert_unchanged(before, module_container_sizes())


def test_serve_runs_leave_module_containers_unchanged():
    def run_profiles(clients):
        for profile in ("query-heavy", "ingest-heavy"):
            run_serve(ServeRunConfig(days=1, clients=clients,
                                     profile=profile))

    run_profiles(clients=1)
    before = module_container_sizes()
    run_profiles(clients=2)
    assert_unchanged(before, module_container_sizes())
