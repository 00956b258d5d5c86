"""The honey experiment's column logs against the row logs they replaced.

``RowCollector``, ``RowAnalysis``, ``RowMoneyLedger`` and
``RowMediator`` are the telemetry collector, the Section-3 analysis,
the money ledger and the attribution mediator as they were when every
upload, transfer and conversion was one object: they are the reference.
Every query must agree with it in value and in type, floats bit for
bit, and every ``state_dict`` must encode to the same JSON bytes.
"""

import gc
import json
import random
import types
from collections import Counter, defaultdict
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.affiliates.registry import has_money_keyword
from repro.honeyapp.analysis import (
    FARM_MIN_INSTALLS,
    AcquisitionSummary,
    AutomationSummary,
    CampaignWindow,
    CoInstallSummary,
    EngagementSummary,
    FarmReport,
    HoneyExperimentAnalysis,
)
from repro.honeyapp.app import COLLECT_HOST
from repro.honeyapp.server import StoredEvent, TelemetryServer
from repro.honeyapp.telemetry import (
    EVENT_OPEN,
    EVENT_RECORD_CLICK,
    TelemetryPayload,
)
from repro.iip.accounting import LedgerEntry, MoneyLedger
from repro.iip.mediator import AttributionMediator, Conversion
from repro.net.fabric import NetworkFabric
from repro.net.http import HttpRequest
from repro.net.ip import IPv4Address
from repro.net.server import RequestContext
from repro.net.tls import CertificateAuthority
from repro.users.devices import looks_like_emulator


class RowCollector:
    """Reference: one ``StoredEvent`` per accepted upload."""

    def __init__(self, asn_db):
        self.events = []
        self._asn_db = asn_db

    def ingest(self, upload, address):
        try:
            payload = TelemetryPayload.from_json(upload)
        except (KeyError, TypeError, ValueError):
            return 400
        record = self._asn_db.lookup(address)
        self.events.append(StoredEvent(
            payload=payload,
            source_asn=record.number if record else None,
            source_asn_kind=record.kind if record else None,
            source_country=record.country if record else None))
        return 201

    def state_events(self):
        return [{"payload": stored.payload.to_json(),
                 "source_asn": stored.source_asn,
                 "source_asn_kind": stored.source_asn_kind,
                 "source_country": stored.source_country}
                for stored in self.events]

    def load_events(self, items):
        self.events = [
            StoredEvent(payload=TelemetryPayload.from_json(item["payload"]),
                        source_asn=item["source_asn"],
                        source_asn_kind=item["source_asn_kind"],
                        source_country=item["source_country"])
            for item in items]


class RowAnalysis:
    """Reference: the Section-3 analysis over ``StoredEvent`` rows."""

    def __init__(self, windows, collector, console_installs, install_days):
        self._windows = list(windows)
        self._console = dict(console_installs)
        self._install_days = dict(install_days)
        self._device_window = {}
        self._device_events = defaultdict(list)
        first_event = {}
        ordered = sorted(collector.events, key=lambda s: (
            s.payload.day, s.payload.hour, s.payload.device_id,
            s.payload.event))
        for stored in ordered:
            device_id = stored.payload.device_id
            self._device_events[device_id].append(stored)
            current = first_event.get(device_id)
            key = (stored.payload.day, stored.payload.hour)
            if current is None or key < (current.payload.day,
                                         current.payload.hour):
                first_event[device_id] = stored
        for device_id, stored in first_event.items():
            for window in self._windows:
                if window.contains(stored.payload.day):
                    self._device_window[device_id] = window
                    break

    def devices_for(self, iip_name):
        return sorted(device_id for device_id, window
                      in self._device_window.items()
                      if window.iip_name == iip_name)

    def acquisition(self):
        summaries = []
        for window in self._windows:
            installs = self._console.get(window.campaign_id, 0)
            devices = len(self.devices_for(window.iip_name))
            missing = max(0, installs - devices)
            timestamps = sorted(
                day * 24.0 + hour
                for day, hour in self._install_days.get(window.campaign_id,
                                                        []))
            span = (timestamps[-1] - timestamps[0]
                    if len(timestamps) > 1 else 0.0)
            summaries.append(AcquisitionSummary(
                iip_name=window.iip_name, installs=installs,
                devices_with_telemetry=devices, missing_telemetry=missing,
                missing_fraction=missing / installs if installs else 0.0,
                delivery_hours=span))
        return summaries

    def engagement(self):
        summaries = []
        for window in self._windows:
            installs = self._console.get(window.campaign_id, 0)
            clicked = set()
            clicked_day_after = 0
            for device_id in self.devices_for(window.iip_name):
                events = self._device_events[device_id]
                clicks = [e for e in events
                          if e.payload.event == EVENT_RECORD_CLICK]
                if clicks:
                    clicked.add(device_id)
                first_day = min(e.payload.day for e in events)
                if any(e.payload.day == first_day + 1 for e in clicks):
                    clicked_day_after += 1
            summaries.append(EngagementSummary(
                iip_name=window.iip_name, installs=installs,
                clicked_record=len(clicked),
                click_rate=len(clicked) / installs if installs else 0.0,
                clicked_day_after=clicked_day_after))
        return summaries

    def automation(self):
        emulator_by_iip = Counter()
        cloud_by_iip = Counter()
        block_devices = defaultdict(set)
        for device_id, window in self._device_window.items():
            events = self._device_events[device_id]
            payload = events[0].payload
            if looks_like_emulator(payload.build):
                emulator_by_iip[window.iip_name] += 1
            if any(e.source_asn_kind == "datacenter" for e in events):
                cloud_by_iip[window.iip_name] += 1
            block_devices[payload.ip_slash24].add(device_id)
        farms = []
        for block, devices in sorted(block_devices.items()):
            if len(devices) < FARM_MIN_INSTALLS:
                continue
            rooted = [d for d in devices
                      if self._device_events[d][0].payload.is_rooted]
            ssids = Counter(self._device_events[d][0].payload.ssid_hash
                            for d in rooted)
            farms.append(FarmReport(
                ip_slash24=block, installs=len(devices), rooted=len(rooted),
                rooted_sharing_ssid=max(ssids.values()) if ssids else 0))
        return AutomationSummary(
            emulator_installs=sum(emulator_by_iip.values()),
            emulator_by_iip=dict(emulator_by_iip),
            cloud_asn_devices=sum(cloud_by_iip.values()),
            cloud_by_iip=dict(cloud_by_iip), farms=farms)

    def co_installs(self):
        all_packages = set()
        keyword_fraction = {}
        top_affiliate = {}
        for window in self._windows:
            devices = self.devices_for(window.iip_name)
            if not devices:
                continue
            with_keyword = 0
            package_counter = Counter()
            for device_id in devices:
                packages = set(self._device_events[device_id][0]
                               .payload.installed_packages)
                all_packages.update(packages)
                money_apps = {p for p in packages if has_money_keyword(p)}
                if money_apps:
                    with_keyword += 1
                package_counter.update(money_apps)
            keyword_fraction[window.iip_name] = with_keyword / len(devices)
            if package_counter:
                package, count = package_counter.most_common(1)[0]
                top_affiliate[window.iip_name] = (package,
                                                  count / len(devices))
        return CoInstallSummary(
            total_unique_packages=len(all_packages),
            money_keyword_fraction_by_iip=keyword_fraction,
            top_affiliate_by_iip=top_affiliate)


class RowMoneyLedger:
    """Reference: one ``LedgerEntry`` per transfer, and a balance per
    owner moved by each one."""

    def __init__(self):
        self.balances = {}
        self.entries = []

    def mint(self, owner, amount, day, memo="external deposit"):
        if amount < 0:
            raise ValueError("cannot deposit a negative amount")
        self.balances[owner] = self.balances.get(owner, 0.0) + amount
        self.entries.append(LedgerEntry(day, "<external>", owner, amount,
                                        memo))

    def transfer(self, source, destination, amount, day, memo):
        if amount < 0:
            raise ValueError("negative transfer")
        have = self.balances.get(source, 0.0)
        if amount > have + 1e-9:
            raise ValueError(f"insufficient funds for {source!r}")
        self.balances[source] = have - amount
        self.balances[destination] = (self.balances.get(destination, 0.0)
                                      + amount)
        self.entries.append(LedgerEntry(day, source, destination, amount,
                                        memo))

    def balance(self, owner):
        return self.balances.get(owner, 0.0)

    def state_dict(self):
        return {"entries": [[e.day, e.source, e.destination, e.amount_usd,
                             e.memo] for e in self.entries]}


class RowMediator:
    """Reference: one ``Conversion`` per certified completion."""

    def __init__(self):
        self._conversions = []
        self._seen = set()

    def report_completion(self, offer_id, device_id, day, tasks_completed):
        if (offer_id, device_id) in self._seen:
            return None
        self._seen.add((offer_id, device_id))
        conversion = Conversion(offer_id, device_id, day, tasks_completed)
        self._conversions.append(conversion)
        return conversion

    def state_dict(self):
        return {"conversions": [
            [c.offer_id, c.device_id, c.day, list(c.tasks_completed)]
            for c in self._conversions]}

    def certify(self, offer_id, device_id):
        return (offer_id, device_id) in self._seen

    @property
    def total_conversions(self):
        return len(self._conversions)


CA = CertificateAuthority("Test Root CA", random.Random(7))
#: Twelve devices over two /24s: a block can reach FARM_MIN_INSTALLS.
DEVICES = tuple(f"dev-{index:02d}" for index in range(12))
BUILDS = ("Pixel 3/QQ1A", "generic_x86/sdk", "vbox86p")
SSIDS = ("a1b2c3d4e5f60718", "ffffffffffffffff")
BLOCKS = ("10.1.2.0/24", "10.9.9.0/24")
#: Package names, with the encoding's separators and escapes among them.
NAMES = ("com.a", "com.cashapp.earn", "eu.gcashapp", "", ",", '"', "\\",
         'a","b', "[]", "x\ny", "café", "☃.money", "\x00")
WINDOWS = (CampaignWindow("Fyber", "c-fyber", 1, 4),
           CampaignWindow("RankApp", "c-rank", 7, 9))
CONSOLE = {"c-fyber": 9, "c-rank": 4}
INSTALL_DAYS = {"c-fyber": [(1, 8.5), (2, 3.0)], "c-rank": [(7, 1.25)]}

uploads = st.lists(st.fixed_dictionaries({
    "event": st.sampled_from((EVENT_OPEN, EVENT_RECORD_CLICK)),
    "device_id": st.sampled_from(DEVICES),
    "day": st.integers(0, 11),
    "hour": st.floats(0.0, 24.0, exclude_max=True),
    "build": st.sampled_from(BUILDS),
    "is_rooted": st.booleans(),
    "ssid_hash": st.sampled_from(SSIDS),
    "ip_slash24": st.sampled_from(BLOCKS),
    # Upload order, repeats included: the store keeps it as given.
    "installed_packages": st.lists(
        st.one_of(st.sampled_from(NAMES), st.text(max_size=6)),
        max_size=6),
}), max_size=60)
#: Where each upload comes from: eyeball, datacenter or no ASN.
senders = st.lists(st.sampled_from(("eyeball", "datacenter", None)),
                   min_size=60, max_size=60)
#: Uploads whose packages are replaced by a mistyped list.
mistyped = st.sets(st.integers(0, 59), max_size=3)


def exact(value):
    """``value`` with its type spelled out and floats as ``float.hex``."""
    if isinstance(value, float):
        return ("float", value.hex())
    if is_dataclass(value):
        return (type(value).__name__,
                [exact(getattr(value, f.name)) for f in fields(value)])
    if isinstance(value, dict):
        return ("dict", [(exact(k), exact(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [exact(item) for item in value])
    if isinstance(value, set):
        return ("set", sorted(value))
    return (type(value).__name__, value)


def addresses(fabric):
    rng = random.Random(3)
    asn_db = fabric.asn_db
    found = {
        "eyeball": asn_db.allocate(asn_db.eyeball_asns()[0].number, rng),
        "datacenter": asn_db.allocate(asn_db.datacenter_asns()[0].number,
                                      rng),
        None: IPv4Address.from_string("192.0.2.7"),
    }
    assert asn_db.lookup(found[None]) is None
    return found


def ingest(server, upload, address):
    request = HttpRequest("POST", "/v1/telemetry",
                          body=json.dumps(upload).encode("utf-8"))
    context = RequestContext(client_address=address,
                             server_host=COLLECT_HOST, server_port=443,
                             path_params={})
    return server._ingest(request, context).status


def collect(drawn, kinds, bad):
    fabric = NetworkFabric()
    server = TelemetryServer(fabric, CA, random.Random(5))
    reference = RowCollector(fabric.asn_db)
    sender = addresses(fabric)
    for index, upload in enumerate(drawn):
        if index in bad:
            upload = dict(upload, installed_packages=["com.a", 1])
        address = sender[kinds[index]]
        assert ingest(server, upload, address) == reference.ingest(upload,
                                                                   address)
    return server, reference


def analysis_answers(analysis):
    return exact([[analysis.devices_for(w.iip_name) for w in WINDOWS],
                  analysis.acquisition(), analysis.engagement(),
                  analysis.automation(), analysis.co_installs()])


def collector_answers(server):
    return exact(server.events())


@settings(max_examples=150, deadline=None)
@given(drawn=uploads, kinds=senders, bad=mistyped)
def test_collector_and_analysis_answer_as_the_rows(drawn, kinds, bad):
    server, reference = collect(drawn, kinds, bad)
    assert collector_answers(server) == exact(reference.events)
    assert analysis_answers(HoneyExperimentAnalysis(
        WINDOWS, server, CONSOLE, INSTALL_DAYS)) == analysis_answers(
        RowAnalysis(WINDOWS, reference, CONSOLE, INSTALL_DAYS))
    state = server.state_dict()
    assert json.dumps(state["events"]) == json.dumps(
        reference.state_events())
    # Through JSON, as a checkpoint stores it.
    restored = TelemetryServer(NetworkFabric(), CA, random.Random(5))
    restored.load_state(json.loads(json.dumps(state)))
    reference.load_events(json.loads(json.dumps(state["events"])))
    assert collector_answers(restored) == exact(reference.events)
    assert json.dumps(restored.state_dict()) == json.dumps(state)


OWNERS = ("dev", "iip", "affiliate", "worker-1", "worker-2")
MEMOS = ("offer o1: advertiser cost", "offer o1: user reward", "fee")
amounts = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)
operations = st.lists(st.one_of(
    st.tuples(st.just("mint"), st.sampled_from(OWNERS), amounts,
              st.integers(0, 40), st.sampled_from(MEMOS)),
    st.tuples(st.just("transfer"), st.sampled_from(OWNERS),
              st.sampled_from(OWNERS), amounts, st.integers(0, 40),
              st.sampled_from(MEMOS)),
), max_size=40)


def apply(ledger, operation):
    try:
        if operation[0] == "mint":
            _, owner, amount, day, memo = operation
            ledger.mint(owner, amount, day=day, memo=memo)
        else:
            _, source, destination, amount, day, memo = operation
            ledger.transfer(source, destination, amount, day=day, memo=memo)
    except ValueError:
        return "refused"
    return "done"


def ledger_answers(ledger, entries):
    return exact([entries, [ledger.balance(owner) for owner in OWNERS],
                  json.dumps(ledger.state_dict())])


@settings(max_examples=150, deadline=None)
@given(drawn=operations)
def test_ledger_answers_as_the_rows(drawn):
    ledger, reference = MoneyLedger(), RowMoneyLedger()
    for operation in drawn:
        assert apply(ledger, operation) == apply(reference, operation)
    assert ledger_answers(ledger, ledger.entries()) == ledger_answers(
        reference, reference.entries)
    restored = MoneyLedger()
    restored.load_state(json.loads(json.dumps(ledger.state_dict())))
    assert ledger_answers(restored, restored.entries()) == ledger_answers(
        ledger, ledger.entries())


OFFERS = ("o1", "o2")
TASKS = ((), ("install",), ("install", "open"))
completions = st.lists(st.tuples(
    st.sampled_from(OFFERS), st.sampled_from(DEVICES[:4]),
    st.integers(0, 40), st.sampled_from(TASKS)), max_size=30)


def mediator_answers(mediator):
    return exact([
        [[mediator.certify(offer, device) for device in DEVICES[:5]]
         for offer in OFFERS + ("o3",)],
        mediator.total_conversions,
        json.dumps(mediator.state_dict())])


@settings(max_examples=100, deadline=None)
@given(drawn=completions)
def test_mediator_answers_as_the_rows(drawn):
    mediator, reference = AttributionMediator(), RowMediator()
    for completion in drawn:
        assert exact(mediator.report_completion(*completion)) == exact(
            reference.report_completion(*completion))
    assert mediator_answers(mediator) == mediator_answers(reference)
    restored = AttributionMediator()
    restored.load_state(json.loads(json.dumps(mediator.state_dict())))
    assert mediator_answers(restored) == mediator_answers(mediator)


def reachable(root):
    """How many objects ``root`` reaches, not following classes,
    modules or functions (shared by every instance)."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def objects_after(count):
    """Objects the collector's store and the ledger reach after
    ``count`` uploads from three devices and ``count`` transfers among
    three owners.  (The whole server also reaches its HTTPS stack,
    whose op counters are ints: their identities vary with the count.)"""
    fabric = NetworkFabric()
    server = TelemetryServer(fabric, CA, random.Random(5))
    sender = addresses(fabric)
    ledger = MoneyLedger()
    ledger.mint("dev", 1e9, day=0)
    for index in range(count):
        device = DEVICES[index % 3]
        upload = {"event": (EVENT_OPEN, EVENT_RECORD_CLICK)[index % 2],
                  "device_id": device, "day": index % 30,
                  "hour": (index % 96) / 4, "build": BUILDS[index % 3],
                  "is_rooted": index % 3 == 0, "ssid_hash": SSIDS[0],
                  "ip_slash24": BLOCKS[0],
                  "installed_packages": [f"com.{device}", "com.shared"]}
        assert ingest(server, upload, sender[None]) == 201
        ledger.transfer("dev", OWNERS[1 + index % 3], 0.25 + index % 7,
                        day=index % 30, memo=f"offer o{index % 3}: fee")
    return reachable(server.columns) + reachable(ledger)


def test_object_count_does_not_grow_with_uploads_or_transfers():
    assert objects_after(1000) == objects_after(10)


@pytest.mark.parametrize("value", [1, 1.0])
def test_an_amount_reads_back_as_a_float(value):
    ledger = MoneyLedger()
    ledger.mint("dev", value, day=0)
    assert exact(ledger.entries()[0].amount_usd) == exact(1.0)
