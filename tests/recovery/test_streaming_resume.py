"""Checkpoints a resume cannot honour fail loudly.

A streamed checkpoint resumed materialised, a checkpoint written by an
earlier format version (such as the removed worker-process backend's),
or one whose optional components (the detection hook) differ from the
resuming run's must raise rather than corrupt the run.  That a streamed
crash + resume replays byte-identically, spill truncation included, is
a cell of ``test_determinism_matrix.py``.  Checkpoints also hold no
state keyed by a day they have closed: no later day reads it.  And
they hold each fact once: a log's records or its cursor, never a fold
of the log beside it.
"""

import hashlib
import json

import pytest

from repro.analysis.streams import SpillError
from repro.checkpointed import join_key
from repro.core.honey_experiment import HoneyAppExperiment
from repro.core.wild_measurement import WildMeasurement, WildMeasurementConfig
from repro.recovery import (CheckpointStore, CrashPlan, RecoveryContext,
                            SimulatedCrash)
from repro.recovery.checkpoint import CheckpointMismatch
from repro.simulation.scenarios import WildScenario, WildScenarioConfig
from repro.simulation.world import World

DAYS = 5
SCALE = 0.04
SEED = 11


def build(batch=0, spill_dir=None, detection=False):
    world = World(seed=SEED)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=SCALE, measurement_days=DAYS))
    scenario.build()
    measurement = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=DAYS, batch_devices=batch,
        spill_dir=str(spill_dir) if spill_dir else None),
        detection=world.detection_hook("wild") if detection else None)
    return measurement


class TestStreamedResume:
    def test_streamed_checkpoint_needs_streamed_resume(self, tmp_path):
        root = tmp_path / "ckpt"
        measurement = build(batch=7,
                                   spill_dir=tmp_path / "spill")
        crashing = RecoveryContext.create(
            root, "wild", crash=CrashPlan.at("wild.day", 2))
        with pytest.raises(SimulatedCrash):
            measurement.run(recovery=crashing)
        measurement = build(batch=0)  # materialised resume
        resuming = RecoveryContext.create(root, "wild", resume=True)
        with pytest.raises(SpillError, match="--batch-devices|spill"):
            measurement.run(recovery=resuming)


def crash_wild(root, detection=False):
    """Crash a wild run on day 2, leaving the checkpoints of days 0-1."""
    crashing = RecoveryContext.create(
        root, "wild", crash=CrashPlan.at("wild.day", 2))
    with pytest.raises(SimulatedCrash):
        build(detection=detection).run(recovery=crashing)


def honey(detection):
    world = World(seed=SEED)
    return HoneyAppExperiment(
        world, installs_per_iip=40,
        detection=world.detection_hook("honey") if detection else None)


class TestOptionalComponents:
    """A resume must have the detection hook iff its checkpoint does:
    otherwise the hook's state would land on a run without one, or a
    run's hook would start empty mid-stream."""

    @pytest.mark.parametrize("checkpointed", [True, False],
                             ids=["hook-dropped", "hook-added"])
    def test_wild(self, tmp_path, checkpointed):
        crash_wild(tmp_path, detection=checkpointed)
        resuming = RecoveryContext.create(tmp_path, "wild", resume=True)
        with pytest.raises(ValueError, match="WildMeasurement.detection"):
            build(detection=not checkpointed).run(recovery=resuming)

    @pytest.mark.parametrize("checkpointed", [True, False],
                             ids=["hook-dropped", "hook-added"])
    def test_honey(self, tmp_path, checkpointed):
        crashing = RecoveryContext.create(
            tmp_path, "honey", crash=CrashPlan.at("honey.campaign", 2))
        with pytest.raises(SimulatedCrash):
            honey(detection=checkpointed).run(recovery=crashing)
        resuming = RecoveryContext.create(tmp_path, "honey", resume=True)
        with pytest.raises(ValueError, match=r"roots\['detection'\]"):
            honey(detection=not checkpointed).run(recovery=resuming)


def crash_then_restamp(root, version, edit):
    """Crash a wild run on day 2, then rewrite its newest checkpoint as
    a hash-valid ``version`` document whose state ``edit`` reshaped."""
    crash_wild(root)
    store = CheckpointStore(root, "wild")
    day, state = store.latest()
    edit(state)
    payload = {"format_version": version, "kind": "wild", "day": day,
               "state": state}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    store.path_for(day).write_text(json.dumps({
        "payload": payload,
        "sha256": hashlib.sha256(canonical.encode()).hexdigest()}))


class TestProcessBackendResume:
    def test_process_checkpoint_rejected_by_in_process_resume(
            self, tmp_path):
        # The worker-process backend wrote version-1 checkpoints (with
        # a ``workers`` section); every version-1 file is refused, not
        # skipped into a silent restart from day 0.
        root = tmp_path / "ckpt"
        crash_then_restamp(root, 1, lambda state: state.update(
            workers={"count": 2, "pins": {}, "states": []}))
        measurement = build()
        resuming = RecoveryContext.create(root, "wild", resume=True)
        with pytest.raises(CheckpointMismatch, match="version in .*: 1"):
            measurement.run(recovery=resuming)

    def test_flow_keyed_checkpoint_refused_by_latest(self, tmp_path):
        # Version 2 keyed chaos sequence counters (and TLS sessions) by
        # flow; its three-part keys would not unpack into the per-host
        # tables, so the file is refused by its version before any
        # component loads it.
        root = tmp_path / "ckpt"
        crash_then_restamp(root, 2, lambda state: state["fault_plan"].update(
            connect_seq={join_key("milk:0:US:com.app", "wall.example",
                                  443): 1}))
        with pytest.raises(CheckpointMismatch, match="version in .*: 2"):
            CheckpointStore(root, "wild").latest()

    def test_memo_and_session_checkpoint_refused_by_latest(self, tmp_path):
        # Version 4 carried TLS session tables and the crawler's
        # (key, day) memo; it is refused by its version, like 1 and 2.
        root = tmp_path / "ckpt"
        crash_then_restamp(root, 4, lambda state: state["wild"][
            "crawler"].update(profile_cache={}, chart_cache={}))
        with pytest.raises(CheckpointMismatch, match="version in .*: 4"):
            CheckpointStore(root, "wild").latest()


    def test_chart_day_checkpoint_refused_by_latest(self, tmp_path):
        # Version 6 wrote every chart day, the detector's fold and the
        # ledger's balances beside the logs they are computed from.
        # Version 7 wrote each pipeline's hand-listed sections under
        # their own names (the archive and the crawler's client beside
        # the crawler, serve's ``virtual_now``).  Version 8 wrote RNG
        # states as 625 ints and rows and tuple keys in hand-written
        # layouts (the fault plan's joined ``connect_seq`` keys).  Each
        # is refused by its version, like 1, 2 and 4.
        edits = {
            6: lambda state: state["wild"]["crawler"]["archive"].update(
                chart_days={join_key("top_free", "0"): []}),
            7: lambda state: state.update(
                archive=state["wild"]["crawler"].pop("archive"),
                crawler_client=state["wild"]["crawler"].pop("_client")),
            8: lambda state: state["fault_plan"].update(
                connect_seq={join_key("wall.example", "443"): 1}),
        }
        for version, edit in edits.items():
            root = tmp_path / f"v{version}"
            crash_then_restamp(root, version, edit)
            with pytest.raises(CheckpointMismatch,
                               match=f"version in .*: {version}"):
                CheckpointStore(root, "wild").latest()


#: Checkpoint keys of state keyed by a day the checkpoint has closed:
#: TLS session tables, caches and tickets, and the crawler's (key, day)
#: memo, under the attribute names a ``_STATE`` entry would write.
CLOSED_DAY_KEYS = {"sessions", "upstream_sessions", "session_cache",
                   "tickets", "_profile_cache", "_chart_cache"}


def state_keys(node):
    """Every dict key anywhere in a checkpoint's state."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from state_keys(value)
    elif isinstance(node, list):
        for item in node:
            yield from state_keys(item)


class TestNoClosedDayState:
    def test_wild_checkpoint(self, tmp_path):
        crash_wild(tmp_path)
        _, state = CheckpointStore(tmp_path, "wild").latest()
        assert CLOSED_DAY_KEYS.isdisjoint(state_keys(state))

    def test_honey_checkpoint(self, tmp_path):
        crashing = RecoveryContext.create(
            tmp_path, "honey", crash=CrashPlan.at("honey.campaign", 1))
        with pytest.raises(SimulatedCrash):
            HoneyAppExperiment(World(seed=SEED), installs_per_iip=40).run(
                recovery=crashing)
        _, state = CheckpointStore(tmp_path, "honey").latest()
        assert CLOSED_DAY_KEYS.isdisjoint(state_keys(state))


#: Checkpoint keys of state computed from a log the checkpoint also
#: holds: the archive's chart days (records of its log), the online
#: detector and its bus count (folds of the install log), the ledger's
#: balances (a fold of its transfers) and honey's console counts (each
#: campaign record's ``delivered``).
DERIVED_KEYS = {"chart_days", "online", "events_published", "wallets",
                "console_installs"}


def checkpoints(root, kind):
    """Every checkpoint's state in ``root``, oldest first."""
    store = CheckpointStore(root, kind)
    return [store.load(path)[1]
            for path in sorted(root.glob("checkpoint_*.json"))]


class TestEachFactOnce:
    def test_wild_checkpoints(self, tmp_path):
        world = World(seed=SEED)
        scenario = WildScenario(world, WildScenarioConfig(
            scale=SCALE, measurement_days=DAYS))
        scenario.build()
        WildMeasurement(world, scenario, WildMeasurementConfig(
            measurement_days=DAYS), detection=world.detection_hook("wild"),
        ).run(recovery=RecoveryContext.create(tmp_path, "wild"))
        states = checkpoints(tmp_path, "wild")
        assert len(states) == DAYS
        for state in states:
            assert DERIVED_KEYS.isdisjoint(state_keys(state))

    def test_honey_checkpoints(self, tmp_path):
        world = World(seed=SEED)
        HoneyAppExperiment(world, installs_per_iip=40,
                           detection=world.detection_hook("honey")).run(
            recovery=RecoveryContext.create(tmp_path, "honey"))
        states = checkpoints(tmp_path, "honey")
        assert len(states) == 3
        for state in states:
            assert DERIVED_KEYS.isdisjoint(state_keys(state))

    def test_streamed_archive_section_is_a_cursor(self, tmp_path):
        # Chart days are records of the archive's spilled log, so each
        # checkpoint's archive section is the log's (count, offset)
        # cursor plus the crawl days, however many charts were crawled.
        build(batch=7, spill_dir=tmp_path / "spill").run(
            recovery=RecoveryContext.create(tmp_path / "ckpt", "wild"))
        states = checkpoints(tmp_path / "ckpt", "wild")
        assert len(states) == DAYS
        for state in states:
            archive = state["wild"]["crawler"]["archive"]
            assert set(archive) == {"log", "crawl_days"}
            assert set(archive["log"]) == {"spill"}
            assert len(json.dumps(archive, sort_keys=True,
                                  separators=(",", ":"))) < 1024
        counts = [state["wild"]["crawler"]["archive"]["log"]["spill"]["count"]
                  for state in states]
        assert counts[-1] > counts[0]
