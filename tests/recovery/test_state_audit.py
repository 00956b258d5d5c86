"""The state audit: a resume restores everything a run mutated.

For each pipeline, run A goes uninterrupted, writing checkpoints, to
the kill point just after checkpoint k; run B resumes a fresh world
from checkpoint k and stops at that same kill point.  The audit walks
every attribute reachable from the two runs' checkpoint roots side by
side and names each ``Class.attribute`` where they differ, unless that
class's ``_TRANSIENT`` map declares the attribute (with the reason a
resume may leave it to the constructor), plus every ``_TRANSIENT``
entry that names an attribute no instance of its class has.  So an
attribute a component gains and nobody checkpoints fails here, whether
or not any determinism-matrix kill point happens to read it.  Both
runs' roots must also encode to the same checkpoint bytes.

What the walk compares: scalars, bytes and ``array``s by value (NaN
equals NaN), RNGs by their state, sequences element by element, sets
and dict key sets by equality (``OrderedDict`` key order too), and the
instance attributes (``__dict__`` and ``__slots__``) of every object
whose class is defined in ``repro``; the entries of a ``repro`` dict
subclass count as its attribute ``items``.  Any other object (a
function, a file, an asyncio handle) is compared by type only.
"""

import json
import random
from array import array
from collections import OrderedDict, deque

import pytest

from repro.checkpointed import encode
from repro.core.honey_experiment import HoneyAppExperiment
from repro.core.wild_measurement import WildMeasurement, WildMeasurementConfig
from repro.honeyapp.server import TelemetryServer
from repro.net.chaos import ChaosScenario
from repro.net.client import CircuitBreaker
from repro.obs import Observability
from repro.recovery import CrashPlan, RecoveryContext, SimulatedCrash
from repro.serve.runner import ServeRunConfig, run_serve
from repro.simulation.scenarios import WildScenario, WildScenarioConfig
from repro.simulation.world import World

SEED = 11
CHAOS = dict(name="paper", seed=7)


class AuditedRecovery(RecoveryContext):
    """Remembers the roots its pipeline last checkpointed or restored:
    after the kill point they are the run's live objects."""

    roots = None

    def checkpoint(self, day, roots):
        self.roots = roots
        super().checkpoint(day, roots)

    def restore(self, day, roots, state):
        self.roots = roots
        super().restore(day, roots, state)


def _attributes(obj):
    names = set(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        slots = getattr(klass, "__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name not in ("__dict__", "__weakref__") and hasattr(obj, name):
                names.add(name)
    return names


def audit(roots_a, roots_b):
    """Sorted ``Class.attribute`` labels where the two graphs differ
    beyond their classes' ``_TRANSIENT`` declarations."""
    found = set()
    seen = set()
    #: class -> (its _TRANSIENT names, the attributes its instances had)
    classes = {}
    stack = [(roots_a, roots_b, "roots")]
    while stack:
        a, b, where = stack.pop()
        if a is b or (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        kind = type(a)
        if kind is not type(b):
            found.add(where)
        elif kind is float:
            if a != b and not (a != a and b != b):
                found.add(where)
        elif isinstance(a, (str, bytes, int, type(None), array)):
            if a != b:
                found.add(where)
        elif isinstance(a, random.Random):
            if a.getstate() != b.getstate():
                found.add(where)
        elif isinstance(a, (list, tuple, deque)):
            if len(a) != len(b):
                found.add(where)
            else:
                stack.extend((x, y, where) for x, y in zip(a, b))
        elif isinstance(a, (set, frozenset)):
            if a != b:
                found.add(where)
        else:
            repro = kind.__module__.split(".")[0] == "repro"
            transient = getattr(kind, "_TRANSIENT", {}) if repro else {}
            name = kind.__qualname__
            if isinstance(a, dict) and "items" not in transient:
                label = f"{name}.items" if repro else where
                same_keys = (list(a) == list(b) if isinstance(a, OrderedDict)
                             else a.keys() == b.keys())
                if not same_keys:
                    found.add(label)
                else:
                    stack.extend((a[key], b[key], label) for key in a)
            if not repro:
                continue
            names_a, names_b = _attributes(a), _attributes(b)
            classes.setdefault(name, (transient, set()))[1].update(
                names_a | names_b, ("items",) if isinstance(a, dict) else ())
            for attribute in names_a | names_b:
                label = f"{name}.{attribute}"
                if attribute in transient:
                    continue
                if attribute not in names_a or attribute not in names_b:
                    found.add(label)
                else:
                    stack.append((getattr(a, attribute),
                                  getattr(b, attribute), label))
    for name, (transient, seen_names) in classes.items():
        found.update(f"{name}.{attribute} (declared transient, but no "
                     "instance has it)"
                     for attribute in set(transient) - seen_names)
    return sorted(found)


def crash_and_resume(run, root, stage, day):
    """Run A to the kill point ``stage:day``, then run B from the
    checkpoint before it to the same point; both runs' roots."""
    first = AuditedRecovery.create(root, stage.split(".")[0],
                                   crash=CrashPlan.at(stage, day))
    with pytest.raises(SimulatedCrash):
        run(first)
    second = AuditedRecovery.create(root, stage.split(".")[0], resume=True,
                                    crash=CrashPlan.at(stage, day))
    with pytest.raises(SimulatedCrash):
        run(second)
    assert first.roots is not None and second.roots is not None
    return first.roots, second.roots


def run_wild(tmp_path):
    spill = tmp_path / "spill"

    def run(recovery):
        world = World(seed=SEED, chaos=ChaosScenario.profile(**CHAOS))
        scenario = WildScenario(world, WildScenarioConfig(
            scale=0.02, measurement_days=5))
        scenario.build()
        WildMeasurement(world, scenario, WildMeasurementConfig(
            measurement_days=5, batch_devices=7, spill_dir=str(spill)),
            detection=world.detection_hook("wild")).run(recovery=recovery)
    return crash_and_resume(run, tmp_path / "ckpt", "wild.day", 3)


def run_honey(tmp_path):
    def run(recovery):
        world = World(seed=SEED, chaos=ChaosScenario.profile(**CHAOS))
        HoneyAppExperiment(world, installs_per_iip=40,
                           detection=world.detection_hook("honey"),
                           ).run(recovery=recovery)
    return crash_and_resume(run, tmp_path / "ckpt", "honey.campaign", 1)


def run_serve_pipeline(tmp_path):
    def run(recovery):
        run_serve(ServeRunConfig(
            seed=SEED, days=3, clients=2, scale=0.05,
            requests_per_client_day=60.0, chaos_profile=CHAOS["name"],
            chaos_seed=CHAOS["seed"]), obs=Observability(),
            recovery=recovery)
    return crash_and_resume(run, tmp_path / "ckpt", "serve.day", 2)


@pytest.mark.parametrize("pipeline", [run_wild, run_honey,
                                      run_serve_pipeline],
                         ids=["wild", "honey", "serve"])
def test_resume_restores_every_mutated_attribute(tmp_path, pipeline):
    roots_a, roots_b = pipeline(tmp_path)
    assert audit(roots_a, roots_b) == []
    # Checkpointing the restored roots again writes the same bytes.
    assert (json.dumps(encode(roots_a), sort_keys=True)
            == json.dumps(encode(roots_b), sort_keys=True))


def test_audit_names_an_undeclared_attribute(tmp_path, monkeypatch):
    # A component gains a counter the run mutates and no checkpoint
    # holds: the resumed run's counter restarts at 0.
    init, ingest = TelemetryServer.__init__, TelemetryServer._ingest

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.uploads_seen = 0

    def counting_ingest(self, request, context):
        self.uploads_seen += 1
        return ingest(self, request, context)

    monkeypatch.setattr(TelemetryServer, "__init__", counting_init)
    monkeypatch.setattr(TelemetryServer, "_ingest", counting_ingest)
    assert audit(*run_honey(tmp_path)) == ["TelemetryServer.uploads_seen"]


def test_audit_names_a_stale_transient_entry(monkeypatch):
    monkeypatch.setattr(CircuitBreaker, "_TRANSIENT",
                        {"_half_open": "renamed away"})
    assert audit(CircuitBreaker(), CircuitBreaker()) == [
        "CircuitBreaker._half_open (declared transient, but no instance "
        "has it)"]
