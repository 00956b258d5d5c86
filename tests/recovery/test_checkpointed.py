"""The declared-state codec: what each kind of attribute becomes, and
what a load restores in place or rebuilds from its annotation."""

import enum
import importlib
import json
import pkgutil
import random
from array import array
from collections import Counter, OrderedDict, defaultdict
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, DefaultDict, Dict, List, Optional, Set, Tuple

import pytest

import repro
from repro.checkpointed import Checkpointed, decode, encode, state_plan


class Leaf(Checkpointed):
    _STATE = ("count", "rng", "tags", "stats", "names", "optional")

    def __init__(self):
        self.count = 0
        self.rng = random.Random(1)
        self.tags = set()
        self.stats = Counter()
        self.names = {}
        self.optional = None


class Owner(Checkpointed):
    _STATE = ("leaves", "cells")

    def __init__(self, leaves=2):
        self.leaves = [Leaf() for _ in range(leaves)]
        self.cells = {"a": Leaf(), "b": Leaf()}


def mutated():
    owner = Owner()
    leaf = owner.leaves[1]
    leaf.count = 3
    leaf.rng.random()
    leaf.tags.update({"y", "x"})
    leaf.stats["hits"] += 2
    leaf.names["host"] = ["one", "two"]
    owner.cells["b"].optional = 1.5
    return owner


def test_round_trip_restores_every_kind_in_place():
    owner = mutated()
    state = json.loads(json.dumps(encode({"owner": owner})))
    assert state["owner"]["leaves"][1]["tags"] == ["x", "y"]
    fresh = Owner()
    rng, leaves = fresh.leaves[1].rng, fresh.leaves
    decode({"owner": fresh}, state)
    assert fresh.leaves is leaves and fresh.leaves[1].rng is rng
    assert rng.getstate() == owner.leaves[1].rng.getstate()
    leaf = fresh.leaves[1]
    assert (leaf.count, leaf.tags, leaf.names) == (3, {"x", "y"},
                                                    {"host": ["one", "two"]})
    assert type(leaf.stats) is Counter and leaf.stats == {"hits": 2}
    assert fresh.cells["b"].optional == 1.5
    assert fresh.state_dict() == owner.state_dict()


def test_loaded_values_do_not_alias_the_state():
    state = mutated().state_dict()
    fresh = Owner()
    fresh.load_state(state)
    fresh.leaves[1].names["host"].append("three")
    assert state["leaves"][1]["names"]["host"] == ["one", "two"]


class Kind(enum.Enum):
    SMALL = "small"
    LARGE = "large"


@dataclass(frozen=True)
class Span:
    name: str
    bounds: Tuple[int, float]
    kind: Kind


@dataclass
class Record:
    span: Span
    tags: Set[str]
    parent: Optional[Span]


@pytest.mark.parametrize("value", [(1, 2), {1: "int key"}, {("a", 1): 0},
                                   Span("row", (1, 2.0), Kind.SMALL),
                                   object()])
def test_values_outside_the_codec_are_refused(value):
    with pytest.raises(TypeError, match="cannot checkpoint"):
        encode(value)


class Annotated(Checkpointed):
    _STATE = ("records", "by_key", "fifo", "nested", "columns", "kind",
              "absent", "rng", "counts")
    records: List[Record]
    by_key: Dict[Tuple[str, int], Span]
    fifo: "OrderedDict[Tuple[str, str], int]"
    nested: DefaultDict[str, DefaultDict[int, List[str]]]
    columns: Tuple[array, ...]
    kind: Kind
    absent: Optional[Span]
    rng: random.Random
    counts: "Counter[str]"

    def __init__(self):
        self.records = []
        self.by_key = {}
        self.fifo = OrderedDict()
        self.nested = defaultdict(lambda: defaultdict(list))
        self.columns = (array("q"), array("d"))
        self.kind = Kind.SMALL
        self.absent = None
        self.rng = random.Random(1)
        self.counts = Counter()


def filled():
    owner = Annotated()
    inner = Span("inner", (3, 0.5), Kind.LARGE)
    owner.records = [Record(inner, {"b", "a"}, None),
                     Record(Span("outer", (-1, 2.25), Kind.SMALL), set(),
                            inner)]
    owner.by_key = {("b", 10): inner, ("b", 9): inner, ("a", 2): inner}
    for key in (("z", "1"), ("a", "2"), ("m", "3")):
        owner.fifo[key] = len(owner.fifo)
    owner.nested["x"][7].append("seven")
    owner.nested["w"][-1] = []
    owner.columns[0].extend([1, 2 ** 40])
    owner.columns[1].extend([0.1, 1e300])
    owner.kind = Kind.LARGE
    owner.rng.gauss(0.0, 1.0)  # leaves gauss_next set
    owner.counts.update(["x", "x", "y"])
    return owner


def assert_same(a, b):
    """Equal, with the same class at every level."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_same(key, next(k for k in b if k == key))
            assert_same(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, array):
        assert (a.typecode, a.tolist()) == (b.typecode, b.tolist())
    elif is_dataclass(a):
        for field in fields(a):
            assert_same(getattr(a, field.name), getattr(b, field.name))
    else:
        assert a == b


def test_annotated_kinds_round_trip_with_their_exact_types():
    owner = filled()
    state = json.loads(json.dumps(owner.state_dict()))
    fresh = Annotated()
    rng = fresh.rng
    fresh.load_state(state)
    assert fresh.state_dict() == state
    for name in ("records", "columns", "kind", "absent", "counts"):
        assert_same(getattr(fresh, name), getattr(owner, name))
    # A plain dict's pairs go sorted; an OrderedDict's keep their order.
    assert [key for key, _ in state["by_key"]] == [["a", 2], ["b", 9],
                                                    ["b", 10]]
    assert fresh.by_key == owner.by_key
    assert all(type(key[1]) is int for key in fresh.by_key)
    assert_same(fresh.fifo, owner.fifo)
    assert list(fresh.fifo) == [("z", "1"), ("a", "2"), ("m", "3")]
    # A defaultdict's factories come from its annotation, nested too.
    assert_same(dict(fresh.nested), dict(owner.nested))
    assert type(fresh.nested["new"]) is defaultdict
    assert fresh.nested["new"][0] == []
    # The RNG is restored in place, bit for bit, gauss_next included.
    assert fresh.rng is rng
    assert rng.getstate() == owner.rng.getstate()
    assert ([rng.gauss(0.0, 1.0), rng.random()]
            == [owner.rng.gauss(0.0, 1.0), owner.rng.random()])


def test_an_encoded_rng_is_packed():
    rng = random.Random(2019)
    rng.gauss(0.0, 1.0)
    assert len(json.dumps(encode(rng))) <= 3400
    fresh = random.Random(0)
    decode(fresh, json.loads(json.dumps(encode(rng))))
    assert fresh.getstate() == rng.getstate()


def test_a_value_that_does_not_fit_its_annotation_is_refused():
    owner = filled()
    owner.records = tuple(owner.records)
    with pytest.raises(TypeError, match="tuple annotated as list"):
        owner.state_dict()


class Undecodable(Checkpointed):
    _STATE = ("callback",)
    callback: Callable[[], int]


def test_an_annotation_the_codec_cannot_decode_is_refused():
    with pytest.raises(TypeError, match="cannot decode"):
        state_plan(Undecodable)


def subclasses(cls):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from subclasses(subclass)


def test_every_declared_state_type_resolves():
    # CI runs this on the oldest and newest supported Pythons, so an
    # annotation only a newer Python can evaluate fails here rather
    # than at a user's resume.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):  # running it starts the CLI
            importlib.import_module(info.name)
    classes = {cls for cls in subclasses(Checkpointed)
               if cls.__module__.startswith("repro.")}
    assert len(classes) > 20
    for cls in classes:
        state_plan(cls)


def test_component_count_mismatch_is_refused():
    with pytest.raises(ValueError, match="2 components where this run has 3"):
        Owner(leaves=3).load_state(Owner().state_dict())
