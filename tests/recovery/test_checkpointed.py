"""The declared-state codec: what each kind of attribute becomes, and
what a load restores in place."""

import json
import random
from collections import Counter

import pytest

from repro.checkpointed import Checkpointed, decode, encode


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


@pytest.mark.parametrize("value", [(1, 2), {1: "int key"}, {("a", 1): 0},
                                   object()])
def test_values_outside_the_codec_are_refused(value):
    with pytest.raises(TypeError, match="cannot checkpoint"):
        encode(value)


def test_component_count_mismatch_is_refused():
    with pytest.raises(ValueError, match="2 components where this run has 3"):
        Owner(leaves=3).load_state(Owner().state_dict())
