"""Clock and seed-stream tests."""

import pytest

from repro.simulation.clock import SimulationClock
from repro.simulation.seeds import SeedSequence


class TestClock:
    def test_starts_at_zero(self):
        assert SimulationClock().day == 0

    def test_advance(self):
        clock = SimulationClock()
        assert clock.advance() == 1
        assert clock.advance(5) == 6
        assert clock.now() == 6

    def test_no_time_travel(self):
        with pytest.raises(ValueError):
            SimulationClock().advance(-1)


class TestSeedSequence:
    def test_streams_are_deterministic(self):
        a = SeedSequence(42).rng("playstore")
        b = SeedSequence(42).rng("playstore")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent_by_name(self):
        seeds = SeedSequence(42)
        assert seeds.seed_for("playstore") != seeds.seed_for("iip")

    def test_different_roots_differ(self):
        assert (SeedSequence(1).seed_for("x")
                != SeedSequence(2).seed_for("x"))

    def test_child_sequences(self):
        child = SeedSequence(42).child("honey")
        assert child.seed_for("a") == SeedSequence(42).child("honey").seed_for("a")
        assert child.seed_for("a") != SeedSequence(42).seed_for("a")
