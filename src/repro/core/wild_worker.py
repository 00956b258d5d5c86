"""The wild pipeline's process-backend worker host.

A ``--shards N`` (N > 1) run splits the Section-4 pipeline across
worker processes without sharing any memory: each worker rebuilds the
**whole deterministic world** from ``(seed, vpn_countries, chaos)``,
replays the scenario days in lockstep with the parent (the scenario is
wire-free, so replay is exact — the same property the crash-recovery
resume path relies on), and then executes only the milk/crawl tasks
the scheduler pins to it.

Why split-brain replicas preserve export byte-identity:

* milking is *read-only* on shared world state — the UI fuzzer taps
  tabs and scrolls, it never completes offers or installs anything, so
  a worker's wall servers answer exactly as the parent's would;
* every task-scoped RNG is keyed (``milker:{country}``, ``derive_rng``
  for crawl fetches), never drawn from a shared sequential stream;
* chaos fault decisions are a function of ``(host, flow scope,
  per-flow sequence)``, not of global arrival order, so a task's fault
  schedule is identical no matter which process runs it;
* the only shared-stream draws a task triggers are the servers'
  fixed-width TLS ``server_random`` values, which never influence
  payload semantics or any exported counter.

Task execution goes through the exact same entry points the inline
path uses — ``WildMeasurement.run_milk_payload`` and
``PlayStoreCrawler.run_fetch_payload`` — bracketed with
``Observability.begin_delta``/``collect_delta`` to capture the world
replica's recordings.  What ships back per task is an *envelope* (see
:mod:`repro.parallel.envelope`): the picklable result, the task-local
``Observability`` state, and the world-side delta.  The parent applies
all world deltas, then merges all task contexts, in canonical input
order — reproducing the serial op totals exactly (DESIGN.md §8).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.parallel.procpool import WorkerHostSpec


def wild_worker_spec(world, scenario_config,
                     measurement_config) -> WorkerHostSpec:
    """The picklable bootstrap recipe for one wild shard worker."""
    import dataclasses
    # Replicas run their tasks inline and never accumulate observations
    # or archive profiles (those side effects are parent-side), so the
    # shard count and streaming/spill settings are stripped.
    replica_config = dataclasses.replace(
        measurement_config, shards=1, batch_devices=0, spill_dir=None)
    return WorkerHostSpec(
        factory="repro.core.wild_worker:build_wild_worker",
        config={
            "seed": world.seeds.root_seed,
            "vpn_countries": world.vpn_countries,
            "chaos": world.chaos,
            "scenario_config": scenario_config,
            "measurement_config": replica_config,
        },
    )


def build_wild_worker(seed, vpn_countries, chaos, scenario_config,
                      measurement_config) -> "WildWorkerHost":
    """Module-level factory (spawn-picklable by name)."""
    # Imported here: the worker bootstraps from the spec pickle, which
    # itself should pull in nothing heavy.
    from repro.core.wild_measurement import WildMeasurement
    from repro.simulation.scenarios import WildScenario
    from repro.simulation.world import World

    world = World(seed=seed, vpn_countries=vpn_countries, chaos=chaos)
    scenario = WildScenario(world, scenario_config)
    scenario.build()
    measurement = WildMeasurement(world, scenario, measurement_config)
    return WildWorkerHost(world, scenario, measurement)


class WildWorkerHost:
    """Interprets milk/crawl task payloads against the replica world."""

    def __init__(self, world, scenario, measurement) -> None:
        self.world = world
        self.scenario = scenario
        self.measurement = measurement
        self._day = -1  # last scenario day replayed

    # -- lockstep day replay --------------------------------------------------

    def on_broadcast(self, payload: Tuple[str, ...]) -> None:
        kind = payload[0]
        if kind == "crawl_template":
            # The parent primed a TLS resumption template against *its*
            # store front; adopt the ticket here so replica-side crawl
            # tasks resume exactly like parent-side ones would.  The
            # replica's server never minted this ticket, so seed its
            # session table directly (no observability side effects).
            _kind, host, day, ticket, enc_key, mac_key = payload
            self.measurement.crawler.install_template(
                host, int(day), ticket, enc_key, mac_key)
            self.world.frontend.server.sessions.put(ticket, enc_key, mac_key)
            return
        if kind != "day":
            raise ValueError(f"unknown broadcast {kind!r}")
        target = int(payload[1])  # type: ignore[arg-type]
        # Mirror the parent's loop exactly: the clock advances at the
        # *end* of each day, so when day N's tasks run the clock has
        # advanced N times and scenario days 0..N have all executed.
        while self._day < target:
            self._day += 1
            if self._day > 0:
                self.world.clock.advance()
            self.scenario.run_day(self._day)

    # -- checkpoint/resume ----------------------------------------------------

    def collect_state(self) -> Dict[str, object]:
        """The replica-side mutable surfaces a resumed worker must
        restore: exactly the wire-facing subset of the parent's
        ``_checkpoint_state`` (cells, walls, frontend, chaos, client).
        Parent-side accumulators (dataset, archive, observations, obs)
        never live here — tasks ship those back per envelope.
        """
        world = self.world
        measurement = self.measurement
        return {
            "day": self._day,
            "phone_installed": sorted(
                measurement.phone.installed_packages),
            "crawler_client": measurement.crawler.client.state_dict(),
            "cells": {country: measurement.cells[country].state_dict()
                      for country in sorted(measurement.cells)},
            "frontend": world.frontend.state_dict(),
            "walls": {name: world.walls[name].server.state_dict()
                      for name in sorted(world.walls)},
            "fault_plan": world.fabric.chaos.state_dict(),
            "root_ca": world.root_ca.state_dict(),
            "device_factory": world.device_factory.state_dict(),
        }

    def adopt_checkpoint(self, checkpoint_dir: str,
                         worker_index: int) -> None:
        """Warm this replica from a parent checkpoint: replay the
        scenario to the checkpointed day (wire-free, exact), then
        restore this worker's slice of the recorded worker states.

        After adoption the replica is indistinguishable from one that
        ran every pinned task itself, so the resumed run's remaining
        days execute the uninterrupted run's exact operation sequence.
        """
        from repro.recovery.checkpoint import CheckpointStore
        loaded = CheckpointStore(checkpoint_dir, kind="wild").latest()
        if loaded is None:
            return
        day, state = loaded
        workers_state = state.get("workers")
        if workers_state is None:
            raise ValueError(
                "checkpoint carries no worker states (written by a "
                "--shards 1 run?); cannot warm a process replica")
        states = workers_state["states"]
        if worker_index >= len(states):
            raise ValueError(
                f"checkpoint recorded {len(states)} workers; worker "
                f"{worker_index} has no state to adopt")
        # Same replay the parent performs: scenario days 0..day, clock
        # advancing between days — the ("day", day+1) broadcast that
        # follows then advances both in lockstep.
        self.on_broadcast(("day", day))
        my_state = states[worker_index]
        world = self.world
        measurement = self.measurement
        measurement.phone.installed_packages = set(
            my_state["phone_installed"])
        measurement.crawler.client.load_state(my_state["crawler_client"])
        for country, cell_state in my_state["cells"].items():
            measurement.cells[country].load_state(cell_state)
        world.frontend.load_state(my_state["frontend"])
        for name, wall_state in my_state["walls"].items():
            world.walls[name].server.load_state(wall_state)
        world.fabric.chaos.load_state(my_state["fault_plan"])
        world.root_ca.load_state(my_state["root_ca"])
        world.device_factory.load_state(my_state["device_factory"])

    # -- task execution -------------------------------------------------------

    def run_task(self, payload: Tuple) -> Dict[str, object]:
        kind = payload[0]
        if kind == "milk":
            return self._envelope(self.measurement.run_milk_payload, payload)
        if kind == "crawl":
            return self._envelope(self.measurement.crawler.run_fetch_payload,
                                  payload)
        raise ValueError(f"unknown task {kind!r}")

    def _envelope(self, runner: Callable, payload: Tuple) -> Dict[str, object]:
        """Run one payload through the shared (inline-path) runner,
        capturing the replica world's recordings as a shippable delta."""
        token = self.world.obs.begin_delta()
        try:
            result, task_obs = runner(payload)
        finally:
            delta = self.world.obs.collect_delta(token)
        return {"result": result, "task_obs": task_obs.state_dict(),
                "world": delta}
