"""The determinism matrix: every reproducibility invariant, as one table.

Each pipeline (wild, honey, serve) has a *reference* run.  A *cell*
changes one setting that must not move the output -- batch/spill size,
recovery mode, a kill point followed by a resume, a same-seed repeat, a
fresh interpreter under another ``PYTHONHASHSEED`` -- and must reproduce
the reference's per-part sha256 digests (report text, metrics export,
flagged set and install-event log, offer/archive exports, flagged
dump).  A *sensitivity* pair changes a setting that must move the output
(seed, chaos seed, chaos on against off) and must move the report and
metrics digests, so a constant or empty digest cannot pass.  References
are computed once per session and shared by every cell that compares
against them; a mismatch names the cell and each part that differs.

Library cells call the pipelines directly and also check that the
online flagged set equals a batch :class:`LockstepDetector` pass over
the same install log.  CLI cells run each crash-tolerant subcommand's
reference argv in process through :func:`repro.cli.main`, then in fresh
interpreters: under ``PYTHONHASHSEED`` 1 and 2 (which also start the
module-level crypto caches cold), and as a ``--crash-at`` run that must
exit with :data:`CRASH_EXIT_CODE` followed by a ``--resume`` run.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.cli import CRASH_EXIT_CODE, main
from repro.core import reports
from repro.core.honey_experiment import HoneyAppExperiment
from repro.core.paper_report import analyse
from repro.core.wild_measurement import WildMeasurement, WildMeasurementConfig
from repro.detection.lockstep import LockstepDetector
from repro.monitor.storage import save_archive, save_dataset
from repro.net.chaos import ChaosScenario
from repro.obs import Observability, to_json
from repro.recovery import (CrashPlan, RecoveryContext, SimulatedCrash,
                            parse_kill_point)
from repro.scenarios import parse_scenario
from repro.serve.runner import ServeRunConfig, run_serve
from repro.simulation.scenarios import WildScenario, WildScenarioConfig
from repro.simulation.world import World

SRC = Path(__file__).resolve().parents[2] / "src"
SEED = 11
CHAOS_SEED = 7
WILD_SCALE, WILD_DAYS = 0.04, 5
HONEY_INSTALLS = 40
SERVE = dict(days=2, clients=3, scale=0.05, requests_per_client_day=60.0)
COMPOSED = "evasive,fake-reviews,download-fraud"


@dataclass(frozen=True)
class Setting:
    """One run of one pipeline; its id names the pipeline, the chaos
    profile and every other field off its default.  The fields after
    ``scenario`` must not move the output; the reference run leaves them
    at their defaults."""

    pipeline: str
    cli: bool = False
    chaos: str = "off"
    seed: int = SEED
    chaos_seed: int = CHAOS_SEED
    scenario: str = "naive"
    batch: int = 0
    recovery: bool = False
    kill: Optional[str] = None
    hashseed: Optional[int] = None

    def reference(self) -> "Setting":
        return replace(self, batch=0, recovery=False, kill=None,
                       hashseed=None)

    @property
    def id(self) -> str:
        words = [self.pipeline + ("-cli" if self.cli else ""), self.chaos]
        words += [f"{field.name}={getattr(self, field.name)}"
                  for field in fields(self)[3:]
                  if getattr(self, field.name) != field.default]
        return "/".join(words)


# -- library runs -------------------------------------------------------------


def detection_parts(hook) -> Dict[str, str]:
    flagged = hook.finalize()
    assert flagged, "the detector flagged no device"
    assert flagged == LockstepDetector(hook.config).flag_devices(hook.log), \
        "online flagged set differs from the batch detector's"
    return {
        "flagged": "\n".join(sorted(flagged)),
        "events": json.dumps([event.to_dict() for event in hook.log.events()]
                             + sorted(hook.incentivized)),
    }


def assert_chaos(setting: Setting, faults: int) -> None:
    assert (faults > 0) == (setting.chaos != "off"), \
        f"{faults} faults injected under chaos profile {setting.chaos!r}"


def run_wild(setting: Setting, workdir: Path, recovery) -> Dict[str, str]:
    world = World(seed=setting.seed, obs=Observability(),
                  chaos=ChaosScenario.profile(setting.chaos,
                                              seed=setting.chaos_seed))
    scenario = WildScenario(world, WildScenarioConfig(
        scale=WILD_SCALE, measurement_days=WILD_DAYS,
        scenario=parse_scenario(setting.scenario)))
    scenario.build()
    hook = world.detection_hook("wild")
    results = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=WILD_DAYS, batch_devices=setting.batch,
        spill_dir=str(workdir / "spill") if setting.batch else None),
        detection=hook).run(recovery=recovery)
    loss = results.coverage_loss
    assert_chaos(setting, loss.faults_injected + loss.server_faults)
    save_dataset(results.dataset, workdir / "offers.json")
    save_archive(results.archive, workdir / "archive.json")
    reviews = [(r.reviewer_id, r.package, r.day, r.hour, r.rating)
               for r in world.store.reviews.all_reviews()]
    return {
        "report": "\n".join([
            f"{results.dataset.offer_count()} offers, {results.milk_runs} "
            f"milk runs, {results.crawl_requests} crawl requests",
            repr(loss), analyse(results).render(),
            repr((reviews, scenario.paid_reviewer_ids(),
                  scenario.boost_plans()))]),
        "obs": to_json(world.obs),
        **detection_parts(hook),
        "observations": repr([(o.offer_id, o.package, o.country, o.day)
                              for o in results.observations]),
        "offers": (workdir / "offers.json").read_text(),
        "archive": (workdir / "archive.json").read_text(),
    }


def run_honey(setting: Setting, workdir: Path, recovery) -> Dict[str, str]:
    world = World(seed=setting.seed,
                  chaos=ChaosScenario.profile(setting.chaos,
                                              seed=setting.chaos_seed))
    hook = world.detection_hook("honey")
    results = HoneyAppExperiment(
        world, installs_per_iip=HONEY_INSTALLS, detection=hook,
    ).run(recovery=recovery)
    assert_chaos(setting, world.obs.metrics.counter_total(
        "net.fabric.faults_raised"))
    return {"report": reports.render_honey_report(results),
            "obs": to_json(world.obs), **detection_parts(hook)}


def run_serve_parts(setting: Setting, workdir: Path,
                    recovery) -> Dict[str, str]:
    result = run_serve(ServeRunConfig(
        seed=setting.seed, chaos_profile=setting.chaos,
        chaos_seed=setting.chaos_seed, **SERVE),
        obs=Observability(), recovery=recovery)
    assert result.report["detection"]["online_equals_batch"]
    chaos = result.report["chaos"]
    assert_chaos(setting, chaos["connect_faults"]
                 + chaos["injected_statuses"])
    return {
        "report": json.dumps(result.report, sort_keys=True),
        "text": result.render(),
        "obs": json.dumps(result.obs.snapshot(), sort_keys=True,
                          default=repr),
        "flagged": result.flagged_dump(),
    }


LIBRARY = {"wild": run_wild, "honey": run_honey, "serve": run_serve_parts}


def run_library(setting: Setting, workdir: Path) -> Dict[str, str]:
    """A plain or recovery-mode run, or a crash at ``setting.kill``
    then a resume from the same checkpoint (and spill) directory."""
    runner = LIBRARY[setting.pipeline]
    root = workdir / "checkpoints"
    if setting.kill is None:
        recovery = (RecoveryContext.create(root, setting.pipeline)
                    if setting.recovery else None)
        return runner(setting, workdir, recovery)
    stage, day, seq = parse_kill_point(setting.kill)
    with pytest.raises(SimulatedCrash):
        runner(setting, workdir, RecoveryContext.create(
            root, setting.pipeline, crash=CrashPlan.at(stage, day, seq=seq)))
    return runner(setting, workdir, RecoveryContext.create(
        root, setting.pipeline, resume=True))


# -- CLI runs -----------------------------------------------------------------

#: Each crash-tolerant subcommand's reference arguments and the files
#: they write into the run's working directory.
CLI = {
    "wild": (["--scale", str(WILD_SCALE), "--days", str(WILD_DAYS),
              "--export-offers", "offers.json",
              "--export-archive", "archive.json"],
             ("offers.json", "archive.json")),
    "honey": (["--installs-per-iip", str(HONEY_INSTALLS)], ()),
    "serve": (["--days", "2", "--clients", "1", "--scale", "0.05",
               "--flagged-out", "flagged.json"], ("flagged.json",)),
}


def fresh_interpreter(argv, workdir: Path, hashseed: int):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "repro", *argv],
                          cwd=workdir, env=env, capture_output=True,
                          text=True)
    return done.returncode, done.stdout, done.stderr


def in_process(argv, workdir: Path):
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue(), ""


def run_cli(setting: Setting, workdir: Path) -> Dict[str, str]:
    args, outputs = CLI[setting.pipeline]
    argv = ["--metrics-out", "metrics.json", setting.pipeline,
            "--seed", str(setting.seed), "--chaos-profile", setting.chaos,
            "--chaos-seed", str(setting.chaos_seed), *args]
    if setting.batch:
        argv += ["--batch-devices", str(setting.batch)]
    if setting.kill is not None:
        recovery = ["--checkpoint-dir", "checkpoints"]
        code, _, stderr = fresh_interpreter(
            argv + recovery + ["--crash-at", setting.kill], workdir, 1)
        assert code == CRASH_EXIT_CODE, stderr
        code, stdout, stderr = fresh_interpreter(
            argv + recovery + ["--resume"], workdir, 2)
    elif setting.hashseed is not None:
        code, stdout, stderr = fresh_interpreter(argv, workdir,
                                                 setting.hashseed)
    else:
        code, stdout, stderr = in_process(argv, workdir)
    assert code == 0, stderr
    if setting.pipeline == "serve":
        assert "online == batch: yes" in stdout
    return {"report": stdout,
            **{name: (workdir / name).read_text()
               for name in ("metrics.json", *outputs)}}


# -- the table ----------------------------------------------------------------

#: Per pipeline, the variations that must reproduce the reference under
#: each chaos profile.  ``{}`` is a same-seed repeat.
INVARIANT = {
    "wild": [{}, dict(batch=7), dict(batch=1), dict(batch=1000),
             dict(recovery=True), dict(recovery=True, batch=7)]
            + [dict(kill=kill, batch=batch)
               for kill in ("wild.day:2", "wild.milk:2", "wild.crawl:2",
                            "wild.checkpoint:3")
               for batch in (0, 7)],
    "honey": [{}, dict(recovery=True), dict(kill="honey.campaign:1"),
              dict(kill="honey.checkpoint:0")],
    "serve": [{}, dict(recovery=True), dict(kill="serve.day:1"),
              dict(kill="serve.checkpoint:0"),
              dict(kill="serve.request:1:11")],
}

#: Per subcommand, the CLI variations of the reference argv (run under
#: ``paper`` chaos); kill points run in two fresh interpreters.
CLI_INVARIANT = {
    "wild": [dict(hashseed=1), dict(hashseed=2), dict(kill="wild.day:3"),
             dict(batch=7)],
    "honey": [dict(hashseed=1), dict(hashseed=2),
              dict(kill="honey.campaign:1")],
    "serve": [dict(hashseed=1), dict(hashseed=2), dict(kill="serve.day:1"),
              dict(kill="serve.request:1:25")],
}

CELLS = (
    [Setting(pipeline, chaos=chaos, **variation)
     for pipeline, variations in INVARIANT.items()
     for chaos in ("off", "paper") for variation in variations]
    + [Setting("wild", scenario=COMPOSED)]
    + [Setting(pipeline, cli=True, chaos="paper", **variation)
       for pipeline, variations in CLI_INVARIANT.items()
       for variation in variations])

#: (reference, changed): the change must move the report and the
#: metrics export.
SENSITIVE = [
    pair for pipeline in LIBRARY for pair in (
        (Setting(pipeline), Setting(pipeline, seed=SEED + 1)),
        (Setting(pipeline, chaos="paper"),
         Setting(pipeline, chaos="paper", chaos_seed=CHAOS_SEED + 1)),
        (Setting(pipeline), Setting(pipeline, chaos="paper")))]


def param(*settings: Setting, name: str):
    chaotic = any(setting.chaos != "off" for setting in settings)
    return pytest.param(*settings, id=name,
                        marks=[pytest.mark.chaos] if chaotic else [])


class Matrix:
    """Runs cells in fresh working directories; memoises references."""

    def __init__(self, tmp_path_factory) -> None:
        self._tmp = tmp_path_factory
        self._references: Dict[Setting, Dict[str, str]] = {}

    def digests(self, setting: Setting) -> Dict[str, str]:
        workdir = self._tmp.mktemp("cell")
        parts = (run_cli if setting.cli else run_library)(setting, workdir)
        return {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
                for name, text in parts.items()}

    def reference(self, setting: Setting) -> Dict[str, str]:
        key = setting.reference()
        if key not in self._references:
            self._references[key] = self.digests(key)
        return self._references[key]


@pytest.fixture(scope="session")
def matrix(tmp_path_factory) -> Matrix:
    return Matrix(tmp_path_factory)


@pytest.mark.parametrize("setting", [
    param(cell, name=cell.id + ("/repeat" if cell == cell.reference() else ""))
    for cell in CELLS])
def test_cell_reproduces_its_reference(matrix, setting):
    expected = matrix.reference(setting)
    actual = matrix.digests(setting)
    moved = sorted(part for part in expected if actual[part] != expected[part])
    assert not moved, (f"{setting.id}: {', '.join(moved)} differ from "
                       f"{setting.reference().id}")


@pytest.mark.parametrize("base, changed", [
    param(base, changed, name=f"{base.id}->{changed.id}")
    for base, changed in SENSITIVE])
def test_sensitive_setting_moves_the_digest(matrix, base, changed):
    before, after = matrix.reference(base), matrix.reference(changed)
    unmoved = [part for part in ("report", "obs")
               if before[part] == after[part]]
    assert not unmoved, f"{changed.id}: {unmoved} equal {base.id}'s"
