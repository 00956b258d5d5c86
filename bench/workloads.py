"""One bench workload, run in this process: the child side of ``run.py``.

``run.py`` starts a fresh interpreter per workload execution so that
peak RSS is per execution and module-level caches start cold, as they
do in a user's CLI run.  By hand (from the repo root)::

    PYTHONPATH=src python bench/workloads.py --workload honey \\
        --seed 2019 --tmp /path/to/scratch --out result.json [--trace 1]

Each workload builds its inputs from the seed alone through the public
API, times set-up and the run separately, and writes one JSON result:
timings, peak RSS, a sha256 digest of every deterministic output, the
workload's own correctness checks and, with ``--trace 1``, the
per-layer attribution from :mod:`layers`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import pkgutil
import resource
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

# Layer entry points are patched on their modules and classes, so the
# bench calls module functions through their module: a name imported
# from a module would bypass the trace.
from repro import (HoneyAppExperiment, WildMeasurement, WildMeasurementConfig,
                   WildScenario, WildScenarioConfig, World)
from repro.analysis import appstore_impact, characterize
from repro.core import reports
from repro.iip.registry import VETTED_IIPS
from repro.obs import to_json
from repro.recovery import RecoveryContext
from repro.serve import DatasetRegistry, ServeRunConfig, run_serve
from repro.serve import datasets as serve_datasets

from layers import LayerTrace
from run import WORKLOADS

#: Wild at the ROADMAP's bench configuration; the committed
#: ``benchmarks/snapshots/wild_obs.json`` pins its counts at seed 2019.
WILD_SCALE = 0.35
WILD_DAYS = 110
#: The durable run: streamed analysis, spill files and a checkpoint
#: every day, then resumes from the newest checkpoint in fresh worlds.
DURABLE_DAYS = 60
DURABLE_BATCH_DEVICES = 2000
DURABLE_RESUMES = 3
#: Ten times the paper's 500 installs per IIP: long enough to time.
HONEY_INSTALLS_PER_IIP = 5000
SERVE_CLIENTS = 8
#: profile, simulated days
SERVE_PROFILES = {
    "serve-query": ("query-heavy", 2),
    "serve-ingest": ("ingest-heavy", 1),
}
#: ``setup_s`` is the median over repeated set-ups in an untraced
#: execution: the first runs before the timed call with cold caches, the
#: rest after it, at least ``SETUP_REPEATS`` times and until they add up
#: to ``SETUP_MIN_S`` (a serve set-up takes about a millisecond).
SETUP_REPEATS = 5
SETUP_MIN_S = 0.25
SETUP_MAX_REPEATS = 200

#: Keys of ``wild_obs.json`` the wild workload reproduces.
STAGE_HISTOGRAMS = ("wild.milk_ops", "wild.crawl_ops", "wild.analyse_ops")
STAGE_KEYS = (("count", "count"), ("mean_ops", "mean"), ("p50_ops", "p50"),
              ("p90_ops", "p90"), ("p99_ops", "p99"), ("max_ops", "max"))


def sha256_of(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*")
               if item.is_file())


# -- wild -----------------------------------------------------------------


def wild_setup(seed: int, days: int, **config):
    world = World(seed=seed)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=WILD_SCALE, measurement_days=days))
    scenario.build()
    return world, WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=days, **config))


def wild_tables(results) -> str:
    """Tables 3-6 and the enforcement table, as ``repro wild`` prints
    them."""
    vetted = results.vetted_packages()
    unvetted = results.unvetted_packages()
    return "\n\n".join([
        f"{results.dataset.offer_count()} offers from "
        f"{len(results.dataset.unique_packages())} apps "
        f"({results.milk_runs} milk runs, "
        f"{results.crawl_requests} crawl requests)",
        reports.render_table3(characterize.offer_type_table(results.dataset)),
        reports.render_table4(characterize.iip_summary_table(
            results.dataset, results.archive, VETTED_IIPS)),
        reports.render_table5(appstore_impact.install_increase_comparison(
            results.archive, results.dataset, vetted, unvetted,
            results.baseline_packages, results.baseline_window)),
        reports.render_table6(appstore_impact.top_chart_comparison(
            results.archive, results.dataset, vetted, unvetted,
            results.baseline_packages, results.baseline_window)),
        reports.render_enforcement(appstore_impact.enforcement_decreases(
            results.archive, {"Baseline": results.baseline_packages,
                              "Vetted": vetted, "Unvetted": unvetted})),
    ])


def wild_errors(world, results) -> int:
    """Client give-ups plus milk errors plus crawl failures."""
    total = world.obs.metrics.counter_total
    return int(total("net.client.gave_up") + len(results.milk_errors)
               + total("monitor.crawl_failures"))


def wild_snapshot_counts(world, results) -> Dict[str, object]:
    """The counts ``benchmarks/snapshots/wild_obs.json`` pins."""
    total = world.obs.metrics.counter_total
    op_cost = {}
    for name in STAGE_HISTOGRAMS:
        state = world.obs.metrics.histogram(name)
        summary = state.summary() if state is not None else {}
        op_cost[name] = {key: summary.get(field)
                         for key, field in STAGE_KEYS}
    return {
        "fabric": {"requests": int(total("net.fabric.connections"))},
        "cache": {"hits": int(total("crawler.cache_hits")),
                  "misses": int(total("crawler.cache_misses"))},
        "crawl": {"requests": results.crawl_requests},
        "dataset": {
            "offers": results.dataset.offer_count(),
            "advertised_packages": len(results.dataset.unique_packages()),
            "milk_runs": results.milk_runs,
        },
        "op_cost": op_cost,
    }


class Execution:
    """Set-up and timed call of one workload execution."""

    def __init__(self, name: str, seed: int, tmp: Path) -> None:
        self.name = name
        self.seed = seed
        self.tmp = tmp
        #: Filled by ``run``: the deterministic outputs and the facts
        #: the bench reports about them.
        self.outputs: Tuple[str, ...] = ()
        self.work = 0
        self.obs = None
        self.checks: Dict[str, bool] = {}
        self.errors = 0
        self.requests = 0
        self.resume_s: List[float] = []
        self.snapshot_counts = None
        self.serve_report = None
        self.recovery_bytes = 0
        #: Time ``run`` spent on the bench's own checks, not the workload.
        self.untimed_s = 0.0

    # set-up ---------------------------------------------------------------

    def setup(self):
        """Everything from ``World(seed)`` until the run is ready."""
        if self.name == "wild":
            return wild_setup(self.seed, WILD_DAYS)
        if self.name == "wild-durable":
            return wild_setup(self.seed, DURABLE_DAYS,
                              batch_devices=DURABLE_BATCH_DEVICES,
                              spill_dir=str(self.tmp / "spill"))
        if self.name == "honey":
            world = World(seed=self.seed)
            return world, HoneyAppExperiment(
                world, installs_per_iip=HONEY_INSTALLS_PER_IIP)
        # run_serve builds its dataset corpora before the loop starts and
        # offers no seam to hand them in, so set-up times that build
        # alone; the timed run repeats it.
        config = self.serve_config()
        return config, DatasetRegistry(serve_datasets.build_serve_datasets(
            config.seed, scale=config.scale))

    def serve_config(self) -> ServeRunConfig:
        profile, days = SERVE_PROFILES[self.name]
        return ServeRunConfig(seed=self.seed, days=days,
                              clients=SERVE_CLIENTS, profile=profile)

    # the timed call ---------------------------------------------------------

    def run(self, ready) -> None:
        if self.name == "wild":
            self._run_wild(*ready)
        elif self.name == "wild-durable":
            self._run_durable(*ready)
        elif self.name == "honey":
            self._run_honey(*ready)
        else:
            self._run_serve(ready[0])

    def _run_wild(self, world, measurement) -> None:
        results = measurement.run()
        tables = wild_tables(results)
        self._wild_outputs(world, results, tables)
        self.snapshot_counts = wild_snapshot_counts(world, results)

    def _wild_outputs(self, world, results, tables: str) -> None:
        self.obs = world.obs
        self.outputs = (tables,)
        self.work = results.milk_runs
        self.errors = wild_errors(world, results)
        self.requests = int(
            world.obs.metrics.counter_total("net.fabric.connections"))

    def _run_durable(self, world, measurement) -> None:
        checkpoints = self.tmp / "checkpoints"
        results = measurement.run(
            recovery=RecoveryContext.create(checkpoints, "wild"))
        self._wild_outputs(world, results, wild_tables(results))
        started = time.perf_counter()
        self.recovery_bytes = dir_bytes(self.tmp)
        expected = self.digest()
        self.untimed_s += time.perf_counter() - started
        identical = True
        for _ in range(DURABLE_RESUMES):
            started = time.perf_counter()
            resumed_world, resumed = self.setup()
            resumed_results = resumed.run(recovery=RecoveryContext.create(
                checkpoints, "wild", resume=True))
            tables = wild_tables(resumed_results)
            resumed_at = time.perf_counter()
            self.resume_s.append(resumed_at - started)
            identical &= sha256_of(
                tables, to_json(resumed_world.obs)) == expected
            self.untimed_s += time.perf_counter() - resumed_at
        self.checks["resume_equals_uninterrupted"] = identical

    def _run_honey(self, world, experiment) -> None:
        results = experiment.run()
        self.obs = world.obs
        self.outputs = (reports.render_honey_report(results),)
        self.work = results.total_installs()
        total = world.obs.metrics.counter_total
        self.errors = int(total("net.client.gave_up"))
        self.requests = int(total("net.fabric.connections"))

    def _run_serve(self, config) -> None:
        result = run_serve(config)
        report = result.report
        admission = report["admission"]
        self.obs = result.obs
        self.outputs = (json.dumps(report, sort_keys=True),
                        result.flagged_dump())
        self.work = admission["offered"]
        self.serve_report = report
        self.errors = admission["offered"] - int(
            result.obs.metrics.counter_total_by_label(
                "serve.responses", "status", "200"))
        self.requests = admission["offered"]
        self.checks["online_equals_batch"] = bool(
            report["detection"]["online_equals_batch"])
        self.checks["accounting_consistent"] = bool(
            admission["accounting_consistent"])

    # results ----------------------------------------------------------------

    def digest(self) -> str:
        """sha256 over the report/tables, the flagged set and the
        metrics + trace export."""
        return sha256_of(*self.outputs, to_json(self.obs))

    def counts(self) -> Dict[str, float]:
        """Deterministic per-layer counts read from the run's registry."""
        total = self.obs.metrics.counter_total
        handshakes = total("net.client.tls_handshakes")
        resumptions = total("net.client.tls_resumptions")
        hits = total("crawler.cache_hits")
        misses = total("crawler.cache_misses")
        counts = {
            "obs.ops_total": self.obs.ops.value,
            "net.fabric.requests": total("net.fabric.connections"),
            "net.tls.resume_ratio": _ratio(resumptions,
                                           handshakes + resumptions),
            "monitor.crawler.hit_ratio": _ratio(hits, hits + misses),
            "serve.cache.hit_ratio": 0.0,
            "serve.admission.shed_ratio": 0.0,
            "detection.events": total("detection.events_ingested"),
            "recovery.bytes_written": self.recovery_bytes,
        }
        if self.serve_report is not None:
            cache = self.serve_report["cache"]
            admission = self.serve_report["admission"]
            counts["serve.cache.hit_ratio"] = _ratio(
                cache["hits"], cache["hits"] + cache["misses"])
            counts["serve.admission.shed_ratio"] = _ratio(
                admission["shed"], admission["offered"])
            counts["detection.events"] = self.serve_report[
                "detection"]["events"]
        return counts


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _timed(call: Callable, *args):
    started = time.perf_counter()
    value = call(*args)
    return time.perf_counter() - started, value


def import_all_repro() -> None:
    """Import every ``repro`` module, so the trace patches every binding
    of a wrapped module function before the run starts."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue  # running it would start the CLI
        try:
            importlib.import_module(info.name)
        except ImportError:
            continue


def execute(name: str, seed: int, tmp: Path, trace: bool) -> Dict[str, object]:
    """One workload execution; the result ``run.py`` aggregates."""
    execution = Execution(name, seed, tmp)
    result: Dict[str, object] = {"workload": name, "seed": seed,
                                 "trace": trace}
    if trace:
        import_all_repro()
        with LayerTrace() as layer_trace:
            with layer_trace.window():
                setup_s, ready = _timed(execution.setup)
                wall_s, _ = _timed(execution.run, ready)
        layer_trace.wall_s -= execution.untimed_s
        result["layers"] = layer_trace.report()
        result["unresolved"] = layer_trace.unresolved
        setups = [setup_s]
    else:
        setup_s, ready = _timed(execution.setup)
        wall_s, _ = _timed(execution.run, ready)
        del ready
        setups = [setup_s]
        while len(setups) < SETUP_MAX_REPEATS and (
                len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S):
            setups.append(_timed(execution.setup)[0])
    wall_s -= execution.untimed_s
    result.update({
        "setup_s": statistics.median(setups),
        "setup_repeats": len(setups),
        "wall_s": wall_s,
        "work": execution.work,
        "work_per_s": execution.work / wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "resume_s": (statistics.median(execution.resume_s)
                     if execution.resume_s else 0.0),
        "digest": execution.digest(),
        "checks": execution.checks,
        "snapshot_counts": execution.snapshot_counts,
        "errors": execution.errors,
        "requests": execution.requests,
        "counts": execution.counts(),
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True,
                        help="scratch directory for checkpoints and spills")
    parser.add_argument("--out", type=Path, required=True,
                        help="where to write the JSON result")
    args = parser.parse_args(argv)
    result = execute(args.workload, args.seed, args.tmp, bool(args.trace))
    args.out.write_text(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
