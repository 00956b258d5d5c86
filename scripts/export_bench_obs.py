"""Export the perf benches: ``BENCH_wild.json`` and ``BENCH_honey.json``.

Wild (Section 4): runs the pipeline once at the bench scale, as
shipped, and reports its fabric requests, the crawler's (package, day)
cache hits and misses, crawl requests, dataset counts, and the
per-stage op-cost histogram quantiles (``wild.milk_ops`` /
``wild.crawl_ops`` / ``wild.analyse_ops``).

Honey (Section 3): runs the honey-app experiment once, as shipped, and
reports its fabric round trips, TLS handshake vs resumption counts,
the experiment's totals, and the ``honey.campaign_ops`` /
``honey.analysis_ops`` quantiles.

Four outputs:

* ``BENCH_wild.json`` / ``BENCH_honey.json`` (``--out`` /
  ``--honey-out``): the full reports, including wall times —
  informative, not deterministic, never committed.
* ``benchmarks/snapshots/wild_obs.json`` /
  ``benchmarks/snapshots/honey_obs.json`` (``--snapshot-out`` /
  ``--honey-snapshot-out``): the deterministic subsets (no wall
  times), committed to the repo.  ``benchmarks/test_bench_wild_perf.py``
  and ``test_bench_honey_perf.py`` fail if a fresh run drifts from
  either, which gates the request counts against silent regressions.

Run from the repo root::

    PYTHONPATH=src python scripts/export_bench_obs.py

The wild scale comes from ``REPRO_BENCH_SCALE``, as in the
benchmarks; the committed snapshots record every run parameter.
"""

from __future__ import annotations

import argparse
import os
import resource
import time
from pathlib import Path

from obs_export import (
    deterministic_subset,
    emit_report,
    render,
    stage_quantiles,
)
from repro import (
    WildMeasurement,
    WildMeasurementConfig,
    WildScenario,
    WildScenarioConfig,
    World,
)
from repro.core import HoneyAppExperiment, honey_experiment, wild_measurement

SEED = 2019
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))
DAYS = 110
HONEY_INSTALLS = 500

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_wild.json"
DEFAULT_SNAPSHOT = REPO_ROOT / "benchmarks/snapshots/wild_obs.json"
DEFAULT_HONEY_OUT = REPO_ROOT / "BENCH_honey.json"
DEFAULT_HONEY_SNAPSHOT = REPO_ROOT / "benchmarks/snapshots/honey_obs.json"


def run_wild() -> tuple:
    world = World(seed=SEED)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=SCALE, measurement_days=DAYS))
    scenario.build()
    measurement = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=DAYS))
    started = time.monotonic()
    results = measurement.run()
    elapsed = time.monotonic() - started
    return world, results, elapsed


def run_honey() -> tuple:
    world = World(seed=SEED)
    experiment = HoneyAppExperiment(world, installs_per_iip=HONEY_INSTALLS)
    started = time.monotonic()
    results = experiment.run()
    elapsed = time.monotonic() - started
    return world, results, elapsed


def peak_rss_mb() -> dict:
    """Peak resident set size so far, in MB.  ``children`` covers
    reaped child processes (none in a plain run)."""
    kb = 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kb
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kb
    return {
        "self": round(own, 1),
        "children": round(children, 1),
        "total": round(own + children, 1),
    }


def build_report() -> dict:
    """The full bench report; ``deterministic`` holds the committed
    subset (everything except wall-clock timings)."""
    world, results, elapsed = run_wild()
    total = world.obs.metrics.counter_total
    hits = int(total("crawler.cache_hits"))
    misses = int(total("crawler.cache_misses"))
    lookups = hits + misses
    deterministic = {
        "run": {
            "seed": SEED,
            "scale": SCALE,
            "days": DAYS,
        },
        "fabric": {"requests": int(total("net.fabric.connections"))},
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        },
        "crawl": {"requests": results.crawl_requests},
        "dataset": {
            "offers": results.dataset.offer_count(),
            "advertised_packages": len(results.dataset.unique_packages()),
            "milk_runs": results.milk_runs,
        },
        "op_cost": stage_quantiles(world,
                                   wild_measurement.STAGE_HISTOGRAMS),
    }
    report = dict(deterministic)
    report["wall_seconds"] = round(elapsed, 2)
    report["devices_per_sec"] = round(results.milk_runs / elapsed, 2)
    report["peak_rss_mb"] = peak_rss_mb()
    return report


def build_honey_report() -> dict:
    """The honey bench report."""
    world, results, elapsed = run_honey()
    total = world.obs.metrics.counter_total
    deterministic = {
        "run": {
            "seed": SEED,
            "installs_per_iip": HONEY_INSTALLS,
        },
        # Every fabric round trip is one client frame plus one response.
        "fabric": {"round_trips": int(total("net.fabric.frames")) // 2},
        "tls": {
            "handshakes": int(total("net.client.tls_handshakes")),
            "resumptions": int(total("net.client.tls_resumptions")),
            "resume_failures": int(total("net.client.tls_resume_failures")),
        },
        "experiment": {
            "total_installs": results.total_installs(),
            "displayed_installs_after": results.displayed_installs_after,
            "enforcement_actions": results.enforcement_actions,
        },
        "op_cost": stage_quantiles(world,
                                   honey_experiment.STAGE_HISTOGRAMS),
    }
    report = dict(deterministic)
    report["wall_seconds"] = round(elapsed, 2)
    report["devices_per_sec"] = round(results.total_installs() / elapsed, 2)
    report["peak_rss_mb"] = peak_rss_mb()
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="full wild bench report (with wall times)")
    parser.add_argument("--snapshot-out", type=Path, default=DEFAULT_SNAPSHOT,
                        help="deterministic wild subset, committed")
    parser.add_argument("--honey-out", type=Path, default=DEFAULT_HONEY_OUT,
                        help="full honey bench report (with wall times)")
    parser.add_argument("--honey-snapshot-out", type=Path,
                        default=DEFAULT_HONEY_SNAPSHOT,
                        help="deterministic honey subset, committed")
    parser.add_argument("--only", choices=("wild", "honey"),
                        help="export just one bench")
    args = parser.parse_args()
    if args.only in (None, "wild"):
        emit_report(build_report(), args.out, args.snapshot_out)
    if args.only in (None, "honey"):
        emit_report(build_honey_report(), args.honey_out,
                    args.honey_snapshot_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
