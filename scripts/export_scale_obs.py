"""Export ``BENCH_scale.json``: the peak-RSS / throughput trajectory.

The streaming refactor's claim is that the wild pipeline's peak RSS is
bounded by the simulated world, not by the measurement corpus: with
``--batch-devices`` the observation log and crawl archive spill to
disk and every analysis stage folds per chunk, so scaling the device
population 10x must not scale the resident analysis state 10x.  This
exporter measures that trajectory at fixed seed:

* every scale point runs **twice** — streamed (``--batch-devices``)
  and materialised — in a **fresh subprocess each**, because
  ``ru_maxrss`` is a process-wide high-water mark: points sharing a
  process would inherit the biggest run's peak;
* the deterministic per-point counts (offers, packages, install
  events, crawl requests) are pinned in
  ``benchmarks/snapshots/scale_obs.json`` — and the streamed and
  materialised runs must agree on every one of them, which
  ``benchmarks/test_bench_scale.py`` asserts;
* peak RSS, wall time, and devices/sec land in the host-dependent
  sections of ``BENCH_scale.json`` (never committed).

``devices_per_sec`` here is simulated install events per wall second:
install volume is the quantity that actually grows with ``--scale``
(milk-run count is fixed per day), so it is the honest throughput axis
for a population-scaling trajectory.

Run from the repo root::

    PYTHONPATH=src python scripts/export_scale_obs.py

The scale points and days are the constants below; the committed
snapshot records them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from obs_export import deterministic_subset, emit_report, render  # noqa: F401

SEED = 2019
DAYS = 14
BATCH = 256
#: The trajectory: today's bench scale, the paper's full population,
#: and the gated 10x point.
POINTS = (0.35, 1.0, 3.5)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_scale.json"
DEFAULT_SNAPSHOT = REPO_ROOT / "benchmarks/snapshots/scale_obs.json"


def run_point(scale: float, batch_devices: int) -> dict:
    """Run one wild measurement in *this* process and report it.

    Deterministic counts plus this process's ``ru_maxrss`` — callers
    that want a per-point RSS must invoke this in a fresh subprocess
    (``--point`` mode below).
    """
    import resource
    import time

    from repro import (
        WildMeasurement,
        WildMeasurementConfig,
        WildScenario,
        WildScenarioConfig,
        World,
    )

    world = World(seed=SEED)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=scale, measurement_days=DAYS))
    scenario.build()
    measurement = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=DAYS, batch_devices=batch_devices))
    started = time.monotonic()
    results = measurement.run()
    elapsed = time.monotonic() - started
    ledger = world.store.ledger
    install_events = sum(
        ledger.total_installs(package)
        for package in scenario.advertised_packages()
        + results.baseline_packages)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "scale": scale,
        "batch_devices": batch_devices,
        "offers": results.dataset.offer_count(),
        "advertised_packages": len(results.dataset.unique_packages()),
        "install_events": install_events,
        "milk_runs": results.milk_runs,
        "crawl_requests": results.crawl_requests,
        "wall_seconds": round(elapsed, 2),
        "peak_rss_mb": round(rss_mb, 1),
        "devices_per_sec": round(install_events / elapsed, 1),
    }


def measure_point(scale: float, batch_devices: int) -> dict:
    """Run one point in a fresh subprocess for an isolated RSS peak."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--point", repr(scale), "--point-batch", str(batch_devices)],
        capture_output=True, text=True, env=env, check=False)
    if completed.returncode != 0:
        raise RuntimeError(
            f"scale point {scale} (batch {batch_devices}) failed:\n"
            f"{completed.stderr}")
    return json.loads(completed.stdout)


def _label(scale: float) -> str:
    return f"{scale:g}"


def build_report() -> dict:
    """The full trajectory; ``deterministic`` is the committed subset.

    The deterministic per-point counts are recorded once: the streamed
    and the materialised run of each point must produce the same
    numbers (the bench asserts it), so pinning one copy pins both.
    """
    streamed = {}
    materialised = {}
    for scale in POINTS:
        streamed[_label(scale)] = measure_point(scale, BATCH)
        materialised[_label(scale)] = measure_point(scale, 0)
    deterministic = {
        "run": {
            "seed": SEED,
            "days": DAYS,
            "batch_devices": BATCH,
            "points": [_label(scale) for scale in POINTS],
        },
        "points": {
            label: {
                "offers": point["offers"],
                "advertised_packages": point["advertised_packages"],
                "install_events": point["install_events"],
                "milk_runs": point["milk_runs"],
                "crawl_requests": point["crawl_requests"],
            }
            for label, point in streamed.items()
        },
    }
    report = dict(deterministic)
    report["streamed_equals_materialised"] = all(
        deterministic["points"][label] == {
            key: materialised[label][key]
            for key in deterministic["points"][label]}
        for label in deterministic["points"])
    report["peak_rss_mb"] = {
        "streamed": {label: point["peak_rss_mb"]
                     for label, point in streamed.items()},
        "materialised": {label: point["peak_rss_mb"]
                         for label, point in materialised.items()},
    }
    report["wall_seconds"] = {
        "streamed": {label: point["wall_seconds"]
                     for label, point in streamed.items()},
        "materialised": {label: point["wall_seconds"]
                         for label, point in materialised.items()},
    }
    report["devices_per_sec"] = {
        "streamed": {label: point["devices_per_sec"]
                     for label, point in streamed.items()},
        "materialised": {label: point["devices_per_sec"]
                         for label, point in materialised.items()},
    }
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--point", type=float, default=None,
                        help="internal: run one scale point in this "
                             "process and print its JSON to stdout")
    parser.add_argument("--point-batch", type=int, default=0,
                        help="internal: --batch-devices for --point")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="full scale report (with RSS/wall times)")
    parser.add_argument("--snapshot-out", type=Path,
                        default=DEFAULT_SNAPSHOT,
                        help="deterministic subset, committed")
    args = parser.parse_args()
    if args.point is not None:
        print(json.dumps(run_point(args.point, args.point_batch)))
        return 0
    report = build_report()
    if not report["streamed_equals_materialised"]:
        print("scale bench: streamed and materialised runs disagree on "
              "deterministic counts", file=sys.stderr)
        return 1
    emit_report(report, args.out, args.snapshot_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
