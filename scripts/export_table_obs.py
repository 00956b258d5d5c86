"""Export the per-table bench snapshot: ``benchmarks/snapshots/table_obs.json``.

Builds one wild bundle at the bench parameters and renders every paper
table the per-table benches (``test_bench_table*.py``) render, pinning
for each a content hash, its line count, and the headline row counts.
The snapshot is committed, so diffing it across revisions shows exactly
which table a change moved — without having to eyeball eight rendered
tables in CI logs.

Run from the repo root::

    PYTHONPATH=src python scripts/export_table_obs.py

Scale/seed come from the same ``REPRO_BENCH_*`` variables the
benchmarks use; the committed snapshot records them, so a check run
under different values reports parameter drift rather than corruption.
"""

from __future__ import annotations

import argparse
import hashlib
import os
from collections import defaultdict
from pathlib import Path

from obs_export import emit_snapshot, render
from repro import (
    WildMeasurement,
    WildMeasurementConfig,
    WildScenario,
    WildScenarioConfig,
    World,
)
from repro.analysis.appstore_impact import (
    install_increase_comparison,
    top_chart_comparison,
)
from repro.analysis.characterize import iip_summary_table, offer_type_table
from repro.analysis.funding import (
    funded_offer_breakdown,
    funded_packages,
    funding_comparison,
)
from repro.core import reports
from repro.iip.registry import VETTED_IIPS

SEED = int(os.environ.get("REPRO_BENCH_SEED", "2019"))
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))
DAYS = int(os.environ.get("REPRO_BENCH_DAYS", "110"))

DEFAULT_OUT = Path(__file__).resolve().parent.parent / (
    "benchmarks/snapshots/table_obs.json")


def build_bundle() -> tuple:
    world = World(seed=SEED)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=SCALE, measurement_days=DAYS))
    scenario.build()
    results = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=DAYS)).run()
    return results, results.vetted_packages(), results.unvetted_packages()


def render_tables(results, vetted, unvetted) -> dict:
    """table name -> rendered text, exactly as the benches render them."""
    walls = defaultdict(set)
    for observation in results.observations:
        walls[observation.affiliate_package].add(observation.iip_name)
    funded = funded_packages(results.archive, results.dataset,
                             results.snapshot, vetted)
    return {
        "table1": reports.render_table1(),
        "table2": reports.render_table2(walls),
        "table3": reports.render_table3(
            offer_type_table(results.dataset)),
        "table4": reports.render_table4(iip_summary_table(
            results.dataset, results.archive, VETTED_IIPS)),
        "table5": reports.render_table5(install_increase_comparison(
            results.archive, results.dataset, vetted, unvetted,
            results.baseline_packages, results.baseline_window)),
        "table6": reports.render_table6(top_chart_comparison(
            results.archive, results.dataset, vetted, unvetted,
            results.baseline_packages, results.baseline_window)),
        "table7": reports.render_table7(funding_comparison(
            results.archive, results.dataset, results.snapshot,
            vetted, unvetted, results.baseline_packages,
            results.baseline_window[0])),
        "table8": reports.render_table8(funded_offer_breakdown(
            results.dataset, funded)),
    }


def build_snapshot() -> dict:
    results, vetted, unvetted = build_bundle()
    tables = {
        name: {
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "lines": text.count("\n") + 1,
        }
        for name, text in sorted(render_tables(results, vetted,
                                               unvetted).items())
    }
    return {
        "run": {
            "seed": SEED,
            "scale": SCALE,
            "days": DAYS,
        },
        "inputs": {
            "offers": results.dataset.offer_count(),
            "vetted_packages": len(vetted),
            "unvetted_packages": len(unvetted),
        },
        "tables": tables,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) if the committed snapshot "
                             "does not match a fresh run")
    args = parser.parse_args()
    return emit_snapshot("table", render(build_snapshot()), args.out,
                         args.check, "export_table_obs.py")


if __name__ == "__main__":
    raise SystemExit(main())
