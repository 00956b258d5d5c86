"""Export the per-table bench snapshot: ``benchmarks/snapshots/table_obs.json``.

Builds one wild bundle at the bench parameters and renders Tables 1-8
from the paper report's section catalogue, pinning for each a content
hash, its line count, and the headline row counts.  The snapshot is
committed, so diffing it across revisions shows exactly which table a
change moved — without having to eyeball eight rendered tables in CI
logs.  ``benchmarks/test_bench_table_obs.py`` checks it byte for byte.

Run from the repo root::

    PYTHONPATH=src python scripts/export_table_obs.py

The scale comes from ``REPRO_BENCH_SCALE``, as in the benchmarks; the
committed snapshot records it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
from pathlib import Path

from obs_export import emit_snapshot, render
from repro import (
    WildMeasurement,
    WildMeasurementConfig,
    WildScenario,
    WildScenarioConfig,
    World,
)
from repro.core.paper_report import SECTIONS

SEED = 2019
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))
DAYS = 110

#: The paper sections the snapshot pins.
TABLES = ("table1", "table2", "table3", "table4", "table5", "table6",
          "table7", "table8")

DEFAULT_OUT = Path(__file__).resolve().parent.parent / (
    "benchmarks/snapshots/table_obs.json")


def run_wild():
    world = World(seed=SEED)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=SCALE, measurement_days=DAYS))
    scenario.build()
    return WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=DAYS)).run()


def render_tables(results) -> dict:
    """table name -> rendered text."""
    return {name: SECTIONS[name](results) for name in TABLES}


def build_snapshot(results) -> dict:
    tables = {
        name: {
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "lines": text.count("\n") + 1,
        }
        for name, text in sorted(render_tables(results).items())
    }
    return {
        "run": {
            "seed": SEED,
            "scale": SCALE,
            "days": DAYS,
        },
        "inputs": {
            "offers": results.dataset.offer_count(),
            "vetted_packages": len(results.vetted_packages()),
            "unvetted_packages": len(results.unvetted_packages()),
        },
        "tables": tables,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    emit_snapshot(render(build_snapshot(run_wild())), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
