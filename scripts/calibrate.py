"""Calibration harness: run the full wild measurement and print every
table next to the paper's values.  Used during development to tune the
scenario constants in repro.simulation.scenarios."""

import argparse
import time

from repro import World, WildScenario, WildScenarioConfig
from repro.core import WildMeasurement, WildMeasurementConfig
from repro.core.paper_report import SECTIONS

#: The sections calibrated, each with the paper's values (if any).
PAPER_VALUES = (
    ("table3", "  [paper: 47%/$0.06, 53%/$0.52, 37%/$0.50, 11%/$0.34, "
               "5%/$2.98]"),
    ("table4", None),
    ("table5", "  [paper: baseline 2%, vetted 12% (chi2 26.0), "
               "unvetted 16% (chi2 39.9)]"),
    ("table6", "  [paper: baseline 3.1%, vetted 7.5% (chi2 5.43 p.02), "
               "unvetted 2.5% (chi2 .22 p.64)]"),
    ("table7", "  [paper: baseline 6.1% of 82, vetted 15.6% of 192 "
               "(chi2 4.7), unvetted 13.9% of 79 (chi2 2.8); "
               "match 27%/39%/15%]"),
    ("table8", "  [paper: 67%/$0.12 no-activity, 63%/$0.92 activity, "
               "N=30]"),
    ("fig4", None),
    ("fig6", "  [paper >=5 libs: activity 60%, no-activity 25%, "
             "vetted 55%, unvetted 20%, baseline 35%]"),
    ("arbitrage", "  [paper: 3.9% overall, 7% vetted, 2% unvetted]"),
    ("enforcement", "  [paper: 0 baseline, 0 vetted, ~2% unvetted]"),
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--days", type=int, default=110)
    parser.add_argument("--seed", type=int, default=2019)
    args = parser.parse_args()

    t0 = time.time()
    world = World(seed=args.seed)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=args.scale, measurement_days=args.days))
    scenario.build()
    measurement = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=args.days))
    results = measurement.run()
    print(f"[{time.time()-t0:.0f}s] measurement complete: "
          f"{results.dataset.offer_count()} offers, "
          f"{len(results.dataset.unique_packages())} apps, "
          f"{results.milk_runs} milk runs, "
          f"{results.crawl_requests} crawl requests")

    for name, paper in PAPER_VALUES:
        print()
        print(SECTIONS[name](results))
        if paper is not None:
            print(paper)
    print(f"\ntotal elapsed {time.time()-t0:.0f}s")


if __name__ == "__main__":
    main()
