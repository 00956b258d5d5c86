#!/usr/bin/env python3
"""In-the-wild monitoring: the paper's Section-4 pipeline, scaled down.

Populates a world with advertised apps running incentivized campaigns
on all seven IIPs plus a baseline app set, then runs the measurement
infrastructure -- the Appium-style UI fuzzer driving the eight
instrumented affiliate apps through a TLS-intercepting proxy behind
rotating VPN country exits, and the every-other-day Play Store crawler
-- and prints the core evaluation tables.

Run:  python examples/wild_monitoring.py [--scale 0.25] [--days 60]
"""

import argparse

from repro import World, WildScenario, WildScenarioConfig
from repro.core import WildMeasurement, WildMeasurementConfig
from repro.core.paper_report import SECTIONS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25,
                        help="fraction of the paper's 922 advertised apps")
    parser.add_argument("--days", type=int, default=60,
                        help="measurement window length in days")
    parser.add_argument("--seed", type=int, default=2019)
    args = parser.parse_args()

    world = World(seed=args.seed)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=args.scale, measurement_days=args.days))
    scenario.build()
    print(f"world built: {len(scenario.advertised)} advertised apps, "
          f"{len(scenario.baseline)} baseline apps")

    measurement = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=args.days))
    results = measurement.run()
    print(f"measurement done: {results.milk_runs} milk runs, "
          f"{results.crawl_requests} crawl requests, "
          f"{results.dataset.offer_count()} offers from "
          f"{len(results.dataset.unique_packages())} apps")
    print()

    print("\n\n".join(SECTIONS[name](results) for name in (
        "table2", "table3", "table4", "table5", "table6")))


if __name__ == "__main__":
    main()
