"""Calibration harness: run the full wild measurement and print every
table next to the paper's values.  Used during development to tune the
scenario constants in repro.simulation.scenarios."""

import argparse
import time

from repro import World, WildScenario, WildScenarioConfig
from repro.analysis.appstore_impact import (
    enforcement_decreases,
    install_increase_comparison,
    top_chart_comparison,
)
from repro.analysis.characterize import (
    iip_summary_table,
    install_count_histogram,
    offer_type_table,
)
from repro.analysis.funding import (
    funded_offer_breakdown,
    funded_packages,
    funding_comparison,
)
from repro.analysis.monetization import (
    ad_library_distribution,
    arbitrage_stats,
    split_packages_by_offer_type,
)
from repro.core import WildMeasurement, WildMeasurementConfig
from repro.core import reports
from repro.iip.registry import VETTED_IIPS


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

    dataset, archive = results.dataset, results.archive
    print()
    print(reports.render_table3(offer_type_table(dataset)))
    print("  [paper: 47%/$0.06, 53%/$0.52, 37%/$0.50, 11%/$0.34, 5%/$2.98]")
    print()
    print(reports.render_table4(iip_summary_table(dataset, archive, VETTED_IIPS)))
    print()
    vetted = results.vetted_packages()
    unvetted = results.unvetted_packages()
    t5 = install_increase_comparison(archive, dataset, vetted, unvetted,
                                     results.baseline_packages,
                                     results.baseline_window)
    print(reports.render_table5(t5))
    print("  [paper: baseline 2%, vetted 12% (chi2 26.0), unvetted 16% (chi2 39.9)]")
    print()
    t6 = top_chart_comparison(archive, dataset, vetted, unvetted,
                              results.baseline_packages,
                              results.baseline_window)
    print(reports.render_table6(t6))
    print("  [paper: baseline 3.1%, vetted 7.5% (chi2 5.43 p.02), unvetted 2.5% (chi2 .22 p.64)]")
    print()
    t7 = funding_comparison(archive, dataset, results.snapshot, vetted,
                            unvetted, results.baseline_packages,
                            results.baseline_window[0])
    print(reports.render_table7(t7))
    print("  [paper: baseline 6.1% of 82, vetted 15.6% of 192 (chi2 4.7), "
          "unvetted 13.9% of 79 (chi2 2.8); match 27%/39%/15%]")
    print()
    funded_vetted = funded_packages(archive, dataset, results.snapshot, vetted)
    print(reports.render_table8(funded_offer_breakdown(dataset, funded_vetted)))
    print("  [paper: 67%/$0.12 no-activity, 63%/$0.92 activity, N=30]")
    print()
    baseline_installs = [archive.first_profile(p).installs_floor
                         for p in results.baseline_packages
                         if archive.first_profile(p)]
    print(reports.render_fig4(install_count_histogram(baseline_installs)))
    print()
    groups = dict(split_packages_by_offer_type(dataset))
    groups["Vetted"] = vetted
    groups["Unvetted"] = unvetted
    groups["Baseline"] = results.baseline_packages
    print(reports.render_fig6(ad_library_distribution(results.apk_scan, groups)))
    print("  [paper >=5 libs: activity 60%, no-activity 25%, "
          "vetted 55%, unvetted 20%, baseline 35%]")
    print()
    print(reports.render_arbitrage(arbitrage_stats(dataset, VETTED_IIPS)))
    print("  [paper: 3.9% overall, 7% vetted, 2% unvetted]")
    print()
    print(reports.render_enforcement(enforcement_decreases(archive, {
        "Baseline": results.baseline_packages,
        "Vetted": vetted,
        "Unvetted": unvetted,
    })))
    print("  [paper: 0 baseline, 0 vetted, ~2% unvetted]")
    print(f"\ntotal elapsed {time.time()-t0:.0f}s")


if __name__ == "__main__":
    main()
