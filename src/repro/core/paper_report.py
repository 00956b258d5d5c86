"""One-call reproduction: run the wild measurement, print every table.

This is the library form of the repository's headline claim -- give it
a seed and a scale and it returns the paper's entire evaluation section
as text, computed from measured data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

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
from repro.analysis.revenue import (
    cost_recovery_analysis,
    summarize_cost_recovery,
)
from repro.core import reports
from repro.core.wild_measurement import (
    WildMeasurement,
    WildMeasurementConfig,
    WildResults,
)
from repro.iip.registry import VETTED_IIPS
from repro.obs import Observability
from repro.simulation.scenarios import WildScenario, WildScenarioConfig
from repro.simulation.world import World


@dataclass
class PaperReport:
    """The measured evaluation, table by table."""

    results: WildResults
    sections: List[Tuple[str, str]]

    def render(self) -> str:
        return "\n\n".join(text for _, text in self.sections)

    def section(self, name: str) -> str:
        for title, text in self.sections:
            if title == name:
                return text
        raise KeyError(f"no section {name!r}")

    def section_names(self) -> List[str]:
        return [title for title, _ in self.sections]


def analyse(results: WildResults) -> PaperReport:
    """Every paper table/figure from one set of measured results."""
    dataset, archive = results.dataset, results.archive
    vetted = results.vetted_packages()
    unvetted = results.unvetted_packages()
    sections: List[Tuple[str, str]] = []

    sections.append(("table1", reports.render_table1()))
    sections.append(("table2", reports.render_table2()))
    sections.append(("table3", reports.render_table3(
        offer_type_table(dataset))))
    sections.append(("table4", reports.render_table4(
        iip_summary_table(dataset, archive, VETTED_IIPS))))
    sections.append(("table5", reports.render_table5(
        install_increase_comparison(archive, dataset, vetted, unvetted,
                                    results.baseline_packages,
                                    results.baseline_window))))
    sections.append(("table6", reports.render_table6(
        top_chart_comparison(archive, dataset, vetted, unvetted,
                             results.baseline_packages,
                             results.baseline_window))))
    t7 = funding_comparison(archive, dataset, results.snapshot, vetted,
                            unvetted, results.baseline_packages,
                            results.baseline_window[0])
    sections.append(("table7", reports.render_table7(t7)))
    funded = funded_packages(archive, dataset, results.snapshot, vetted)
    sections.append(("table8", reports.render_table8(
        funded_offer_breakdown(dataset, funded))))

    baseline_installs = [archive.first_profile(p).installs_floor
                         for p in results.baseline_packages
                         if archive.first_profile(p) is not None]
    sections.append(("fig4", reports.render_fig4(
        install_count_histogram(baseline_installs))))

    groups = dict(split_packages_by_offer_type(dataset))
    groups["Vetted"] = vetted
    groups["Unvetted"] = unvetted
    groups["Baseline"] = results.baseline_packages
    sections.append(("fig6", reports.render_fig6(
        ad_library_distribution(results.apk_scan, groups))))

    sections.append(("arbitrage", reports.render_arbitrage(
        arbitrage_stats(dataset, VETTED_IIPS))))
    sections.append(("enforcement", reports.render_enforcement(
        enforcement_decreases(archive, {
            "Baseline": results.baseline_packages,
            "Vetted": vetted,
            "Unvetted": unvetted,
        }))))

    recovery = summarize_cost_recovery(
        cost_recovery_analysis(dataset, results.apk_scan))
    recovery_lines = ["Cost recovery (the question Section 4.3.2 leaves open)",
                      f"offers analysed: {recovery.offers_analysed}",
                      f"recouping cost per completion: "
                      f"{recovery.recouping_fraction:.1%}",
                      f"median recovery ratio: "
                      f"{recovery.median_recovery_ratio:.2f}"]
    for kind, ratio in recovery.recovery_by_kind.items():
        recovery_lines.append(f"  {kind}: median ratio {ratio:.2f}")
    sections.append(("cost_recovery", "\n".join(recovery_lines)))

    return PaperReport(results=results, sections=sections)


def run_full_reproduction(seed: int = 2019, scale: float = 1.0,
                          days: Optional[int] = None,
                          obs: Optional["Observability"] = None) -> PaperReport:
    """Build the world, run the measurement, analyse everything.

    Pass an :class:`repro.obs.Observability` to collect metrics and
    spans for the whole run (the CLI's ``--metrics-out`` does this).
    """
    world = World(seed=seed, obs=obs)
    scenario_config = (WildScenarioConfig(scale=scale)
                       if days is None
                       else WildScenarioConfig(scale=scale,
                                               measurement_days=days))
    scenario = WildScenario(world, scenario_config)
    scenario.build()
    measurement_config = (WildMeasurementConfig()
                          if days is None
                          else WildMeasurementConfig(measurement_days=days))
    measurement = WildMeasurement(world, scenario, measurement_config)
    return analyse(measurement.run())
