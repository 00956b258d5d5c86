"""One-call reproduction: run the wild measurement, print every table.

This is the library form of the repository's headline claim -- give it
a seed and a scale and it returns the paper's entire evaluation section
as text, computed from measured data.

:data:`SECTIONS` is the one place a section is rendered from
:class:`WildResults`; every other caller indexes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

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


def _table2(results: WildResults) -> str:
    """The offer walls the milker actually observed, per affiliate app."""
    walls: Dict[str, Set[str]] = {}
    for observation in results.observations:
        walls.setdefault(observation.affiliate_package,
                         set()).add(observation.iip_name)
    return reports.render_table2(walls)


def _table8(results: WildResults) -> str:
    funded = funded_packages(results.archive, results.dataset,
                             results.snapshot, results.vetted_packages())
    return reports.render_table8(funded_offer_breakdown(results.dataset,
                                                        funded))


def _fig4(results: WildResults) -> str:
    archive = results.archive
    installs = [archive.first_profile(p).installs_floor
                for p in results.baseline_packages
                if archive.first_profile(p) is not None]
    return reports.render_fig4(install_count_histogram(installs))


def _fig6(results: WildResults) -> str:
    groups = dict(split_packages_by_offer_type(results.dataset))
    groups["Vetted"] = results.vetted_packages()
    groups["Unvetted"] = results.unvetted_packages()
    groups["Baseline"] = results.baseline_packages
    return reports.render_fig6(ad_library_distribution(results.apk_scan,
                                                       groups))


def _cost_recovery(results: WildResults) -> str:
    recovery = summarize_cost_recovery(
        cost_recovery_analysis(results.dataset, results.apk_scan))
    lines = ["Cost recovery (the question Section 4.3.2 leaves open)",
             f"offers analysed: {recovery.offers_analysed}",
             f"recouping cost per completion: "
             f"{recovery.recouping_fraction:.1%}",
             f"median recovery ratio: {recovery.median_recovery_ratio:.2f}"]
    for kind, ratio in recovery.recovery_by_kind.items():
        lines.append(f"  {kind}: median ratio {ratio:.2f}")
    return "\n".join(lines)


#: Section name -> renderer, in the order :func:`analyse` prints them.
SECTIONS: Dict[str, Callable[[WildResults], str]] = {
    "table1": lambda results: reports.render_table1(),
    "table2": _table2,
    "table3": lambda results: reports.render_table3(
        offer_type_table(results.dataset)),
    "table4": lambda results: reports.render_table4(iip_summary_table(
        results.dataset, results.archive, VETTED_IIPS)),
    "table5": lambda results: reports.render_table5(
        install_increase_comparison(
            results.archive, results.dataset, results.vetted_packages(),
            results.unvetted_packages(), results.baseline_packages,
            results.baseline_window)),
    "table6": lambda results: reports.render_table6(top_chart_comparison(
        results.archive, results.dataset, results.vetted_packages(),
        results.unvetted_packages(), results.baseline_packages,
        results.baseline_window)),
    "table7": lambda results: reports.render_table7(funding_comparison(
        results.archive, results.dataset, results.snapshot,
        results.vetted_packages(), results.unvetted_packages(),
        results.baseline_packages, results.baseline_window[0])),
    "table8": _table8,
    "fig4": _fig4,
    "fig6": _fig6,
    "arbitrage": lambda results: reports.render_arbitrage(
        arbitrage_stats(results.dataset, VETTED_IIPS)),
    "enforcement": lambda results: reports.render_enforcement(
        enforcement_decreases(results.archive, {
            "Baseline": results.baseline_packages,
            "Vetted": results.vetted_packages(),
            "Unvetted": results.unvetted_packages(),
        })),
    "cost_recovery": _cost_recovery,
}


def analyse(results: WildResults) -> PaperReport:
    """Every paper table/figure from one set of measured results."""
    return PaperReport(results=results, sections=[
        (name, render(results)) for name, render in SECTIONS.items()])


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
