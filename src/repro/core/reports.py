"""Text renderers: print each paper table/figure from measured results."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.affiliates.registry import AFFILIATE_SPECS
from repro.analysis.appstore_impact import (
    CaseStudyTimeline,
    EnforcementObservation,
    ImpactComparison,
)
from repro.analysis.characterize import IipSummaryRow, OfferTypeRow
from repro.analysis.funding import FundedOfferBreakdown, FundingComparison
from repro.analysis.monetization import AdLibraryCdf, ArbitrageStats
from repro.core.honey_experiment import HoneyExperimentResults
from repro.iip.registry import TABLE1_ROWS


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_table1() -> str:
    rows = [(name, "Vetted" if vetted else "Unvetted", url)
            for name, vetted, url in TABLE1_ROWS]
    return "Table 1: IIP characterisation\n" + _table(
        ("IIP", "Type", "Home URL"), rows)


def render_table2(observed_walls: Optional[Mapping[str, Sequence[str]]] = None) -> str:
    """Affiliate apps and their integrated offer walls.

    ``observed_walls`` (app package -> IIPs actually seen by the milker)
    overrides the static registry when provided.
    """
    rows = []
    for package, spec in AFFILIATE_SPECS.items():
        iips = (observed_walls or {}).get(package, spec.integrated_iips)
        rows.append((package, spec.installs_display, ", ".join(sorted(iips))))
    return "Table 2: instrumented affiliate apps\n" + _table(
        ("App Package", "Installs", "Integrated IIP offer walls"), rows)


def render_table3(rows: Sequence[OfferTypeRow]) -> str:
    body = [(row.label, f"{row.fraction_of_all:.0%}",
             f"${row.average_payout_usd:.2f}") for row in rows]
    total = rows[0].offer_count + rows[1].offer_count if len(rows) >= 2 else 0
    return (f"Table 3: offer types (N = {total})\n"
            + _table(("Offer Type", "% of offers", "Average payout"), body))


def render_table4(rows: Sequence[IipSummaryRow]) -> str:
    body = [
        (row.iip_name, row.iip_type, f"${row.median_offer_payout_usd:.2f}",
         f"{row.no_activity_fraction:.0%}", f"{row.activity_fraction:.0%}",
         str(row.app_count), str(row.developer_count),
         str(row.country_count), str(row.genre_count),
         f"{row.median_install_count:,.0f}",
         f"{row.median_app_age_days:.0f}")
        for row in sorted(rows, key=lambda r: (r.iip_type == "Vetted",
                                               r.iip_name))
    ]
    return "Table 4: per-IIP summary\n" + _table(
        ("IIP", "Type", "Median payout", "% no-activity", "% activity",
         "Apps", "Developers", "Countries", "Genres", "Median installs",
         "Median age (days)"), body)


def _render_comparison(title: str, comparison: ImpactComparison,
                       positive_label: str) -> str:
    body = []
    for group in (comparison.baseline, comparison.vetted, comparison.unvetted):
        body.append((f"{group.label} (N={group.total})",
                     f"{group.negative} ({1 - group.fraction:.1%})",
                     f"{group.positive} ({group.fraction:.1%})"))
    stats = (
        f"vetted vs baseline:   chi2={comparison.vetted_vs_baseline.chi2:.2f} "
        f"p={comparison.vetted_vs_baseline.p_value:.3g}\n"
        f"unvetted vs baseline: chi2={comparison.unvetted_vs_baseline.chi2:.2f} "
        f"p={comparison.unvetted_vs_baseline.p_value:.3g}")
    return (title + "\n"
            + _table(("App Set", f"No {positive_label}", positive_label), body)
            + "\n" + stats)


def render_table5(comparison: ImpactComparison) -> str:
    return _render_comparison("Table 5: install-count increases",
                              comparison, "Increase")


def render_table6(comparison: ImpactComparison) -> str:
    return _render_comparison("Table 6: top-chart appearances",
                              comparison, "Present")


def render_table7(comparison: FundingComparison) -> str:
    body = []
    for group in (comparison.baseline, comparison.vetted, comparison.unvetted):
        body.append((f"{group.label} (N={group.apps_matched})",
                     f"{group.funded_after_campaign} "
                     f"({group.funded_fraction:.1%})",
                     f"{group.apps_matched - group.funded_after_campaign} "
                     f"({1 - group.funded_fraction:.1%})",
                     f"{group.match_rate:.0%}"))
    stats = (
        f"vetted vs baseline:   chi2={comparison.vetted_vs_baseline.chi2:.2f} "
        f"p={comparison.vetted_vs_baseline.p_value:.3g}\n"
        f"unvetted vs baseline: chi2={comparison.unvetted_vs_baseline.chi2:.2f} "
        f"p={comparison.unvetted_vs_baseline.p_value:.3g}\n"
        f"publicly traded developers among advertised apps: "
        f"{comparison.public_company_apps}")
    return ("Table 7: funding raised after campaigns\n"
            + _table(("App Set", "Funding Raised", "No Funding Raised",
                      "Crunchbase match rate"), body)
            + "\n" + stats)


def render_table8(breakdown: FundedOfferBreakdown) -> str:
    body = [
        ("No activity", f"{breakdown.no_activity_app_fraction:.0%}",
         f"${breakdown.no_activity_average_payout:.2f}"),
        ("Activity", f"{breakdown.activity_app_fraction:.0%}",
         f"${breakdown.activity_average_payout:.2f}"),
    ]
    return (f"Table 8: offers of funded vetted apps "
            f"(N = {breakdown.funded_app_count})\n"
            + _table(("Offer Type", "Percentage of Apps", "Average Payout"),
                     body))


def render_fig4(histogram: Sequence) -> str:
    peak = max(count for _, count in histogram) or 1
    lines = ["Figure 4: install counts of the baseline apps"]
    for label, count in histogram:
        bar = "#" * int(round(30 * count / peak))
        lines.append(f"{label:>12} | {bar} {count}")
    return "\n".join(lines)


def render_fig5(timeline: CaseStudyTimeline) -> str:
    lines = [
        f"Figure 5: {timeline.package} in {timeline.chart}",
        f"campaign window: day {timeline.campaign_start} "
        f"to day {timeline.campaign_end}",
    ]
    for point in timeline.points:
        if point.percentile is None:
            marker = "x"
            detail = "not in chart"
        else:
            marker = "o"
            detail = f"percentile {point.percentile:.2f}"
        in_window = (timeline.campaign_start <= point.day
                     <= timeline.campaign_end)
        flag = " <- campaign" if in_window else ""
        lines.append(f"day {point.day:>3} {marker} {detail}{flag}")
    return "\n".join(lines)


#: Figure 6's headline ad-library count.
FIG6_AD_LIBRARY_THRESHOLD = 5


def render_fig6(distributions: Sequence[AdLibraryCdf]) -> str:
    threshold = FIG6_AD_LIBRARY_THRESHOLD
    lines = ["Figure 6: unique ad libraries per app (CDF summary)"]
    for distribution in distributions:
        lines.append(
            f"{distribution.label:>20}: N={distribution.app_count:4d}  "
            f"P(>= {threshold} ad libs) = "
            f"{distribution.fraction_with_at_least(threshold):.0%}")
    return "\n".join(lines)


def render_arbitrage(stats: ArbitrageStats) -> str:
    return ("Arbitrage offers (Section 4.3.2)\n"
            f"apps using arbitrage offers: {stats.arbitrage_apps}/"
            f"{stats.total_apps} ({stats.overall_fraction:.1%})\n"
            f"vetted: {stats.vetted_arbitrage}/{stats.vetted_apps} "
            f"({stats.vetted_fraction:.1%})  "
            f"unvetted: {stats.unvetted_arbitrage}/{stats.unvetted_apps} "
            f"({stats.unvetted_fraction:.1%})")


def render_enforcement(observations: Sequence[EnforcementObservation]) -> str:
    body = [(obs.label, str(obs.total), str(obs.decreased),
             f"{obs.fraction:.1%}") for obs in observations]
    return ("Enforcement (Section 5.2): install-count decreases\n"
            + _table(("App Set", "Apps", "Decreased", "Fraction"), body))


def render_honey_report(results: HoneyExperimentResults) -> str:
    lines = ["Section 3: honey-app experiment",
             f"total installs: {results.total_installs()}",
             f"displayed install count: "
             f"{results.displayed_installs_before} -> "
             f"{results.displayed_installs_after}+",
             f"mean cost per paid install: "
             f"${results.mean_cost_per_install:.3f}"]
    acquisition = {s.iip_name: s for s in results.analysis.acquisition()}
    engagement = {s.iip_name: s for s in results.analysis.engagement()}
    body = []
    for record in results.campaigns:
        acq = acquisition[record.iip_name]
        eng = engagement[record.iip_name]
        body.append((record.iip_name, str(acq.installs),
                     f"{acq.missing_fraction:.0%}",
                     f"{acq.delivery_hours:.1f}h",
                     f"{eng.click_rate:.0%}",
                     str(eng.clicked_day_after)))
    lines.append(_table(("IIP", "Installs", "Missing telemetry", "Delivery",
                         "Clicked record", "Clicked day after"), body))
    automation = results.analysis.automation()
    lines.append(f"emulator installs: {automation.emulator_installs}  "
                 f"cloud-ASN devices: {automation.cloud_asn_devices}")
    for farm in automation.farms:
        lines.append(f"device farm at {farm.ip_slash24}: "
                     f"{farm.installs} installs, {farm.rooted} rooted, "
                     f"{farm.rooted_sharing_ssid} sharing one SSID")
    co = results.analysis.co_installs()
    lines.append(f"unique co-installed packages: {co.total_unique_packages}")
    for iip_name, fraction in sorted(co.money_keyword_fraction_by_iip.items()):
        top = co.top_affiliate_by_iip.get(iip_name)
        top_text = f"{top[0]} ({top[1]:.0%})" if top else "-"
        lines.append(f"{iip_name}: money-keyword apps on {fraction:.0%} "
                     f"of devices; top affiliate {top_text}")
    return "\n".join(lines)
