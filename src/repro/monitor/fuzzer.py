"""Appium-style UI fuzzer.

"Our UI fuzzer sequentially opens all of the tabs to load the offer
walls and then it scrolls through the offer wall to make sure that all
the offers are loaded" (paper Section 4.1).  The fuzzer below does
exactly that, and nothing app-specific: it discovers tabs by view
class, taps each, and scrolls until the list stops growing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.affiliates.app import AffiliateAppRuntime
from repro.affiliates.ui import TabView

#: Hard cap so a misbehaving app cannot wedge the fuzzer.
MAX_SCROLLS_PER_TAB = 200


@dataclass
class FuzzReport:
    """What one fuzzing session did."""

    app_package: str
    tabs_opened: List[str] = field(default_factory=list)
    #: Walls that failed to load (tap error) or died mid-scroll; the
    #: milker reports these as lost coverage for the run.
    tabs_failed: List[str] = field(default_factory=list)
    scrolls: int = 0
    actions: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def log(self, action: str) -> None:
        self.actions.append(action)

    def note_failure(self, iip_name: str) -> None:
        if iip_name not in self.tabs_failed:
            self.tabs_failed.append(iip_name)


class UiFuzzer:
    """Drives any affiliate app to exhaustively load its offer walls."""

    def run(self, runtime: AffiliateAppRuntime) -> FuzzReport:
        report = FuzzReport(app_package=runtime.spec.package)
        root = runtime.open()
        report.log("launch")
        tabs = [view for view in root.find_by_class("TabView")
                if isinstance(view, TabView)]
        for tab in tabs:
            # A dead wall must not abort the session: record the failure
            # and keep milking the app's other walls.
            try:
                runtime.tap(tab)
            except Exception as exc:  # noqa: BLE001 - measurement boundary
                report.errors.append(
                    f"{tab.iip_name}: {type(exc).__name__}: {exc}")
                report.note_failure(tab.iip_name)
                report.log(f"tap {tab.view_id} failed")
                continue
            report.tabs_opened.append(tab.iip_name)
            report.log(f"tap {tab.view_id}")
            for _ in range(MAX_SCROLLS_PER_TAB):
                try:
                    more = runtime.scroll()
                except Exception as exc:  # noqa: BLE001
                    report.errors.append(
                        f"{tab.iip_name} scroll: {type(exc).__name__}: {exc}")
                    report.note_failure(tab.iip_name)
                    break
                if not more:
                    break
                report.scrolls += 1
                report.log("scroll")
            else:
                report.log("scroll budget exhausted")
        return report
