"""Honey-pipeline perf bench: the shipped experiment, pinned.

``scripts/export_bench_obs.py`` runs the Section-3 experiment once at
the bench scale; this bench asserts that TLS sessions really resume
(more resumptions than handshakes, none failing), that the op-cost
histograms are populated, and pins the deterministic subset against
the committed ``benchmarks/snapshots/honey_obs.json`` so a round-trip
regression cannot land silently.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO_ROOT / "benchmarks" / "snapshots" / "honey_obs.json"

sys.path.insert(0, str(REPO_ROOT / "scripts"))

from export_bench_obs import (  # noqa: E402
    build_honey_report,
    deterministic_subset,
    render,
)


@pytest.fixture(scope="module")
def report():
    return build_honey_report()


class TestHoneyPerf:
    def test_sessions_actually_resume(self, report):
        tls = report["tls"]
        # Most telemetry uploads resume instead of handshaking.
        assert tls["resumptions"] > tls["handshakes"] > 0
        # At bench scale the clean fabric never breaks a session.
        assert tls["resume_failures"] == 0

    def test_op_cost_histograms_cover_every_stage(self, report):
        op_cost = report["op_cost"]
        assert op_cost["honey.campaign_ops"]["count"] == 3
        assert op_cost["honey.analysis_ops"]["count"] == 1
        assert (op_cost["honey.campaign_ops"]["p99_ops"]
                >= op_cost["honey.campaign_ops"]["p50_ops"])

    def test_throughput_is_reported_and_real(self, report):
        """BENCH_honey.json carries the same host-dependent sections
        BENCH_wild.json does: install throughput and peak RSS."""
        assert report["devices_per_sec"] > 0

    def test_peak_rss_is_tracked_and_bounded(self, report):
        rss = report["peak_rss_mb"]
        assert rss["self"] > 0
        # All three are rounded to 0.1 MB, so the sum of the parts can
        # be one rounding step (plus float error) off the total.
        assert rss["total"] == pytest.approx(
            rss["self"] + rss["children"], abs=0.11)
        # The honey bench runs in-process; it fits comfortably in 2 GB.
        assert rss["total"] < 2048

    def test_matches_committed_snapshot(self, report):
        assert SNAPSHOT.exists(), (
            "run PYTHONPATH=src python scripts/export_bench_obs.py")
        committed = SNAPSHOT.read_text()
        rendered = render(deterministic_subset(report))
        assert json.loads(rendered)["run"] == json.loads(committed)["run"], (
            "bench parameters differ from the committed snapshot; "
            "regenerate it with scripts/export_bench_obs.py")
        # Byte for byte: the exporter writes exactly this text.
        assert rendered == committed
