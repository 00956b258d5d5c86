"""Serving bench: latency percentiles, admission, and quality, pinned.

``scripts/export_serve_obs.py`` runs the always-on detection service
under the seeded query-heavy fleet twice (clean and ``paper`` chaos);
this bench asserts the headline serving claims — every endpoint carries
traffic with ordered p50 <= p95 <= p99, the watermark cache earns its
keep on a query-heavy mix, admission control sheds instead of
overflowing, and the online detector still equals the batch replay
under load and chaos — and pins the deterministic subset against the
committed ``benchmarks/snapshots/serve_obs.json``.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO_ROOT / "benchmarks" / "snapshots" / "serve_obs.json"

sys.path.insert(0, str(REPO_ROOT / "scripts"))

from export_serve_obs import (  # noqa: E402
    build_report,
    deterministic_subset,
    render,
)

SECTIONS = ("clean", "chaos")


@pytest.fixture(scope="module")
def report():
    return build_report()


class TestServeBench:
    @pytest.mark.parametrize("section", SECTIONS)
    def test_every_endpoint_serves_with_ordered_percentiles(
            self, report, section):
        for endpoint, stats in report[section]["endpoints"].items():
            assert stats["requests"] > 0, endpoint
            for table in ("ops", "latency_vtime_ms"):
                summary = stats[table]
                assert summary["count"] > 0, (endpoint, table)
                assert (summary["p50"] <= summary["p95"]
                        <= summary["p99"]), (endpoint, table)

    def test_cache_pays_off_on_query_heavy_traffic(self, report):
        assert report["clean"]["cache"]["hit_rate"] >= 0.5

    @pytest.mark.parametrize("section", SECTIONS)
    def test_admission_sheds_instead_of_overflowing(self, report, section):
        admission = report[section]["admission"]
        assert admission["unshed_overflows"] == 0
        assert admission["accounting_consistent"]
        assert (admission["offered"]
                == admission["admitted"] + admission["shed"])

    @pytest.mark.parametrize("section", SECTIONS)
    def test_online_equals_batch_under_load(self, report, section):
        assert report[section]["detection"]["online_equals_batch"]

    @pytest.mark.parametrize("section", SECTIONS)
    def test_quality_floors(self, report, section):
        detection = report[section]["detection"]
        assert detection["precision"] >= 0.95
        assert detection["recall"] >= 0.50
        assert detection["false_positive_rate"] <= 0.05

    def test_chaos_actually_injected_faults(self, report):
        chaos = report["chaos"]["chaos"]
        assert chaos["profile"] == "paper"
        assert chaos["connect_faults"] > 0
        assert chaos["injected_statuses"] > 0

    def test_matches_committed_snapshot(self, report):
        assert SNAPSHOT.exists(), (
            "run PYTHONPATH=src python scripts/export_serve_obs.py")
        committed = SNAPSHOT.read_text()
        rendered = render(deterministic_subset(report))
        assert json.loads(rendered)["run"] == json.loads(committed)["run"], (
            "bench parameters differ from the committed snapshot; "
            "regenerate it with scripts/export_serve_obs.py")
        # Byte for byte: the exporter writes exactly this text.
        assert rendered == committed
