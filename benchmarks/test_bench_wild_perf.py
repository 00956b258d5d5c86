"""Wild-measurement perf bench: the shipped pipeline, pinned.

``scripts/export_bench_obs.py`` runs the pipeline once at the bench
scale; this bench asserts the crawler's (package, day) cache is doing
real work (a real hit rate, every crawl request a cache miss),
populated op-cost histograms, gates the run's wall clock, peak RSS and
device throughput, and pins the deterministic subset against the
committed ``benchmarks/snapshots/wild_obs.json`` so a request-count
regression cannot land silently.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO_ROOT / "benchmarks" / "snapshots" / "wild_obs.json"

sys.path.insert(0, str(REPO_ROOT / "scripts"))

from export_bench_obs import (  # noqa: E402
    DAYS as BENCH_DAYS,
    build_report,
    deterministic_subset,
    render,
)

#: Wall-clock ceiling for the bench config: the pre-optimisation
#: baseline ran 34.8s, so this pins a >= 2x end-to-end speedup with
#: headroom for runner jitter.
WALL_GATE_SECONDS = 17.4


@pytest.fixture(scope="module")
def report():
    return build_report()


class TestPerf:
    def test_cache_hit_rate_is_real(self, report):
        cache = report["cache"]
        assert cache["hits"] > 0
        assert 0.0 < cache["hit_rate"] < 1.0
        # Every wire fetch is a memo miss, and every miss one fetch.
        assert report["crawl"]["requests"] == cache["misses"]

    def test_op_cost_histograms_cover_every_day_phase(self, report):
        op_cost = report["op_cost"]
        milk_days = (BENCH_DAYS + 1) // 2
        crawl_days = (BENCH_DAYS + 1) // 2
        assert op_cost["wild.milk_ops"]["count"] == milk_days
        assert op_cost["wild.crawl_ops"]["count"] == crawl_days
        # Four finalize stages (apk scan, snapshot, frame, coverage),
        # each advancing the op clock by its real unit-of-work count.
        assert op_cost["wild.analyse_ops"]["count"] == 4
        assert op_cost["wild.analyse_ops"]["max_ops"] > 100
        assert (op_cost["wild.milk_ops"]["p99_ops"]
                >= op_cost["wild.milk_ops"]["p50_ops"])

    def test_wall_clock_meets_gate(self, report):
        assert report["wall_seconds"] <= WALL_GATE_SECONDS

    def test_device_throughput_is_reported_and_real(self, report):
        # milk_runs / WALL_GATE_SECONDS at the bench scale.
        assert report["devices_per_sec"] >= 50.0

    def test_peak_rss_is_tracked_and_bounded(self, report):
        rss = report["peak_rss_mb"]
        assert rss["self"] > 0
        # All three are rounded to 0.1 MB, so the sum of the parts can
        # be one rounding step (plus float error) off the total.
        assert rss["total"] == pytest.approx(
            rss["self"] + rss["children"], abs=0.11)
        # The whole bench fits in 4 GB.
        assert rss["total"] < 4096

    def test_matches_committed_snapshot(self, report):
        assert SNAPSHOT.exists(), (
            "run PYTHONPATH=src python scripts/export_bench_obs.py")
        committed = SNAPSHOT.read_text()
        rendered = render(deterministic_subset(report))
        assert json.loads(rendered)["run"] == json.loads(committed)["run"], (
            "bench parameters differ from the committed snapshot, which "
            "pins the default REPRO_BENCH_SCALE")
        # Byte for byte: the exporter writes exactly this text.
        assert rendered == committed
