"""Detection bench: live-source quality floors, pinned.

``scripts/export_detect_obs.py`` streams both measurement pipelines —
Section-3 honey telemetry and the Section-4 wild monitor — through the
online lockstep detector at the bench scale; this bench asserts the
headline claims (precision/recall floors on *live* sources, not just
the synthetic corpus; online == batch on both) and pins the
deterministic subset against the committed
``benchmarks/snapshots/detect_obs.json`` so a quality regression
cannot land silently.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO_ROOT / "benchmarks" / "snapshots" / "detect_obs.json"

sys.path.insert(0, str(REPO_ROOT / "scripts"))

from export_detect_obs import (  # noqa: E402
    build_report,
    deterministic_subset,
    render,
)


@pytest.fixture(scope="module")
def report():
    return build_report()


class TestDetectBench:
    def test_honey_ground_truth_recovered(self, report):
        quality = report["honey"]["quality"]
        # Every honey install is a purchased install; the detector sees
        # the full campaign bursts and should recover nearly all of it.
        assert quality["precision"] >= 0.99
        assert quality["recall"] >= 0.95

    def test_wild_quality_floors(self, report):
        quality = report["wild"]["quality"]
        assert quality["precision"] >= 0.90
        assert quality["recall"] >= 0.50
        assert quality["false_positive_rate"] <= 0.05

    def test_streams_carry_labelled_events(self, report):
        for source in ("honey", "wild"):
            stream = report[source]["stream"]
            assert stream["events"] > 0
            assert stream["incentivized"] > 0
            assert stream["clusters"] > 0
            assert stream["events_ingested_counter"] == stream["events"]

    def test_online_converges_to_batch_on_both_sources(self, report):
        assert report["honey"]["stream_equals_batch"]
        assert report["wild"]["stream_equals_batch"]

    def test_evasion_degrades_naive_and_hardened_recovers(self, report):
        wild = report["scenarios"]["evasive"]["wild"]
        naive_wild = report["wild"]["quality"]
        # Evasion guts the naive fixed-window detector on the same
        # world the naive lane just cleared...
        assert wild["naive"]["recall"] <= naive_wild["recall"] / 2
        # ...and the honey-seeded hardened detector recovers the floor
        # without giving up precision.
        assert wild["hardened"]["recall"] >= 0.63
        assert wild["hardened"]["precision"] >= 0.95
        assert wild["hardened"]["false_positive_rate"] <= 0.01

    def test_hardened_recovers_on_honey_too(self, report):
        honey = report["scenarios"]["evasive"]["honey"]
        assert honey["naive"]["recall"] <= 0.5
        assert honey["hardened"]["recall"] >= 0.6
        assert honey["hardened"]["precision"] >= 0.99

    def test_fake_review_floors(self, report):
        section = report["scenarios"]["fake_reviews"]
        assert section["reviews"] > 0
        assert section["paid_reviewers"] > 0
        assert section["quality"]["precision"] >= 0.90
        assert section["quality"]["recall"] >= 0.45

    def test_download_fraud_floors(self, report):
        section = report["scenarios"]["download_fraud"]
        assert section["quality"]["precision"] >= 0.90
        assert section["quality"]["recall"] >= 0.75
        assert section["boosted_apps"], "no fraud apps were boosted"
        for app in section["boosted_apps"]:
            assert app["best_rank"] is not None
            assert app["best_rank"] <= 20

    def test_matches_committed_snapshot(self, report):
        assert SNAPSHOT.exists(), (
            "run PYTHONPATH=src python scripts/export_detect_obs.py")
        committed = SNAPSHOT.read_text()
        rendered = render(deterministic_subset(report))
        assert json.loads(rendered)["run"] == json.loads(committed)["run"], (
            "bench parameters differ from the committed snapshot; "
            "regenerate it with scripts/export_detect_obs.py")
        # Byte for byte: the exporter writes exactly this text.
        assert rendered == committed
