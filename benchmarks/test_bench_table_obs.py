"""Per-table snapshot bench: pin every rendered table's content hash.

``scripts/export_table_obs.py`` commits a hash per paper table at the
bench parameters; this bench rebuilds that snapshot from the session's
wild bundle and compares it with the committed file byte for byte, so
a change that moves any table shows up as a named diff (``table5
moved``) instead of a silent re-render in CI logs.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO_ROOT / "benchmarks" / "snapshots" / "table_obs.json"

sys.path.insert(0, str(REPO_ROOT / "scripts"))

from export_table_obs import build_snapshot, render  # noqa: E402


@pytest.fixture(scope="module")
def committed():
    assert SNAPSHOT.exists(), (
        "run PYTHONPATH=src python scripts/export_table_obs.py")
    return SNAPSHOT.read_text()


def test_matches_committed_snapshot(benchmark, wild, committed):
    snapshot = benchmark(build_snapshot, wild.results)
    pinned = json.loads(committed)
    assert snapshot["run"] == pinned["run"], (
        "bench parameters differ from the committed snapshot, which pins "
        "the default REPRO_BENCH_SCALE")
    drifted = sorted(name for name in set(snapshot["tables"])
                     | set(pinned["tables"])
                     if snapshot["tables"].get(name)
                     != pinned["tables"].get(name))
    assert drifted == [], (
        f"tables moved: {drifted} "
        "(re-run scripts/export_table_obs.py if intentional)")
    # Byte for byte: the exporter writes exactly this text.
    assert render(snapshot) == committed
