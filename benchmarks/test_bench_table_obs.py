"""Per-table snapshot bench: pin every rendered table's content hash.

``scripts/export_table_obs.py`` commits a hash per paper table at the
bench parameters; this bench re-renders all eight from the session's
wild bundle and asserts nothing drifted, so a change that moves any
table shows up as a named diff (``table5 moved``) instead of a silent
re-render in CI logs.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from benchmarks.conftest import (
    BENCH_DAYS,
    BENCH_SCALE,
    BENCH_SEED,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO_ROOT / "benchmarks" / "snapshots" / "table_obs.json"

sys.path.insert(0, str(REPO_ROOT / "scripts"))

from export_table_obs import render_tables  # noqa: E402


@pytest.fixture(scope="module")
def committed():
    assert SNAPSHOT.exists(), (
        "run PYTHONPATH=src python scripts/export_table_obs.py")
    return json.loads(SNAPSHOT.read_text())


def test_bench_parameters_match(committed):
    assert committed["run"] == {
        "seed": BENCH_SEED, "scale": BENCH_SCALE, "days": BENCH_DAYS,
    }, ("bench parameters differ from the committed snapshot; "
        "re-run with matching REPRO_BENCH_* values")


def test_tables_match_committed_hashes(benchmark, wild, committed):
    tables = benchmark(render_tables, wild.results, wild.vetted,
                       wild.unvetted)
    assert set(tables) == set(committed["tables"])
    drifted = []
    for name, text in sorted(tables.items()):
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        pinned = committed["tables"][name]
        if (digest != pinned["sha256"]
                or text.count("\n") + 1 != pinned["lines"]):
            drifted.append(name)
    assert drifted == [], (
        f"tables moved: {drifted} "
        "(re-run scripts/export_table_obs.py if intentional)")


def test_inputs_match_committed(wild, committed):
    assert committed["inputs"] == {
        "offers": wild.results.dataset.offer_count(),
        "vetted_packages": len(wild.vetted),
        "unvetted_packages": len(wild.unvetted),
    }
