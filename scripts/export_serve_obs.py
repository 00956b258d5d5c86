"""Export the serving bench: ``BENCH_serve.json``.

Runs the always-on detection/analytics service twice at the bench
parameters — one clean run and one under the ``paper`` chaos profile —
each with the seeded query-heavy client fleet, and reports per endpoint
the ``serve.request_ops`` and virtual-latency percentiles
(p50/p95/p99), the admission counters (offered/admitted/shed, zero
unshed queue overflows), the watermark-cache hit rate, and the
detection quality (online == batch, precision/recall against the
fleet's ground truth).

Two outputs:

* ``BENCH_serve.json`` (``--out``): the full report including wall
  times — informative, not deterministic, never committed.
* ``benchmarks/snapshots/serve_obs.json`` (``--snapshot-out``): the
  deterministic subset (no wall times), committed to the repo.
  ``benchmarks/test_bench_serve.py`` fails if a fresh run drifts from
  it, which gates the service's latency/admission/quality numbers
  against silent regressions.

Run from the repo root::

    PYTHONPATH=src python scripts/export_serve_obs.py

The run parameters are the constants below; the committed snapshot
records them.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from obs_export import deterministic_subset, emit_report, render
from repro.serve import ServeRunConfig, run_serve

SEED = 2019
DAYS = 1
CLIENTS = 4
SHARDS = 2
QPS = 1.0
REQUESTS_PER_CLIENT_DAY = 400.0

#: Pinned chaos lane: same profile/seed the chaos snapshot uses.
CHAOS_PROFILE = "paper"
CHAOS_SEED = 7

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_serve.json"
DEFAULT_SNAPSHOT = REPO_ROOT / "benchmarks/snapshots/serve_obs.json"


def run_section(chaos_profile: str, chaos_seed) -> tuple:
    config = ServeRunConfig(
        seed=SEED,
        days=DAYS,
        clients=CLIENTS,
        qps=QPS,
        shards=SHARDS,
        profile="query-heavy",
        chaos_profile=chaos_profile,
        chaos_seed=chaos_seed,
        requests_per_client_day=REQUESTS_PER_CLIENT_DAY,
    )
    started = time.monotonic()
    result = run_serve(config)
    return result, time.monotonic() - started


def build_report() -> dict:
    clean, clean_elapsed = run_section("off", None)
    chaos, chaos_elapsed = run_section(CHAOS_PROFILE, CHAOS_SEED)
    report = {
        "run": {
            "seed": SEED,
            "days": DAYS,
            "clients": CLIENTS,
            "shards": SHARDS,
            "qps": QPS,
            "requests_per_client_day": REQUESTS_PER_CLIENT_DAY,
            "profile": "query-heavy",
            "chaos_profile": CHAOS_PROFILE,
            "chaos_seed": CHAOS_SEED,
        },
        "clean": clean.report,
        "chaos": chaos.report,
    }
    report["wall_seconds"] = {
        "clean": round(clean_elapsed, 2),
        "chaos": round(chaos_elapsed, 2),
    }
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="full serve bench report (with wall times)")
    parser.add_argument("--snapshot-out", type=Path, default=DEFAULT_SNAPSHOT,
                        help="deterministic subset, committed")
    args = parser.parse_args()
    emit_report(build_report(), args.out, args.snapshot_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
