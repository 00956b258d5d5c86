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
  times — informative, not deterministic, uploaded as a CI artifact.
* ``benchmarks/snapshots/serve_obs.json`` (``--snapshot-out``): the
  deterministic subset (no wall times), committed to the repo.
  ``--check`` fails if a fresh run drifts from it, which gates the
  service's latency/admission/quality numbers against silent
  regressions.

Run from the repo root::

    PYTHONPATH=src python scripts/export_serve_obs.py

Scale/seed come from ``REPRO_BENCH_SERVE_*`` variables; the committed
snapshot records them, so a check run under different values reports
parameter drift rather than corruption.
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path

from obs_export import deterministic_subset, emit_report, render
from repro.serve import ServeRunConfig, run_serve

SEED = int(os.environ.get("REPRO_BENCH_SERVE_SEED", "2019"))
DAYS = int(os.environ.get("REPRO_BENCH_SERVE_DAYS", "1"))
CLIENTS = int(os.environ.get("REPRO_BENCH_SERVE_CLIENTS", "4"))
SHARDS = int(os.environ.get("REPRO_BENCH_SERVE_SHARDS", "2"))
QPS = float(os.environ.get("REPRO_BENCH_SERVE_QPS", "1.0"))
REQUESTS_PER_CLIENT_DAY = float(
    os.environ.get("REPRO_BENCH_SERVE_REQUESTS", "400"))

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
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) if the committed snapshot "
                             "does not match a fresh run")
    args = parser.parse_args()
    return emit_report("serve", build_report(), args.out,
                       args.snapshot_out, args.check,
                       "export_serve_obs.py")


if __name__ == "__main__":
    raise SystemExit(main())
