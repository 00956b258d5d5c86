"""Shared plumbing for the ``export_*_obs.py`` snapshot exporters.

Every exporter pins a deterministic JSON snapshot under
``benchmarks/snapshots/`` and (for the perf benches) a full report with
wall times next to the repo root.  The rendering, the writing and the
per-stage quantile tables live here, so a formatting change lands
everywhere at once.  Each snapshot's ``benchmarks/test_bench_*.py``
checks the committed file against a fresh run.

Not importable as ``repro.*`` on purpose: the exporters run from the
repo root as plain scripts (``python scripts/export_x_obs.py``) and the
benchmarks add ``scripts/`` to ``sys.path`` — both paths resolve this
module the same way.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Legacy per-stage quantile keys mapped onto
#: :meth:`repro.obs.metrics.HistogramState.summary` fields.  The names
#: are load-bearing: the committed wild/honey snapshots and the bench
#: gates read them, so the mapping must not change without regenerating
#: every snapshot.
STAGE_KEYS = (
    ("count", "count"),
    ("mean_ops", "mean"),
    ("p50_ops", "p50"),
    ("p90_ops", "p90"),
    ("p99_ops", "p99"),
    ("max_ops", "max"),
)


def render(snapshot: dict) -> str:
    """The one true snapshot encoding: sorted keys, indent 1, final
    newline.  Byte-identical output is the whole point — the benches
    compare the rendered text, not parsed JSON."""
    return json.dumps(snapshot, indent=1, sort_keys=True) + "\n"


#: Report sections that depend on the host — wall clock, RSS, derived
#: throughput, microbench rates — and so never belong in a committed
#: snapshot.
HOST_DEPENDENT_SECTIONS = frozenset(
    {"wall_seconds", "devices_per_sec", "peak_rss_mb"})


def deterministic_subset(report: dict) -> dict:
    """Strip the host-dependent sections; everything left must be a
    pure function of the run's seeds and parameters."""
    return {key: value for key, value in report.items()
            if key not in HOST_DEPENDENT_SECTIONS}


def stage_quantiles(world, names) -> dict:
    """Per-stage op-cost table keyed by histogram name.

    Renames :meth:`HistogramState.summary` fields to the legacy
    ``*_ops`` keys the committed snapshots pin (see ``STAGE_KEYS``).
    A stage that never recorded reports only ``{"count": 0}``.
    """
    table = {}
    for name in names:
        state = world.obs.metrics.histogram(name)
        if state is None:
            table[name] = {"count": 0}
            continue
        summary = state.summary()
        table[name] = {legacy: summary[field]
                       for legacy, field in STAGE_KEYS}
    return table


def emit_snapshot(rendered: str, out: Path) -> None:
    """Write one committed snapshot."""
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(rendered)
    print(f"wrote {out}")


def emit_report(report: dict, out: Path, snapshot_out: Path) -> None:
    """Pin the deterministic subset of ``report`` as a snapshot, then
    write the full report (wall times included) to ``out``."""
    emit_snapshot(render(deterministic_subset(report)), snapshot_out)
    out.write_text(render(report))
    print(f"wrote {out}")
