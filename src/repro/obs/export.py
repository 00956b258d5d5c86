"""Deterministic exporters: snapshot JSON and text report tables.

JSON exports sort every key and contain only simulation-time
timestamps, so the same seeded run always serialises to the same bytes
(the property ``tests/integration/test_obs_integration.py`` asserts).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Tuple, Union

from repro.obs.observability import Observability

PathLike = Union[str, Path]


def to_json(obs: Observability) -> str:
    """The whole context (metrics + spans) as canonical JSON text."""
    return json.dumps(obs.snapshot(), indent=1, sort_keys=True)


def save_snapshot(obs: Observability, path: PathLike) -> Path:
    """Write the snapshot JSON; returns the path written."""
    target = Path(path)
    target.write_text(to_json(obs) + "\n")
    return target


def load_snapshot(path: PathLike) -> Dict[str, object]:
    """Read a snapshot written by :func:`save_snapshot`."""
    document = json.loads(Path(path).read_text())
    if not isinstance(document, dict) or "metrics" not in document:
        raise ValueError(f"not an observability snapshot: {path}")
    return document


def _span_summary(spans: List[Mapping[str, object]]
                  ) -> List[Tuple[str, int, int]]:
    """[(name, count, total ops)] sorted by total ops desc."""
    table: Dict[str, List[int]] = {}
    for span in spans:
        start = span.get("start", [0, 0])
        end = span.get("end", [0, 0])
        ops = max(0, int(end[1]) - int(start[1]))
        row = table.setdefault(str(span.get("name", "?")), [0, 0])
        row[0] += 1
        row[1] += ops
    ranked = sorted(table.items(), key=lambda kv: (-kv[1][1], kv[0]))
    return [(name, count, ops) for name, (count, ops) in ranked]


def render_obs_table(snapshot: Mapping[str, object], top: int = 15) -> str:
    """Top counters and span aggregates as a fixed-width text table."""
    metrics = snapshot.get("metrics", {})
    counters = dict(metrics.get("counters", {})) if isinstance(metrics, Mapping) else {}
    spans = snapshot.get("spans", [])
    lines: List[str] = []

    lines.append(f"top counters ({min(top, len(counters))} of {len(counters)} series)")
    lines.append(f"{'counter':<64} {'value':>12}")
    lines.append("-" * 77)
    ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
    for key, value in ranked[:top]:
        lines.append(f"{key:<64} {value:>12g}")
    if not counters:
        lines.append("(no counters recorded)")

    lines.append("")
    summary = _span_summary(spans if isinstance(spans, list) else [])
    lines.append(f"spans ({len(summary)} names, "
                 f"{len(spans) if isinstance(spans, list) else 0} spans)")
    lines.append(f"{'span':<40} {'count':>8} {'ops':>10}")
    lines.append("-" * 60)
    for name, count, ops in summary[:top]:
        lines.append(f"{name:<40} {count:>8} {ops:>10}")
    if not summary:
        lines.append("(no spans recorded)")
    return "\n".join(lines)
