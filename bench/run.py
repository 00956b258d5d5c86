"""The repo benchmark: five serial workloads, end-to-end metrics, and an
outside-in per-layer trace.

Run from the repo root::

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace [0|1]] [--repeat N] [--json PATH]

Each workload execution runs in a fresh interpreter (``workloads.py``),
one after another, so peak RSS is per execution and module caches start
cold.  A run of a workload executes it once, then again while another
execution of the same length still fits in ``--seconds``; its metrics
are the medians over those executions.  ``--repeat N`` makes N runs and
prints each metric's median, quartiles and sample count.

With ``--trace 0`` (the default) the end-to-end metrics are reported.
``--trace`` (or ``--trace 1``) instead executes the workload once
untraced for reference, then traced, and reports the per-layer
metrics; the traced/untraced wall ratio is the tracing overhead.

Correctness: every execution of a workload at one seed must produce
the same output digest (traced or not); wild-durable resumes must equal
the uninterrupted run; serve runs must keep online == batch detection
and consistent admission accounting; and at seed 2019 the wild counts
must equal ``benchmarks/snapshots/wild_obs.json``.  A failed check
exits 1.  The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import layers

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
WILD_SNAPSHOT = REPO / "benchmarks" / "snapshots" / "wild_obs.json"
SNAPSHOT_SEED = 2019
#: Scratch space for checkpoints and spill files, inside the checkout;
#: each bench invocation makes its own directory here and removes it.
TMP_PARENT = REPO / ".bench_tmp"

WORKLOADS = ("wild", "wild-durable", "honey", "serve-query", "serve-ingest")

#: End-to-end metrics (measured untraced) and their units.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Deterministic counts read from the run's registry, plus the resume
#: time of the durable workload; reported with the per-layer trace.
COUNTS: Dict[str, str] = {
    "obs.ops_total": "count",
    "net.fabric.requests": "count",
    "net.tls.resume_ratio": "ratio",
    "monitor.crawler.hit_ratio": "ratio",
    "serve.cache.hit_ratio": "ratio",
    "serve.admission.shed_ratio": "ratio",
    "detection.events": "count",
    "recovery.bytes_written": "bytes",
    "recovery.resume_s": "s",
}

#: A run stops starting executions well before this many seconds, and
#: an execution still running at this point is killed.
RUN_LIMIT_S = 170.0


def per_layer_units() -> Dict[str, str]:
    return {**layers.layer_metric_units(), **COUNTS}


class BenchError(RuntimeError):
    """An execution crashed or timed out; no result can be reported."""


def execute(workload: str, seed: int, trace: bool, tmp_root: Path,
            deadline: float) -> Dict[str, object]:
    """Run one execution in a fresh interpreter and return its result."""
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    out = work_dir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(work_dir)
    command = [sys.executable, str(BENCH_DIR / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(trace)),
               "--tmp", str(work_dir / "scratch"), "--out", str(out)]
    started = time.perf_counter()
    try:
        try:
            proc = subprocess.run(
                command, cwd=REPO, env=env, capture_output=True, text=True,
                timeout=max(1.0, deadline - started))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: execution killed after "
                             f"{time.perf_counter() - started:.0f} s")
        if proc.returncode != 0 or not out.exists():
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            raise BenchError(f"{workload}: execution exited "
                             f"{proc.returncode}\n{tail}")
        result = json.loads(out.read_text())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["duration_s"] = time.perf_counter() - started
    return result


def snapshot_mismatches(counts: Dict[str, object]) -> List[str]:
    """Keys where the wild counts differ from the committed snapshot."""
    committed = json.loads(WILD_SNAPSHOT.read_text())
    diffs = []
    for section, values in counts.items():
        for key, value in values.items():
            expected = committed.get(section, {}).get(key)
            if expected != value:
                diffs.append(f"{section}.{key}: {value} != {expected}")
    return diffs


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tmp_root: Path) -> List[Dict[str, object]]:
    """One run: executions one at a time while another fits."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    executions = []
    if trace:
        executions.append(execute(workload, seed, False, tmp_root, deadline))
    while True:
        result = execute(workload, seed, trace, tmp_root, deadline)
        executions.append(result)
        elapsed = time.perf_counter() - started
        duration = result["duration_s"]
        if (elapsed + duration > seconds
                or elapsed + 1.5 * duration > RUN_LIMIT_S):
            return executions


def run_metrics(executions: Sequence[Dict[str, object]],
                trace: bool) -> Dict[str, float]:
    """The run's metric values: medians over its executions."""
    if not trace:
        samples = [{name: e[name] for name in END_TO_END}
                   for e in executions]
    else:
        samples = [{**e["layers"], **e["counts"],
                    "recovery.resume_s": e["resume_s"]}
                   for e in executions if e["trace"]]
    return {name: statistics.median(s[name] for s in samples)
            for name in samples[0]}


class WorkloadReport:
    """Every run of one workload and the checks over them."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.runs: List[Dict[str, float]] = []
        self.executions: List[Dict[str, object]] = []
        self.failures: List[str] = []
        self.failed = 0

    def add_run(self, executions: List[Dict[str, object]]) -> None:
        self.runs.append(run_metrics(executions, self.trace))
        self.executions.extend(executions)

    def check(self) -> None:
        reference = self.executions[0]["digest"]
        check_snapshot = (self.workload == "wild"
                          and self.seed == SNAPSHOT_SEED
                          and WILD_SNAPSHOT.exists())
        for index, execution in enumerate(self.executions):
            problems = []
            if execution["digest"] != reference:
                kind = "traced" if execution["trace"] else "untraced"
                problems.append(f"{kind} digest differs from execution 0")
            problems.extend(f"{name} is false"
                            for name, ok in execution["checks"].items()
                            if not ok)
            if check_snapshot:
                problems.extend(
                    f"wild_obs.json {diff}" for diff in
                    snapshot_mismatches(execution["snapshot_counts"]))
            if problems:
                self.failed += 1
                self.failures.extend(f"execution {index}: {problem}"
                                     for problem in problems)

    def summary(self) -> Dict[str, float]:
        names = self.runs[0]
        return {name: statistics.median(run[name] for run in self.runs)
                for name in names}

    def render(self, units: Dict[str, str]) -> str:
        first = self.executions[0]
        lines = [f"== {self.workload}: seed {self.seed}, "
                 f"{len(self.runs)} run(s), {len(self.executions)} "
                 f"execution(s), trace {'on' if self.trace else 'off'}"]
        if len(self.runs) > 1:
            lines.append(f"  {'metric':<32} {'median':>14} {'q1':>14} "
                         f"{'q3':>14} {'n':>3}  unit")
        for name, unit in units.items():
            values = [run[name] for run in self.runs]
            median = statistics.median(values)
            if len(self.runs) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                lines.append(f"  {name:<32} {median:>14.6g} {q1:>14.6g} "
                             f"{q3:>14.6g} {len(values):>3}  {unit}")
            else:
                lines.append(f"  {name:<32} {median:>14.6g}  {unit}")
        if self.trace:
            untraced = [e["wall_s"] for e in self.executions
                        if not e["trace"]]
            traced = [e["wall_s"] for e in self.executions if e["trace"]]
            overhead = statistics.median(traced) / statistics.median(untraced)
            lines.append(f"  tracing overhead: traced wall_s is "
                         f"{overhead - 1:+.1%} of untraced")
            unresolved = {spec for e in self.executions
                          for spec in e.get("unresolved", ())}
            lines.extend(f"  unresolved entry point: {spec}"
                         for spec in sorted(unresolved))
        rate = first["errors"] / first["requests"] if first["requests"] else 0
        lines.append(f"  errors: {first['errors']} of {first['requests']} "
                     f"requests (error_rate {rate:.4f})")
        lines.append(f"  digest: {first['digest']}")
        checks = ["same-seed digests"] + sorted(first["checks"])
        if self.workload == "wild" and self.seed == SNAPSHOT_SEED:
            checks.append("wild_obs.json counts" if WILD_SNAPSHOT.exists()
                          else "wild_obs.json absent: not checked")
        status = "FAILED" if self.failures else "ok"
        lines.append(f"  checks ({status}): {', '.join(checks)}")
        lines.extend(f"  FAILED {failure}" for failure in self.failures)
        return "\n".join(lines)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark (see bench/README.md).")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measure each run for this long: executions "
                             "repeat while another fits (default: 0, one "
                             "execution per run)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report the per-layer trace instead of the "
                             "end-to-end metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (default: 1)")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write every execution's result here")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    workloads = args.workload or list(WORKLOADS)
    trace = bool(args.trace)
    units = per_layer_units() if trace else END_TO_END
    TMP_PARENT.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT))
    reports = []
    try:
        for workload in workloads:
            report = WorkloadReport(workload, args.seed, trace)
            for _ in range(args.repeat):
                report.add_run(measure(workload, args.seed, args.seconds,
                                       trace, tmp_root))
            report.check()
            print(report.render(units), flush=True)
            reports.append(report)
    except BenchError as exc:
        print(f"bench failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another invocation's directory is still there
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else f"{report.workload}/"
        for name, value in report.summary().items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(report.failed for report in reports)
    attempted = sum(len(report.executions) for report in reports)
    if args.json:
        args.json.write_text(json.dumps({
            report.workload: {"runs": report.runs,
                              "executions": report.executions,
                              "failures": report.failures}
            for report in reports}, indent=1, sort_keys=True) + "\n")
    print(f"bench total: {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
