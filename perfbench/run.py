"""Perf benchmark of the CloudQC simulator: untraced end-to-end metrics and
a traced per-layer breakdown, on three named workloads.

    python3 perfbench/run.py --workload anchor_burst --seed 1 --seconds 30 \\
        --trace 0 [--trace-seed 3] [--batch-seed 1]
    python3 perfbench/run.py --manifest     # rewrite BENCHMARK.json

Each measured run is a fresh interpreter (``child.py``), started one at a
time until ``--seconds`` have passed; the end-to-end metrics are medians
over them.  ``--trace 1`` then adds one traced run and reports the
per-layer metrics instead, with ``tracing.overhead_frac`` taken against the
untraced median.  Every run's outputs are checked, and the result digest
must match across all runs of the invocation, traced or not.  The digest
is printed, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Operations are
submitted jobs; all jobs of a run that raises or fails a check count as
failed.  Workloads and metrics are defined in ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fewest untraced runs an invocation makes, however long they take.
MIN_RUNS = 2
#: Runs are cut off once an invocation is this old, so that it ends within
#: 180 s.
RUN_BUDGET_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed job)."""


def run_child(args, workdir: Path, traced: bool, timeout: float) -> Dict:
    scratch = tempfile.mkdtemp(dir=workdir)
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace-seed", str(args.trace_seed),
        "--batch-seed", str(args.batch_seed),
        "--workdir", scratch,
    ] + (["--traced"] if traced else [])
    start = time.monotonic()
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"a run took longer than {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(
            f"a run exited with code {done.returncode} and no report"
        )
    report = json.loads(lines[-1])
    report["wall_s"] = time.monotonic() - start
    return report


def measure(args) -> Dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro package under {ROOT / 'src'}")
    workdir = ROOT / ".perfbench_tmp"
    workdir.mkdir(exist_ok=True)
    start = time.monotonic()

    def run(traced: bool) -> Dict:
        budget = max(1.0, RUN_BUDGET_S - (time.monotonic() - start))
        return run_child(args, workdir, traced, budget)

    runs: List[Dict] = []
    traced = None
    try:
        while True:
            report = run(False)
            runs.append(report)
            print(
                f"run {len(runs)}: "
                + (report.get("error") or f"{report['run_s']:.3f} s"),
                file=sys.stderr,
            )
            if "error" in report:
                break
            typical = statistics.median(run["wall_s"] for run in runs)
            elapsed = time.monotonic() - start
            if len(runs) >= MIN_RUNS and elapsed + typical > args.seconds:
                break
        if args.trace and "error" not in runs[-1]:
            traced = run(True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(args, runs, traced)


def summarize(args, runs: List[Dict], traced) -> Dict:
    everything = runs + ([traced] if traced is not None else [])
    attempted = sum(run["jobs"] for run in everything)
    failed = sum(run["jobs"] for run in everything if "error" in run)
    good = [run for run in runs if "error" not in run]
    digests = {run["digest"] for run in everything if "error" not in run}
    if len(digests) > 1:
        print(f"digests differ between runs: {sorted(digests)}", file=sys.stderr)
        failed = attempted
    for digest in sorted(digests):
        print(f"digest {args.workload}: {digest}")
    metrics: Dict[str, float] = {}
    expected: List = []
    if good and not args.trace:
        metrics = {
            "jobs_per_s": statistics.median(
                run["jobs"] / run["run_s"] for run in good
            ),
            "setup_s": statistics.median(run["setup_s"] for run in good),
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in good),
        }
        for name in ("sim_jct_mean_cx", "sim_jct_p99_cx", "sim_completed_frac"):
            metrics[name] = good[0][name]
        expected = spec.END_TO_END
    elif good and traced is not None and "error" not in traced:
        untraced_s = statistics.median(run["run_s"] for run in good)
        metrics = dict(traced["layers"])
        metrics["tracing.wall_s"] = traced["run_s"]
        metrics["tracing.overhead_frac"] = traced["run_s"] / untraced_s - 1.0
        expected = spec.PER_LAYER
        for layer, (moves, workloads) in spec.LAYER_MAP.items():
            if args.workload in workloads:
                print(f"layer {layer} should move {', '.join(moves)} here")
    units = {entry[0]: entry[1] for entry in expected}
    if set(metrics) != set(units):
        raise BenchmarkError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with spec.py"
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1,
                        help="simulation seed of anchor_burst and cluster_replay")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-seed", type=int, default=spec.DEFAULT_TRACE_SEED,
                        help="seed of cluster_replay's synthetic trace")
    parser.add_argument("--batch-seed", type=int, default=spec.DEFAULT_BATCH_SEED,
                        help="batch and simulation seed of mixed_batch")
    parser.add_argument("--manifest", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args()
    if args.manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.manifest(), indent=2) + "\n"
        )
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = measure(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
