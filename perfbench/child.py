"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts these one at a time, so a result never depends on what
ran earlier in the process (job ids come from a process-global counter)
and the peak RSS is this run's alone.  Set-up time starts before the
``repro`` package is imported, so work moved to import time shows in it.
The last line of standard output is one JSON report; a run that raises or
fails an output check reports ``error`` instead of its outcome.

    python3 perfbench/child.py --workload NAME --seed N --trace-seed N \\
        --batch-seed N --workdir DIR [--traced]
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-seed", type=int, required=True)
    parser.add_argument("--batch-seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    prepared = workloads.WORKLOADS[args.workload](
        seed=args.seed,
        trace_seed=args.trace_seed,
        batch_seed=args.batch_seed,
        workdir=args.workdir,
    )
    report = {"jobs": prepared.jobs, "setup_s": time.perf_counter() - START}
    try:
        if args.traced:
            import tracer

            with tracer.traced(prepared.simulator) as spans:
                result = spans.run(prepared.run)
            run_s = spans.wall_s
            report["layers"] = spans.metrics(prepared.telemetry)
        else:
            start = time.perf_counter()
            result = prepared.run()
            run_s = time.perf_counter() - start
        outcome = prepared.finish(result)
    except Exception as exc:  # the run failed: report it, do not crash
        traceback.print_exc(file=sys.stderr)
        report["error"] = f"{type(exc).__name__}: {exc}"
    else:
        report.update(
            run_s=run_s,
            digest=outcome.digest,
            sim_jct_mean_cx=outcome.jct_mean_cx,
            sim_jct_p99_cx=outcome.jct_p99_cx,
            sim_completed_frac=outcome.completed_frac,
        )
    # ru_maxrss is in KiB on Linux.
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
