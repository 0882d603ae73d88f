#!/usr/bin/env python
"""Kill-and-resume smoke: SIGKILL a checkpointed replay, resume, diff.

The drill the checkpoint subsystem exists for, end to end and across real
process boundaries:

1. a child process replays the anchor/burst chaos trace (the BENCH_8/9
   workload: deadline-rescue preemption + the failure/drain/calibration
   storm) with ``checkpoint=CheckpointConfig(every_jobs=...)`` and a
   telemetry event stream;
2. the parent waits for the first periodic snapshot to land, then sends
   the child SIGKILL -- not SIGTERM, so no final-snapshot handler runs and
   the telemetry jsonl is torn wherever the write happened to be;
3. the parent resumes from the snapshot (which truncates the torn
   telemetry tail back to the last durable event) and compares per-job
   results and the final telemetry byte stream against an uninterrupted
   run of the same workload.

Exit status 0 iff both diffs are empty.  CI runs this at the default
smoke scale; ``--full`` restores the 5015-job acceptance replay.

Usage::

    PYTHONPATH=src python scripts/kill_resume_smoke.py
    PYTHONPATH=src python scripts/kill_resume_smoke.py --full
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.multitenant import CheckpointConfig, Telemetry  # noqa: E402


def _load_bench_module():
    path = REPO_ROOT / "benchmarks" / "test_checkpoint_overhead.py"
    spec = importlib.util.spec_from_file_location("checkpoint_resume", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_dump(results) -> str:
    return json.dumps(
        [sorted((k, repr(v)) for k, v in r.__dict__.items()) for r in results]
    )


def run_child(args) -> int:
    """Child mode: the checkpointed replay the parent is going to kill."""
    module = _load_bench_module()
    telemetry = Telemetry(events=args.events)
    simulator = module.make_simulator(args.cycles, args.fillers)
    simulator.run_stream(
        trace=args.trace,
        seed=module.SIM_SEED,
        telemetry=telemetry,
        checkpoint=CheckpointConfig(path=args.snapshot, every_jobs=args.every_jobs),
    )
    telemetry.close()
    # Reaching this line means the parent failed to kill us in time; say
    # so explicitly instead of letting the resume leg mask it.
    print("child: run completed before SIGKILL", flush=True)
    return 0


def run_drill(args) -> int:
    module = _load_bench_module()
    with tempfile.TemporaryDirectory() as directory:
        trace = module.write_bench_trace(directory, args.cycles, args.fillers)
        snapshot = os.path.join(directory, "snap.json")
        events = os.path.join(directory, "events.jsonl")

        child = subprocess.Popen(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--child",
                "--trace", trace,
                "--snapshot", snapshot,
                "--events", events,
                "--cycles", str(args.cycles),
                "--fillers", str(args.fillers),
                "--every-jobs", str(args.every_jobs),
            ],
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        deadline = time.monotonic() + args.timeout
        while not os.path.exists(snapshot):
            if child.poll() is not None:
                print(
                    "ERROR: child exited before writing a snapshot "
                    f"(rc={child.returncode})"
                )
                return 1
            if time.monotonic() > deadline:
                child.kill()
                print("ERROR: no snapshot appeared within the timeout")
                return 1
            time.sleep(0.02)
        child.send_signal(signal.SIGKILL)
        child.wait()
        if child.returncode == 0:
            print("ERROR: child finished cleanly; nothing was killed")
            return 1
        print(
            f"killed child mid-run (rc={child.returncode}); "
            f"snapshot={os.path.getsize(snapshot)} bytes, "
            f"events file={os.path.getsize(events)} bytes at kill time"
        )

        # Resume from the snapshot the crash left behind.
        resume_sink = Telemetry()
        resumed = module.make_simulator(args.cycles, args.fillers).resume_stream(
            snapshot, telemetry=resume_sink
        )
        resume_sink.close()
        with open(events, "rb") as handle:
            resumed_events = handle.read()

        # The uninterrupted reference run, in the same process.
        baseline_events = os.path.join(directory, "baseline_events.jsonl")
        baseline_sink = Telemetry(events=baseline_events)
        baseline = module.make_simulator(args.cycles, args.fillers).run_stream(
            trace=trace, seed=module.SIM_SEED, telemetry=baseline_sink
        )
        baseline_sink.close()
        with open(baseline_events, "rb") as handle:
            expected_events = handle.read()

    results_match = result_dump(resumed) == result_dump(baseline)
    events_match = resumed_events == expected_events
    print(
        f"resumed {len(resumed)} jobs vs baseline {len(baseline)}: "
        f"results {'identical' if results_match else 'DIFFER'}, "
        f"telemetry stream {'identical' if events_match else 'DIFFERS'} "
        f"({len(resumed_events)} bytes)"
    )
    return 0 if results_match and events_match else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace", help=argparse.SUPPRESS)
    parser.add_argument("--snapshot", help=argparse.SUPPRESS)
    parser.add_argument("--events", help=argparse.SUPPRESS)
    parser.add_argument("--cycles", type=int, default=None)
    parser.add_argument("--fillers", type=int, default=None)
    parser.add_argument(
        "--every-jobs", type=int, default=25,
        help="snapshot cadence of the doomed run (default 25)",
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="seconds to wait for the first snapshot before giving up",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="acceptance scale (the 5015-job replay) instead of CI smoke",
    )
    args = parser.parse_args(argv)
    module = _load_bench_module()
    if args.cycles is None:
        args.cycles = module.CYCLES if args.full else 20
    if args.fillers is None:
        args.fillers = module.FILLERS_PER_CYCLE
    if args.child:
        return run_child(args)
    return run_drill(args)


if __name__ == "__main__":
    raise SystemExit(main())
