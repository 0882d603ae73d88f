"""The benchmark's three workloads, built from the repository's public API.

Each workload function does the set-up (circuit library, trace, cloud and
simulator) and returns a :class:`Prepared` whose ``run`` is the timed call
and whose ``finish`` checks the outputs and reduces them to a digest and
the simulated metrics.  Sizes are fixed here so every run of a workload
does the same work; seeds come from the command line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cloud import CloudTopology, QuantumCloud
from repro.multitenant import (
    CheckpointConfig,
    JobOutcome,
    MultiTenantSimulator,
    QueueingDeadline,
    Telemetry,
    fifo_batch_manager,
    generate_anchor_burst_trace,
    generate_batch,
    generate_cluster_trace,
    priority_batch_manager,
)
from repro.placement import CloudQCPlacement, RandomPlacement
from repro.scheduling import CloudQCScheduler

#: anchor_burst: cycles of one ghz_n51 anchor plus 16 ghz_n9 fillers.
ANCHOR_CYCLES = 60
ANCHOR_FILLERS = 16
#: cluster_replay: jobs in the synthetic cluster trace.
CLUSTER_JOBS = 8_000
#: cluster_replay: a checkpoint every this many finished jobs.
CLUSTER_CHECKPOINT_EVERY = 500
#: mixed_batch: circuits in the Figs. 14-17 "mixed" batch.
MIXED_BATCH_SIZE = 6

#: BENCH_6's single-QPU-sized cluster pool and trace shape.
CLUSTER_POOL = ["ghz_n4", "ghz_n6", "ghz_n8", "ghz_n12", "ghz_n16"]
CLUSTER_TRACE_SHAPE = dict(
    num_tenants=2000, base_rate=0.25, diurnal_amplitude=0.6,
    diurnal_period=5000.0,
)

TERMINAL_EVENTS = ("rejected", "expired", "completed", "stranded", "failed")


class OutputCheckError(Exception):
    """A run's outputs broke one of the benchmark's invariants."""


@dataclass
class Outcome:
    """What a finished run reduces to; identical across runs of one seed."""

    digest: str
    jct_mean_cx: float
    jct_p99_cx: float
    completed_frac: float


@dataclass
class Prepared:
    """A built workload: ``run`` is timed, ``finish`` checks and reduces."""

    jobs: int
    simulator: MultiTenantSimulator
    run: Callable[[], object]
    finish: Callable[[object], Outcome]
    telemetry: Optional[Telemetry] = None


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise OutputCheckError(message)


def _jct_outcome(digest: str, jcts: List[float], submitted: int) -> Outcome:
    _check(bool(jcts), "no job completed, so the JCT metrics are undefined")
    jcts = sorted(jcts)
    return Outcome(
        digest=digest,
        jct_mean_cx=math.fsum(jcts) / len(jcts),
        jct_p99_cx=float(np.percentile(jcts, 99)),
        completed_frac=len(jcts) / submitted,
    )


def _finish_results(submitted: int):
    """Check an upfront run's result list and reduce it."""

    def finish(results) -> Outcome:
        _check(
            len(results) == submitted,
            f"{len(results)} results for {submitted} submitted jobs",
        )
        ids = {result.job_id for result in results}
        _check(len(ids) == submitted, "a job has more than one result")
        rows = []
        jcts = []
        for result in results:
            outcome = JobOutcome(result.outcome)
            if outcome is JobOutcome.COMPLETED:
                _check(
                    result.arrival_time
                    <= result.placement_time
                    <= result.completion_time,
                    f"{result.job_id}: arrival {result.arrival_time}, "
                    f"placement {result.placement_time}, completion "
                    f"{result.completion_time} are out of order",
                )
                jcts.append(result.job_completion_time)
            rows.append(
                "%s|%r|%r|%r|%s"
                % (
                    result.circuit_name,
                    result.arrival_time,
                    result.placement_time,
                    result.completion_time,
                    outcome.value,
                )
            )
        digest = hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()
        return _jct_outcome(digest, jcts, submitted)

    return finish


def line_cloud(num_qpus: int, computing: int) -> QuantumCloud:
    return QuantumCloud(
        CloudTopology.line(num_qpus),
        computing_qubits_per_qpu=computing,
        communication_qubits_per_qpu=4,
        epr_success_probability=0.95,
    )


def anchor_burst(seed: int, **_unused) -> Prepared:
    trace = generate_anchor_burst_trace(
        ANCHOR_CYCLES, ANCHOR_FILLERS, num_qpus=6
    )
    simulator = MultiTenantSimulator(
        line_cloud(6, 10),
        placement_algorithm=CloudQCPlacement(
            imbalance_factors=(0.05, 0.30), max_extra_parts=2
        ),
        network_scheduler=CloudQCScheduler(),
        batch_manager=fifo_batch_manager(),
        admission_policy=QueueingDeadline(30.0),
    )
    return Prepared(
        jobs=len(trace),
        simulator=simulator,
        run=lambda: simulator.run_stream(
            trace.circuits, trace.arrival_times, seed=seed
        ),
        finish=_finish_results(len(trace)),
    )


def cluster_replay(seed: int, trace_seed: int, workdir: str, **_unused) -> Prepared:
    trace_path = os.path.join(workdir, "trace.jsonl")
    events_path = os.path.join(workdir, "events.jsonl")
    checkpoint_path = os.path.join(workdir, "run.ckpt")
    records = generate_cluster_trace(
        CLUSTER_JOBS, seed=trace_seed, names=CLUSTER_POOL,
        **CLUSTER_TRACE_SHAPE,
    ).to_file(trace_path)
    simulator = MultiTenantSimulator(
        line_cloud(4, 16),
        placement_algorithm=RandomPlacement(),
        network_scheduler=CloudQCScheduler(),
        batch_manager=fifo_batch_manager(),
        admission_policy=QueueingDeadline(300.0),
    )
    telemetry = Telemetry(events=events_path)

    def run():
        simulator.run_stream(
            trace=trace_path,
            seed=seed,
            telemetry=telemetry,
            keep_results=False,
            checkpoint=CheckpointConfig(
                path=checkpoint_path, every_jobs=CLUSTER_CHECKPOINT_EVERY
            ),
        )
        telemetry.close()

    def finish(_results) -> Outcome:
        _check(
            telemetry.total == records,
            f"telemetry recorded {telemetry.total} outcomes for {records} "
            "trace records",
        )
        arrived: Dict[str, float] = {}
        placed: Dict[str, float] = {}
        terminal: Dict[str, int] = {}
        jcts: List[float] = []
        with open(events_path, "rb") as stream:
            data = stream.read()
        for line in data.decode("utf-8").splitlines():
            event = json.loads(line)
            kind = event["event"]
            job = event.get("job")
            if kind == "job_arrived":
                _check(job not in arrived, f"{job} arrived twice")
                arrived[job] = event["t"]
            elif kind == "placed":
                placed.setdefault(job, event["t"])
            elif kind in TERMINAL_EVENTS:
                _check(job in arrived, f"{job} ended without arriving")
                terminal[job] = terminal.get(job, 0) + 1
                if kind == "completed":
                    _check(
                        arrived[job] <= placed[job] <= event["t"],
                        f"{job}: arrival, placement and completion are out "
                        "of order",
                    )
                    jcts.append(event["jct"])
        _check(
            len(arrived) == records,
            f"{len(arrived)} arrivals for {records} trace records",
        )
        _check(
            len(terminal) == records and set(terminal.values()) == {1},
            "not every job reached exactly one terminal outcome",
        )
        digest = hashlib.sha256(data).hexdigest()
        return _jct_outcome(digest, jcts, records)

    return Prepared(
        jobs=records,
        simulator=simulator,
        run=run,
        finish=finish,
        telemetry=telemetry,
    )


def mixed_batch(batch_seed: int, **_unused) -> Prepared:
    # One seed for the batch and the simulation, as in the Figs. 14-17
    # runner; spec.py says why --seed does not reach it.
    batch = generate_batch("mixed", batch_size=MIXED_BATCH_SIZE, seed=batch_seed)
    simulator = MultiTenantSimulator(
        QuantumCloud.default(seed=7, epr_success_probability=0.1),
        placement_algorithm=CloudQCPlacement(),
        network_scheduler=CloudQCScheduler(),
        batch_manager=priority_batch_manager(),
    )
    return Prepared(
        jobs=len(batch),
        simulator=simulator,
        run=lambda: simulator.run_batch(batch, seed=batch_seed),
        finish=_finish_results(len(batch)),
    )


WORKLOADS = {
    "anchor_burst": anchor_burst,
    "cluster_replay": cluster_replay,
    "mixed_batch": mixed_batch,
}
