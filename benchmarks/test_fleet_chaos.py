"""E14 -- SLO under chaos: the anchor/burst stream through a fleet storm.

This benchmark pins the two claims of the fleet-dynamics subsystem (PR 8;
see docs/architecture.md, "Fleet dynamics & fault injection"):

1. **Deadline-rescue keeps the tail bounded through a storm.**  The trace
   is the PR-5 anchor/burst shape (one 51-qubit anchor + 16 nine-qubit
   fillers per 327-time-unit cycle); the storm loses a QPU to a hard
   failure every third cycle, drains another every third cycle, and runs a
   degraded calibration window (EPR success 0.3) on a third QPU every
   cycle.  Every outage is shorter than the 30-unit queueing deadline, so
   interrupted anchors requeue and resume once the fleet heals.  Under
   ``NeverPreempt`` the storm's backlog expires a large share of the
   stream and the drop-aware p99 JCT -- dropped jobs count as an unbounded
   completion time -- is infinite; under :class:`DeadlineRescue` the whole
   stream completes and the drop-aware p99 stays within ``SLO_FACTOR`` of
   the fault-free replay.

2. **The machinery is free when unused.**  A run with an *empty*
   :class:`FaultInjector` attached replays the trace bit-identically to a
   run with no injector at all -- per-job results and the telemetry event
   stream byte for byte (the PR-7 configuration).

``scripts/bench_report.py --bench 8`` reuses this module's builders at a
reduced cycle count by default for CI smoke runs (``--full`` restores the
acceptance scale) and emits the numbers as ``BENCH_8.json``.
"""

from __future__ import annotations

import io
import math
import time
from typing import List, Optional

import pytest

from repro.cloud import CloudTopology, QuantumCloud
from repro.multitenant import (
    CalibrationWindow,
    DeadlineRescue,
    FaultInjector,
    FleetEvent,
    MultiTenantSimulator,
    NeverPreempt,
    QPUDrain,
    QPUFail,
    QPUJoin,
    QueueingDeadline,
    StreamSummary,
    Telemetry,
    drop_aware_jct_percentile,
    fifo_batch_manager,
    generate_anchor_burst_trace,
)
from repro.placement import CloudQCPlacement
from repro.scheduling import CloudQCScheduler

NUM_QPUS = 6
QUBITS_PER_QPU = 10
#: Cycles x (1 anchor + FILLERS_PER_CYCLE fillers); 295 = the 5015-job trace.
CYCLES = 295
FILLERS_PER_CYCLE = 16
SIM_SEED = 1
DEADLINE = 30.0
RESCUE_HORIZON = 5.0
#: Chaos p99* must stay within this factor of the fault-free p99*.
SLO_FACTOR = 2.0
#: Same trimmed Algorithm 1 grid as the PR-5 benchmark.
PLACEMENT_KWARGS = dict(imbalance_factors=(0.05, 0.30), max_extra_parts=2)

#: Storm shape, relative to each cycle's start.  Outages are deliberately
#: shorter than DEADLINE so an interrupted anchor's fillers can still make
#: their queueing deadline once rescue clears the backlog.
FAIL_QPU, FAIL_AT, FAIL_REPAIR = 5, 40.0, 12.0
DRAIN_QPU, DRAIN_AT, DRAIN_DOWNTIME = 0, 120.0, 12.0
CALIB_QPU, CALIB_AT, CALIB_DURATION, CALIB_EPR = 2, 200.0, 20.0, 0.3


def make_cloud() -> QuantumCloud:
    return QuantumCloud(
        CloudTopology.line(NUM_QPUS),
        computing_qubits_per_qpu=QUBITS_PER_QPU,
        communication_qubits_per_qpu=4,
        epr_success_probability=0.95,
    )


def cycle_period(fillers_per_cycle: int) -> float:
    """Anchor-to-anchor gap of the trace (deterministic; probed, not pinned)."""
    probe = generate_anchor_burst_trace(2, fillers_per_cycle, num_qpus=NUM_QPUS)
    return probe.arrival_times[1 + fillers_per_cycle]


def build_storm(cycles: int, fillers_per_cycle: int) -> List[FleetEvent]:
    """The scripted failure/drain/calibration storm over ``cycles`` cycles.

    Every third cycle QPU 5 fails hard mid-anchor (in-flight EPR work lost,
    jobs requeued) and rejoins 12 time units later; every third cycle QPU 0
    is gracefully drained and rejoins; every cycle QPU 2 runs a 20-unit
    calibration window at EPR success 0.3.
    """
    period = cycle_period(fillers_per_cycle)
    events: List[FleetEvent] = []
    for cycle in range(cycles):
        start = period * cycle
        if cycle % 3 == 1:
            events.append(QPUFail(time=start + FAIL_AT, qpu_id=FAIL_QPU))
            events.append(
                QPUJoin(time=start + FAIL_AT + FAIL_REPAIR, qpu_id=FAIL_QPU)
            )
        if cycle % 3 == 2:
            events.append(QPUDrain(time=start + DRAIN_AT, qpu_id=DRAIN_QPU))
            events.append(
                QPUJoin(
                    time=start + DRAIN_AT + DRAIN_DOWNTIME, qpu_id=DRAIN_QPU
                )
            )
        events.append(
            CalibrationWindow(
                time=start + CALIB_AT,
                qpu_id=CALIB_QPU,
                duration=CALIB_DURATION,
                epr_success_probability=CALIB_EPR,
            )
        )
    return events


def make_injector(cycles: int, fillers_per_cycle: int) -> FaultInjector:
    return FaultInjector(
        events=build_storm(cycles, fillers_per_cycle), on_failure="requeue"
    )


def run_replay(
    policy,
    cycles: int,
    fillers_per_cycle: int,
    injector: Optional[FaultInjector] = None,
    telemetry: Optional[Telemetry] = None,
):
    """One full trace replay under the given policy and fault injector."""
    simulator = MultiTenantSimulator(
        make_cloud(),
        placement_algorithm=CloudQCPlacement(**PLACEMENT_KWARGS),
        network_scheduler=CloudQCScheduler(),
        batch_manager=fifo_batch_manager(),
        admission_policy=QueueingDeadline(max_delay=DEADLINE),
        preemption_policy=policy,
        fault_injector=injector,
    )
    trace = generate_anchor_burst_trace(
        cycles, fillers_per_cycle, num_qpus=NUM_QPUS
    )
    start = time.perf_counter()
    results = simulator.run_stream(
        trace.circuits,
        trace.arrival_times,
        seed=SIM_SEED,
        telemetry=telemetry,
        tenants=trace.tenant_ids,
    )
    return results, time.perf_counter() - start


def result_key(result):
    """Everything observable about one job, for bit-identity comparison."""
    return (
        result.job_id,
        result.circuit_name,
        result.arrival_time,
        result.placement_time,
        result.completion_time,
        result.num_remote_operations,
        result.num_qpus_used,
        result.outcome,
        result.dropped_time,
        result.num_preemptions,
        result.num_migrations,
        result.wasted_time,
    )


@pytest.mark.paper_artifact("fleet-chaos")
def test_empty_injector_is_bit_identical_to_no_injector():
    """An attached-but-empty injector must not perturb the PR-7 stream:
    per-job results and the telemetry byte stream are identical."""
    cycles = 8
    bare_buffer, empty_buffer = io.StringIO(), io.StringIO()
    bare, _ = run_replay(
        DeadlineRescue(horizon=RESCUE_HORIZON),
        cycles,
        FILLERS_PER_CYCLE,
        telemetry=Telemetry(events=bare_buffer),
    )
    empty, _ = run_replay(
        DeadlineRescue(horizon=RESCUE_HORIZON),
        cycles,
        FILLERS_PER_CYCLE,
        injector=FaultInjector(),
        telemetry=Telemetry(events=empty_buffer),
    )
    assert [result_key(r) for r in bare] == [result_key(r) for r in empty]
    assert bare_buffer.getvalue() == empty_buffer.getvalue()
    assert bare_buffer.getvalue()  # the stream actually recorded events


@pytest.mark.paper_artifact("fleet-chaos")
def test_chaos_storm_rescue_keeps_tail_bounded(benchmark):
    """Through the failure/drain/calibration storm, deadline-rescue keeps
    every job completing and the drop-aware p99 JCT within SLO_FACTOR of
    the fault-free replay; never-preempt's tail is unbounded."""
    cycles = 20

    def chaos_rescue():
        return run_replay(
            DeadlineRescue(horizon=RESCUE_HORIZON),
            cycles,
            FILLERS_PER_CYCLE,
            injector=make_injector(cycles, FILLERS_PER_CYCLE),
            telemetry=sink,
        )

    sink = Telemetry()
    rescue_results, rescue_time = benchmark.pedantic(
        chaos_rescue, rounds=1, iterations=1
    )
    fault_free_results, _ = run_replay(
        DeadlineRescue(horizon=RESCUE_HORIZON), cycles, FILLERS_PER_CYCLE
    )
    never_results, _ = run_replay(
        NeverPreempt(),
        cycles,
        FILLERS_PER_CYCLE,
        injector=make_injector(cycles, FILLERS_PER_CYCLE),
    )

    num_jobs = cycles * (1 + FILLERS_PER_CYCLE)
    assert (
        len(rescue_results)
        == len(fault_free_results)
        == len(never_results)
        == num_jobs
    )

    never = StreamSummary.from_results(never_results)
    rescue = StreamSummary.from_results(rescue_results)
    fault_free_p99 = drop_aware_jct_percentile(fault_free_results, 99)
    never_p99 = drop_aware_jct_percentile(never_results, 99)
    rescue_p99 = drop_aware_jct_percentile(rescue_results, 99)

    print(
        f"\nnever/chaos:   completed={never.completed} "
        f"expired={never.expired} p99*={never_p99}"
    )
    print(
        f"rescue/chaos:  completed={rescue.completed} "
        f"expired={rescue.expired} failed={rescue.failed} "
        f"p99*={rescue_p99:.1f} vs fault-free {fault_free_p99:.1f} "
        f"({rescue_time:.1f}s)"
    )

    # The storm must actually bite: irrevocable placements let the outage
    # backlog expire a large share of the stream.
    assert never.expired > num_jobs // 4
    assert never_p99 == math.inf
    # Rescue rides it out: bounded tail, within the SLO of fault-free.
    assert math.isfinite(rescue_p99)
    assert rescue_p99 <= SLO_FACTOR * fault_free_p99
    assert rescue.completed + rescue.failed + rescue.expired == num_jobs
    # Under on_failure="requeue" nothing is terminally failed.
    assert rescue.failed == 0
    # The fleet telemetry saw the storm.
    assert sink.interrupted_jobs > 0
    assert sink.fleet_events["qpu_fail"] == sum(
        1 for c in range(cycles) if c % 3 == 1
    )
    assert sink.fleet_events["qpu_drain"] == sum(
        1 for c in range(cycles) if c % 3 == 2
    )
    assert sink.fleet_events["calibration_start"] == cycles
    assert sink.qpu_downtime[FAIL_QPU] == pytest.approx(
        FAIL_REPAIR * sink.fleet_events["qpu_fail"]
    )
    assert sink.qpu_downtime[DRAIN_QPU] == pytest.approx(
        DRAIN_DOWNTIME * sink.fleet_events["qpu_drain"]
    )
    horizon = cycle_period(FILLERS_PER_CYCLE) * cycles
    availability = sink.qpu_availability(horizon)
    assert 0.0 < availability[FAIL_QPU] < 1.0
    assert 0.0 < availability[DRAIN_QPU] < 1.0


def _leg(results, seconds: float) -> dict:
    summary = StreamSummary.from_results(results)
    p99 = drop_aware_jct_percentile(results, 99)
    return {
        "seconds": seconds,
        "completed": summary.completed,
        "expired": summary.expired,
        "failed": summary.failed,
        "stranded": summary.preemption.stranded,
        "preemption_events": summary.preemption.preemption_events,
        "migration_events": summary.preemption.migration_events,
        "p99_jct_drop_aware": "inf" if math.isinf(p99) else p99,
        "p99_jct_completed": summary.completion.p99,
    }


def build_report(cycles: int, fillers_per_cycle: int) -> dict:
    """The BENCH_8 measurement: identity leg + storm legs + SLO verdict."""
    num_jobs = cycles * (1 + fillers_per_cycle)

    # Leg 1: fault-free rescue, no injector vs an attached empty injector.
    bare_buffer, empty_buffer = io.StringIO(), io.StringIO()
    bare_results, bare_time = run_replay(
        DeadlineRescue(horizon=RESCUE_HORIZON),
        cycles,
        fillers_per_cycle,
        telemetry=Telemetry(events=bare_buffer),
    )
    empty_results, empty_time = run_replay(
        DeadlineRescue(horizon=RESCUE_HORIZON),
        cycles,
        fillers_per_cycle,
        injector=FaultInjector(),
        telemetry=Telemetry(events=empty_buffer),
    )
    bit_identical = [result_key(r) for r in bare_results] == [
        result_key(r) for r in empty_results
    ] and bare_buffer.getvalue() == empty_buffer.getvalue()

    # Leg 2: the storm under never-preempt (the paper's irrevocable mode).
    never_results, never_time = run_replay(
        NeverPreempt(),
        cycles,
        fillers_per_cycle,
        injector=make_injector(cycles, fillers_per_cycle),
    )

    # Leg 3: the storm under deadline-rescue.
    chaos_sink = Telemetry()
    rescue_results, rescue_time = run_replay(
        DeadlineRescue(horizon=RESCUE_HORIZON),
        cycles,
        fillers_per_cycle,
        injector=make_injector(cycles, fillers_per_cycle),
        telemetry=chaos_sink,
    )

    fault_free = _leg(bare_results, bare_time)
    never = _leg(never_results, never_time)
    rescue = _leg(rescue_results, rescue_time)

    horizon = cycle_period(fillers_per_cycle) * cycles
    availability = chaos_sink.qpu_availability(horizon)
    fault_free_p99 = fault_free["p99_jct_drop_aware"]
    rescue_p99 = rescue["p99_jct_drop_aware"]
    bounded = rescue_p99 != "inf"
    within_slo = bounded and rescue_p99 <= SLO_FACTOR * fault_free_p99
    storm_bites = never["p99_jct_drop_aware"] == "inf"

    return {
        "num_jobs": num_jobs,
        "cycles": cycles,
        "fillers_per_cycle": fillers_per_cycle,
        "queueing_deadline": DEADLINE,
        "rescue_horizon": RESCUE_HORIZON,
        "slo_factor": SLO_FACTOR,
        "storm": {
            "fail_qpu_every_3rd_cycle": FAIL_QPU,
            "fail_outage": FAIL_REPAIR,
            "drain_qpu_every_3rd_cycle": DRAIN_QPU,
            "drain_downtime": DRAIN_DOWNTIME,
            "calibration_qpu_every_cycle": CALIB_QPU,
            "calibration_duration": CALIB_DURATION,
            "calibration_epr": CALIB_EPR,
            "events": len(build_storm(cycles, fillers_per_cycle)),
        },
        "fault_free_rescue": fault_free,
        "empty_injector_seconds": empty_time,
        "bit_identical": bit_identical,
        "chaos_never_preempt": never,
        "chaos_deadline_rescue": rescue,
        "fleet_telemetry": {
            "events": dict(chaos_sink.fleet_events),
            "interrupted_jobs": chaos_sink.interrupted_jobs,
            "fleet_migrated": chaos_sink.fleet_migrated,
            "fleet_requeued": chaos_sink.fleet_requeued,
            "qpu_downtime": {
                str(q): t for q, t in sorted(chaos_sink.qpu_downtime.items())
            },
            "qpu_availability": {
                str(q): a for q, a in sorted(availability.items())
            },
        },
        "storm_bites": storm_bites,
        "tail_bounded": bounded,
        "within_slo": within_slo,
        "ok": bool(bit_identical and storm_bites and bounded and within_slo),
    }
