"""What the benchmark measures: workloads, metrics and the layer map.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --manifest``), and ``run.py`` checks every
result it prints against it, so the two cannot drift apart.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Seed defaults, recorded in BENCHMARK.json's command.  The simulation
#: seed of anchor_burst and cluster_replay is ``--seed``; over
#: thousands of jobs it changes the sample, not the statistics.
#: mixed_batch replays one fixed Figs. 14-17 batch instead: with a few
#: large circuits contending for communication qubits at p=0.1, its JCT
#: and host time swing by more than 2x with the simulation seed, more than
#: any run that fits the time budget averages out, so it takes both its
#: batch and its simulation seed from ``--batch-seed``, as the repository's
#: Figs. 14-17 runner does.  Seed 7 draws two qft_n63, two multiplier_n75
#: and two multiplier_n45: they fit on the cloud together and contend for
#: the network, which makes the run network-bound.  Most of the other
#: batches tried (sizes 3-12, seeds 0-8) are bound by placement scoring and
#: remote-DAG builds instead.
DEFAULT_TRACE_SEED = 3
DEFAULT_BATCH_SEED = 7

RUN_SECONDS = 25

WORKLOADS: List[Dict[str, str]] = [
    {
        "name": "anchor_burst",
        "why": "placement failure path: ~94% of CloudQC attempts fail on "
        "fragmented capacity, so partition, community and mapping carry the "
        "run; network, telemetry and checkpoint do almost nothing",
    },
    {
        "name": "cluster_replay",
        "why": "bounded streaming path: RandomPlacement bypasses partition, "
        "community and mapping; trace reading, admission, activation, "
        "telemetry, checkpoints and the stepped engine loop carry the run",
    },
    {
        "name": "mixed_batch",
        "why": "network-bound paper batch at EPR p=0.1: allocation, EPR "
        "sampling and the engine dominate; the only multi-part placements, "
        "large remote-DAG builds and priority ordering; no telemetry",
    },
]

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("jobs_per_s", "jobs/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("sim_jct_mean_cx", "CX", "lower", 0.2),
    ("sim_jct_p99_cx", "CX", "lower", 0.2),
    ("sim_completed_frac", "ratio", "higher", 0.2),
]

#: (name, unit, better) of every per-layer metric of the traced run.  A
#: ``*_s`` metric is the layer's busy time, or its self time where the name
#: says ``self``.  Derived ones: ``network.epr_model_gap`` is the realized
#: EPR success ratio minus the mean ``round_success_probability`` of the
#: same calls; ``engine.host_us_per_event`` is engine self time per engine
#: event; ``tracing.wall_s`` is the traced run call and
#: ``tracing.overhead_frac`` that divided by the untraced median, minus 1.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("trace.records", "count", "lower"),
    ("trace.read_s", "s", "lower"),
    ("admission.calls", "count", "lower"),
    ("admission.admitted_frac", "ratio", "higher"),
    ("batch_manager.order_calls", "count", "lower"),
    ("batch_manager.order_s", "s", "lower"),
    ("placement.attempts", "count", "lower"),
    ("placement.placed", "count", "higher"),
    ("placement.success_ratio", "ratio", "higher"),
    ("placement.self_s", "s", "lower"),
    ("placement.attempt_p50_us", "us", "lower"),
    ("placement.attempt_p99_us", "us", "lower"),
    ("placement.context_hit_rate", "ratio", "higher"),
    ("partition.calls", "count", "lower"),
    ("partition.self_s", "s", "lower"),
    ("community.calls", "count", "lower"),
    ("community.errors", "count", "lower"),
    ("community.self_s", "s", "lower"),
    ("mapping.calls", "count", "lower"),
    ("mapping.errors", "count", "lower"),
    ("mapping.self_s", "s", "lower"),
    ("scoring.calls", "count", "lower"),
    ("scoring.self_s", "s", "lower"),
    ("activation.builds", "count", "lower"),
    ("activation.remote_dag_s", "s", "lower"),
    ("activation.local_time_s", "s", "lower"),
    ("scheduling.rounds", "count", "lower"),
    ("scheduling.requests", "count", "lower"),
    ("scheduling.granted", "count", "higher"),
    ("scheduling.allocate_s", "s", "lower"),
    ("network.epr_samples", "count", "lower"),
    ("network.epr_successes", "count", "higher"),
    ("network.epr_success_ratio", "ratio", "higher"),
    ("network.epr_model_gap", "ratio", "lower"),
    ("network.epr_s", "s", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.host_us_per_event", "us", "lower"),
    ("telemetry.hook_calls", "count", "lower"),
    ("telemetry.self_s", "s", "lower"),
    ("telemetry.event_bytes", "bytes", "lower"),
    ("checkpoint.snapshots", "count", "lower"),
    ("checkpoint.write_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("tracing.wall_s", "s", "lower"),
    ("tracing.overhead_frac", "ratio", "lower"),
]

#: Layer -> (end-to-end metrics it should move, workloads it moves them on).
#: On every other workload the layer does little or nothing, so a change to
#: it should leave jobs_per_s unmoved there.
LAYER_MAP: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "trace": (("jobs_per_s",), ("cluster_replay",)),
    "admission": (("jobs_per_s",), ("cluster_replay",)),
    "batch_manager": (("jobs_per_s",), ("mixed_batch",)),
    "placement": (("jobs_per_s",), ("anchor_burst",)),
    "partition": (("jobs_per_s",), ("anchor_burst", "mixed_batch")),
    "community": (("jobs_per_s",), ("anchor_burst",)),
    "mapping": (("jobs_per_s",), ("anchor_burst",)),
    "scoring": (("jobs_per_s",), ("mixed_batch",)),
    "activation": (("jobs_per_s",), ("cluster_replay", "mixed_batch")),
    "scheduling": (("jobs_per_s",), ("mixed_batch",)),
    "network": (("jobs_per_s",), ("mixed_batch",)),
    "engine": (("jobs_per_s",), ("mixed_batch", "cluster_replay")),
    "telemetry": (("jobs_per_s", "peak_rss_mb"), ("cluster_replay",)),
    "checkpoint": (("jobs_per_s",), ("cluster_replay",)),
}


def manifest() -> Dict[str, object]:
    """The content of BENCHMARK.json."""
    return {
        "command": [
            "python3", "perfbench/run.py",
            "--trace-seed", str(DEFAULT_TRACE_SEED),
            "--batch-seed", str(DEFAULT_BATCH_SEED),
        ],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
