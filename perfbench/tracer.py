"""Per-layer spans for the traced benchmark run, installed from outside.

Nothing under ``src/`` knows about this module: :func:`traced` wraps the
public entry point of each layer (a method on the class the simulator
actually uses, or a module-level function wherever a ``repro`` module has
imported it), records count, busy time and self time, and restores every
original on exit.  Self time is a span's duration minus the time its nested
spans cover; the engine's self time is the timed run call minus every
top-level span.  The wrappers call the originals with the same arguments
and return their results untouched, so a traced run's outputs -- and its
digest -- are those of an untraced run.

The bookkeeping a wrapper does after its span ends is charged to neither
the span nor its parent, so the layer numbers exclude most of the tracing
cost; the rest shows up as ``tracing.overhead_frac``.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.multitenant import Telemetry, TraceCursor
from repro.network import EPRModel
from repro.placement import (
    PlacementContext,
    community_qpu_set,
    map_partitions_to_qpus,
    score_mapping,
)
from repro.multitenant.checkpoint import write_snapshot
from repro.scheduling import RemoteDAG
from repro.sim import EventLoop, local_execution_time

#: Telemetry's job-lifecycle and fleet hooks, the calls the simulator makes.
TELEMETRY_HOOKS = (
    "job_arrived",
    "job_admitted",
    "job_placed",
    "job_preempted",
    "job_requeued",
    "job_migrated",
    "record_result",
    "qpu_joined",
    "qpu_failed",
    "qpu_drained",
    "calibration_started",
    "calibration_ended",
)

_MISSING = object()


class Span:
    """Totals of one layer's calls."""

    __slots__ = ("calls", "errors", "busy_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.errors = 0
        self.busy_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span totals plus the layer-specific observations behind the ratios."""

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        # One slot per open span: the time its nested spans have covered.
        self._covered: List[float] = [0.0]
        self._undo: List[Callable[[], None]] = []
        self.wall_s = 0.0
        self.attempt_s: List[float] = []
        self.placed = 0
        self.contexts: Dict[int, PlacementContext] = {}
        self.admitted = 0
        self.requests = 0
        self.granted = 0
        self.epr_successes = 0
        self.epr_calls: Dict[tuple, int] = {}
        self.epr_models: Dict[int, EPRModel] = {}
        self.snapshot_bytes = 0
        self.loops: List[EventLoop] = []

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    # -- wrapping --------------------------------------------------------
    def _timed(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable[[Any, tuple, dict], None]] = None,
        durations: Optional[List[float]] = None,
    ) -> Callable:
        span = self.span(name)
        covered = self._covered
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            covered.append(0.0)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                elapsed = clock() - start
                span.calls += 1
                span.busy_s += elapsed
                span.self_s += elapsed - covered.pop()
                if failed:
                    span.errors += 1
                elif observe is not None:
                    observe(result, args, kwargs)
                if durations is not None:
                    durations.append(elapsed)
                covered[-1] += clock() - start
            return result

        return wrapper

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        previous = owner.__dict__.get(attr, _MISSING)
        setattr(owner, attr, value)
        if previous is _MISSING:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, previous))

    def wrap_method(self, cls: type, attr: str, name: str, **options) -> None:
        self._set(cls, attr, self._timed(name, getattr(cls, attr), **options))

    def wrap_function(self, fn: Callable, name: str, **options) -> None:
        """Wrap ``fn`` in every loaded ``repro`` module that imported it."""
        wrapper = self._timed(name, fn, **options)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- observations ----------------------------------------------------
    def _on_admit(self, admitted, args, kwargs) -> None:
        self.admitted += bool(admitted)

    def _on_place(self, placement, args, kwargs) -> None:
        self.placed += 1
        context = kwargs.get("context")
        if context is not None:
            self.contexts[id(context)] = context

    def _on_allocate(self, allocation, args, kwargs) -> None:
        self.requests += len(args[1])
        self.granted += sum(n for n in allocation.values() if n > 0)

    def _on_sample(self, success, args, kwargs) -> None:
        model, qpu_a, qpu_b, attempts = args[:4]
        self.epr_successes += success
        key = (id(model), qpu_a, qpu_b, attempts)
        count = self.epr_calls.get(key)
        if count is None:
            self.epr_models[id(model)] = model
            count = 0
        self.epr_calls[key] = count + 1

    def epr_probability_mean(self) -> float:
        """Mean ``round_success_probability`` of the sampled rounds.

        Evaluated once per distinct call after the run, which keeps the cost
        out of the traced run; exact because no workload changes a QPU's EPR
        probability mid-run (none has a fault injector).
        """
        total = sum(
            count
            * self.epr_models[model].round_success_probability(a, b, attempts)
            for (model, a, b, attempts), count in self.epr_calls.items()
        )
        return _ratio(total, sum(self.epr_calls.values()))

    def _on_snapshot(self, size, args, kwargs) -> None:
        self.snapshot_bytes += size

    def install(self, simulator) -> None:
        """Wrap every layer's entry point for the simulator's components."""
        self.wrap_method(TraceCursor, "__next__", "trace")
        self.wrap_method(
            type(simulator.admission_policy), "admit", "admission",
            observe=self._on_admit,
        )
        self.wrap_method(type(simulator.batch_manager), "order", "batch_manager")
        self.wrap_method(
            type(simulator.placement_algorithm), "place", "placement",
            observe=self._on_place, durations=self.attempt_s,
        )
        self.wrap_method(PlacementContext, "partition", "partition")
        self.wrap_function(community_qpu_set, "community")
        self.wrap_function(map_partitions_to_qpus, "mapping")
        self.wrap_function(score_mapping, "scoring")
        self.wrap_method(RemoteDAG, "__init__", "activation.remote_dag")
        self.wrap_function(local_execution_time, "activation.local_time")
        self.wrap_method(
            type(simulator.network_scheduler), "allocate", "scheduling",
            observe=self._on_allocate,
        )
        self.wrap_method(
            EPRModel, "sample_round", "network", observe=self._on_sample
        )
        for hook in TELEMETRY_HOOKS:
            self.wrap_method(Telemetry, hook, "telemetry")
        self.wrap_function(
            write_snapshot, "checkpoint", observe=self._on_snapshot
        )
        loop_init = EventLoop.__init__
        loops = self.loops

        def capture_loop(loop, *args, **kwargs):
            loop_init(loop, *args, **kwargs)
            loops.append(loop)

        self._set(EventLoop, "__init__", capture_loop)

    def run(self, call: Callable[[], Any]) -> Any:
        """Time ``call`` as the root span; its uncovered time is the engine's."""
        self._covered[:] = [0.0]
        start = time.perf_counter()
        result = call()
        self.wall_s = time.perf_counter() - start
        engine = self.span("engine")
        engine.calls += 1
        engine.busy_s += self.wall_s
        engine.self_s += self.wall_s - self._covered[0]
        return result

    # -- report ----------------------------------------------------------
    def metrics(self, telemetry: Optional[Telemetry]) -> Dict[str, float]:
        s = self.span
        placement = s("placement")
        scheduling = s("scheduling")
        network = s("network")
        trace = s("trace")
        admission = s("admission")
        events = sum(loop.processed_events for loop in self.loops)
        hits = sum(c.hits for c in self.contexts.values())
        lookups = sum(c.lookups for c in self.contexts.values())
        attempt_us = np.asarray(self.attempt_s) * 1e6
        epr_ratio = _ratio(self.epr_successes, network.calls)
        return {
            # The call that ends the trace raises StopIteration.
            "trace.records": trace.calls - trace.errors,
            "trace.read_s": trace.busy_s,
            "admission.calls": admission.calls,
            "admission.admitted_frac": _ratio(self.admitted, admission.calls),
            "batch_manager.order_calls": s("batch_manager").calls,
            "batch_manager.order_s": s("batch_manager").busy_s,
            "placement.attempts": placement.calls,
            "placement.placed": self.placed,
            "placement.success_ratio": _ratio(self.placed, placement.calls),
            "placement.self_s": placement.self_s,
            "placement.attempt_p50_us": _percentile(attempt_us, 50),
            "placement.attempt_p99_us": _percentile(attempt_us, 99),
            "placement.context_hit_rate": _ratio(hits, lookups),
            "partition.calls": s("partition").calls,
            "partition.self_s": s("partition").self_s,
            "community.calls": s("community").calls,
            "community.errors": s("community").errors,
            "community.self_s": s("community").self_s,
            "mapping.calls": s("mapping").calls,
            "mapping.errors": s("mapping").errors,
            "mapping.self_s": s("mapping").self_s,
            "scoring.calls": s("scoring").calls,
            "scoring.self_s": s("scoring").self_s,
            "activation.builds": s("activation.remote_dag").calls,
            "activation.remote_dag_s": s("activation.remote_dag").busy_s,
            "activation.local_time_s": s("activation.local_time").busy_s,
            "scheduling.rounds": scheduling.calls,
            "scheduling.requests": self.requests,
            "scheduling.granted": self.granted,
            "scheduling.allocate_s": scheduling.busy_s,
            "network.epr_samples": network.calls,
            "network.epr_successes": self.epr_successes,
            "network.epr_success_ratio": epr_ratio,
            "network.epr_model_gap": epr_ratio - self.epr_probability_mean(),
            "network.epr_s": network.busy_s,
            "engine.events": events,
            "engine.self_s": s("engine").self_s,
            "engine.host_us_per_event": _ratio(s("engine").self_s * 1e6, events),
            "telemetry.hook_calls": s("telemetry").calls,
            "telemetry.self_s": s("telemetry").self_s,
            "telemetry.event_bytes": (
                0 if telemetry is None else telemetry.events_bytes
            ),
            "checkpoint.snapshots": s("checkpoint").calls,
            "checkpoint.write_s": s("checkpoint").busy_s,
            "checkpoint.bytes": self.snapshot_bytes,
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: np.ndarray, p: float) -> float:
    return float(np.percentile(values, p)) if len(values) else 0.0


@contextmanager
def traced(simulator) -> Iterator[Tracer]:
    """Install the layer wrappers for one run and remove them afterwards."""
    tracer = Tracer()
    try:
        tracer.install(simulator)
        yield tracer
    finally:
        tracer.restore()
