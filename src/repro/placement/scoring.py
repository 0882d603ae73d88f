"""Placement scoring: estimated execution time, communication cost, and S.

Algorithm 1 evaluates every candidate placement with
``S = alpha * (1 / T) + beta * (1 / C)`` where ``T`` is the estimated running
time of the circuit under that placement and ``C`` is the communication cost.
The time estimator walks the dependency DAG layer by layer, charging Table I
latencies for local gates and the *expected* EPR cost for remote gates.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..circuits import CircuitDAG, GateKind, QuantumCircuit
from ..cloud import QuantumCloud
from ..sim.latency import DEFAULT_LATENCY, LatencyModel


#: What scoring reads of a circuit: each gate's operands and kind, in order.
GateTable = Sequence[Tuple[Tuple[int, ...], GateKind]]


def gate_table(circuit: QuantumCircuit) -> GateTable:
    """The circuit's :data:`GateTable` (classifies every gate once)."""
    return [(gate.qubits, gate.kind) for gate in circuit]


def estimate_execution_time(
    circuit: QuantumCircuit,
    mapping: Mapping[int, int],
    cloud: QuantumCloud,
    latency: LatencyModel = DEFAULT_LATENCY,
    epr_success_probability: Optional[float] = None,
    dag: Optional[CircuitDAG] = None,
    gates: Optional[GateTable] = None,
) -> float:
    """Estimated makespan of ``circuit`` under ``mapping`` (critical-path model).

    Each qubit carries a ready time; a gate starts when all its operands are
    ready and finishes after its latency.  Remote two-qubit gates pay the
    expected EPR generation latency for the shortest path between their QPUs.
    The result is the maximum qubit ready time -- a lower bound that ignores
    communication-qubit contention (the network scheduler refines it).
    ``gates`` is the circuit's :func:`gate_table`, if the caller keeps one.
    """
    probability = (
        cloud.epr_success_probability
        if epr_success_probability is None
        else epr_success_probability
    )
    if gates is None:
        gates = gate_table(circuit)
    # Expected remote-gate latency by hop count (a pure function of the hops).
    remote: Dict[int, float] = {}
    ready: Dict[int, float] = {q: 0.0 for q in range(circuit.num_qubits)}
    for qubits, kind in gates:
        start = max(ready[q] for q in qubits)
        if kind is GateKind.TWO_QUBIT:
            qpu_a = mapping[qubits[0]]
            qpu_b = mapping[qubits[1]]
            if qpu_a == qpu_b:
                duration = latency.two_qubit_gate
            else:
                hops = max(cloud.distance(qpu_a, qpu_b), 1)
                duration = remote.get(hops)
                if duration is None:
                    duration = remote[hops] = latency.expected_remote_gate_latency(
                        probability, parallel_attempts=1, hops=hops
                    )
        else:
            duration = latency.kind_latency(kind)
        finish = start + duration
        for q in qubits:
            ready[q] = finish
    return max(ready.values(), default=0.0)


def communication_cost(
    circuit: QuantumCircuit,
    mapping: Mapping[int, int],
    cloud: QuantumCloud,
    gates: Optional[GateTable] = None,
) -> float:
    """Eq. 1 for a raw mapping (without building a Placement object)."""
    if gates is None:
        gates = gate_table(circuit)
    cost = 0.0
    for qubits, kind in gates:
        if kind is not GateKind.TWO_QUBIT:
            continue
        qpu_a, qpu_b = mapping[qubits[0]], mapping[qubits[1]]
        if qpu_a != qpu_b:
            cost += cloud.distance(qpu_a, qpu_b)
    return cost


def placement_score(
    estimated_time: float,
    cost: float,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> float:
    """S = alpha / T + beta / C; degenerate zero values are treated as "free"."""
    time_term = alpha / estimated_time if estimated_time > 0 else alpha
    cost_term = beta / cost if cost > 0 else beta
    return time_term + cost_term


def score_mapping(
    circuit: QuantumCircuit,
    mapping: Mapping[int, int],
    cloud: QuantumCloud,
    alpha: float = 1.0,
    beta: float = 1.0,
    latency: LatencyModel = DEFAULT_LATENCY,
    gates: Optional[GateTable] = None,
) -> Dict[str, float]:
    """Convenience: compute time, cost and score of a mapping in one call."""
    if gates is None:
        gates = gate_table(circuit)
    estimated_time = estimate_execution_time(
        circuit, mapping, cloud, latency=latency, gates=gates
    )
    cost = communication_cost(circuit, mapping, cloud, gates=gates)
    return {
        "estimated_time": estimated_time,
        "communication_cost": cost,
        "score": placement_score(estimated_time, cost, alpha=alpha, beta=beta),
    }
