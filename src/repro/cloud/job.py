"""Job model: one tenant's quantum circuit moving through the cloud.

A job wraps a circuit with the bookkeeping the controller needs: arrival time,
placement, per-QPU qubit usage, and completion statistics.  The batch manager's
ordering metric I_i (Eq. 11) is also computed here, since it only depends on
the circuit's structure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..circuits import QuantumCircuit


class JobStatus(enum.Enum):
    """Lifecycle of a job inside the cloud."""

    PENDING = "pending"
    PLACED = "placed"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class Job:
    """A tenant request: one circuit plus scheduling metadata."""

    circuit: QuantumCircuit
    #: Unique within one run; :meth:`Controller.submit` issues ``job-<n>``.
    job_id: str
    arrival_time: float = 0.0
    status: JobStatus = JobStatus.PENDING
    placement: Optional[Dict[int, int]] = None
    start_time: Optional[float] = None
    completion_time: Optional[float] = None
    num_preemptions: int = 0
    num_migrations: int = 0
    last_preempted_time: Optional[float] = None
    last_migrated_time: Optional[float] = None

    @property
    def name(self) -> str:
        return self.circuit.name

    @property
    def num_qubits(self) -> int:
        return self.circuit.num_qubits

    @property
    def num_two_qubit_gates(self) -> int:
        return self.circuit.num_two_qubit_gates

    @property
    def depth(self) -> int:
        return self.circuit.depth()

    def priority_metric(
        self,
        lambda_density: float = 1.0,
        lambda_qubits: float = 1.0,
        lambda_depth: float = 1.0,
    ) -> float:
        """Batch-manager ordering metric I_i of Eq. 11.

        ``I_i = λ1 * (#CNOTs / n_i) + λ2 * n_i + λ3 * d_i`` where ``n_i`` is the
        qubit count and ``d_i`` the circuit depth.
        """
        density = self.num_two_qubit_gates / max(self.num_qubits, 1)
        return (
            lambda_density * density
            + lambda_qubits * self.num_qubits
            + lambda_depth * self.depth
        )

    def qubits_per_qpu(self) -> Dict[int, int]:
        """How many computing qubits the current placement uses on each QPU."""
        if self.placement is None:
            return {}
        usage: Dict[int, int] = {}
        for qpu in self.placement.values():
            usage[qpu] = usage.get(qpu, 0) + 1
        return usage

    def mark_placed(self, placement: Dict[int, int]) -> None:
        self.placement = dict(placement)
        self.status = JobStatus.PLACED

    def mark_running(self, start_time: float) -> None:
        self.start_time = start_time
        self.status = JobStatus.RUNNING

    def mark_completed(self, completion_time: float) -> None:
        self.completion_time = completion_time
        self.status = JobStatus.COMPLETED

    def mark_failed(self) -> None:
        self.status = JobStatus.FAILED

    def mark_preempted(self, time: float) -> None:
        """Return to PENDING with no placement (the controller freed it)."""
        self.placement = None
        self.start_time = None
        self.status = JobStatus.PENDING
        self.num_preemptions += 1
        self.last_preempted_time = time

    def mark_migrated(self, placement: Dict[int, int], time: float) -> None:
        """Adopt a new placement without leaving the running state."""
        self.placement = dict(placement)
        self.num_migrations += 1
        self.last_migrated_time = time

    def checkpoint_state(self) -> Dict[str, Any]:
        """Json-serializable job state; the circuit is stored by name."""
        return {
            "job_id": self.job_id,
            "circuit": self.circuit.name,
            "arrival_time": self.arrival_time,
            "status": self.status.value,
            "placement": None
            if self.placement is None
            else [[qubit, qpu] for qubit, qpu in self.placement.items()],
            "start_time": self.start_time,
            "completion_time": self.completion_time,
            "num_preemptions": self.num_preemptions,
            "num_migrations": self.num_migrations,
            "last_preempted_time": self.last_preempted_time,
            "last_migrated_time": self.last_migrated_time,
        }

    @classmethod
    def from_state(
        cls,
        state: Dict[str, Any],
        resolve: Callable[[str], QuantumCircuit],
    ) -> "Job":
        """Rebuild a job from :meth:`checkpoint_state` output.

        ``resolve`` maps the stored circuit name back to a circuit (the
        simulator resolves it from the circuit library).
        """

        def optional_float(value: Optional[float]) -> Optional[float]:
            return None if value is None else float(value)

        return cls(
            circuit=resolve(state["circuit"]),
            job_id=state["job_id"],
            arrival_time=float(state["arrival_time"]),
            status=JobStatus(state["status"]),
            placement=None
            if state["placement"] is None
            else {int(qubit): int(qpu) for qubit, qpu in state["placement"]},
            start_time=optional_float(state["start_time"]),
            completion_time=optional_float(state["completion_time"]),
            num_preemptions=int(state["num_preemptions"]),
            num_migrations=int(state["num_migrations"]),
            last_preempted_time=optional_float(state["last_preempted_time"]),
            last_migrated_time=optional_float(state["last_migrated_time"]),
        )

    @property
    def job_completion_time(self) -> Optional[float]:
        """JCT measured from arrival to completion (the paper's headline metric)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Job(id={self.job_id!r}, circuit={self.circuit.name!r}, "
            f"qubits={self.num_qubits}, status={self.status.value})"
        )
