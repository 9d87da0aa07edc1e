"""Analytic pulse-latency model for the XY architecture.

The instruction aggregator must query latencies for thousands of candidate
instructions; running GRAPE for each (as the paper's backend does, at the
cost of hours of compilation) is replaced here by a calibrated analytic
model with the same structure as the GRAPE optima:

``T(instruction) = t_setup + max_q workload(q)``

* ``t_setup`` — fixed pulse overhead (ramp/bandwidth), calibrated against
  paper Table 1: 33.0 ns when any coupling field is used, 2.1 ns for
  drive-only pulses.  Aggregation amortizes this overhead: one setup per
  aggregated instruction instead of one per gate.
* ``workload(q)`` — per-qubit busy time.  Consecutive gates whose joint
  support stays within two qubits are *collapsed* into runs first (exactly
  the folding optimal control performs: CNOT-Rz-CNOT becomes one ZZ-class
  pulse).  A two-qubit run then costs its provably minimal XY interaction
  time :func:`~repro.linalg.kak.interaction_time` on both qubits; a
  single-qubit run costs its net rotation content over the drive rate.
  Drive fields on qubits engaged in a coupling pulse are co-scheduled with
  the interaction (GRAPE overlaps them), so collapsed two-qubit runs carry
  no separate local charge.

Cross-checks against the GRAPE backend live in
``tests/control/test_model_vs_grape.py``.
"""

from __future__ import annotations

import numpy as np

from repro.config import DeviceConfig, DEFAULT_DEVICE
from repro.errors import ControlError
from repro.gates.gate import Gate
from repro.linalg.embed import embed_operator
from repro.linalg.kak import interaction_time, weyl_decomposition
from repro.linalg.su2 import rotation_content


class AnalyticLatencyModel:
    """Estimates minimal pulse latency of gate sequences.

    Args:
        device: Homogeneous field limits and setup times.
        target: Optional full :class:`~repro.device.device.Device`.  When
            it carries per-edge coupling-limit overrides, a two-qubit run
            on an overridden edge is priced at that edge's rate; pairs
            that are not device edges (latency queries on logical
            circuits, before placement) fall back to the homogeneous
            rate, as does a ``target`` of None.
    """

    def __init__(
        self, device: DeviceConfig = DEFAULT_DEVICE, target=None
    ) -> None:
        self.device = device
        self.target = target

    def coupling_rate(self, support) -> float:
        """Coupling rate (rad/ns) of a physical support: its edge's rate
        when it is a pair on the target, else the homogeneous rate."""
        if self.target is not None and len(support) == 2:
            return self.target.coupling_rate_of(support[0], support[1])
        return self.device.coupling_rate

    def residual_local_time(self, matrix: np.ndarray) -> float:
        """Drive time of a two-qubit unitary's residual local rotations:
        the larger per-qubit rotation content over the drive rate."""
        try:
            decomposition = weyl_decomposition(matrix)
        except Exception:
            return 0.0
        qubit_a, qubit_b = decomposition.local_rotation_content
        return max(qubit_a, qubit_b) / self.device.drive_rate

    def gate_latency(self, gate: Gate) -> float:
        """Latency of a standalone gate pulse (ISA compilation cost)."""
        return self.sequence_latency([gate])

    def sequence_latency(self, gates) -> float:
        """Latency of one continuous pulse implementing ``gates`` in order.

        Gates act on absolute qubit indices; the instruction's width is
        the union of their supports.
        """
        gates = list(gates)
        if not gates:
            return 0.0
        for gate in gates:
            if gate.num_qubits > 2:
                raise ControlError(
                    f"latency model needs 1-/2-qubit gates, got {gate}"
                )
        runs = _collapse_runs(gates)
        workload: dict[int, float] = {}
        uses_coupling = False
        for run in runs:
            cost, is_coupling = self._run_cost(run)
            uses_coupling = uses_coupling or is_coupling
            for q in run.support:
                workload[q] = workload.get(q, 0.0) + cost
        setup = (
            self.device.setup_time_2q_ns
            if uses_coupling
            else self.device.setup_time_1q_ns
        )
        return setup + max(workload.values(), default=0.0)

    def _run_cost(self, run: _Run) -> tuple[float, bool]:
        if len(run.support) == 1:
            content = rotation_content(run.matrix)
            return content / self.device.drive_rate, False
        busy = interaction_time(run.matrix, self.coupling_rate(run.support))
        if busy < 1e-9:
            # Locally-equivalent-to-identity run (e.g. cancelled CNOTs):
            # only residual local rotations remain, charged at drive rate.
            return self.residual_local_time(run.matrix), False
        return busy, True


class _Run:
    """A maximal consecutive sub-sequence supported on <= 2 qubits."""

    def __init__(self, gate: Gate) -> None:
        self.support: tuple[int, ...] = tuple(sorted(gate.qubits))
        self.matrix = self._embed(gate)

    def try_absorb(self, gate: Gate) -> bool:
        union = tuple(sorted(set(self.support) | set(gate.qubits)))
        if len(union) > 2:
            return False
        if union != self.support:
            # Grow a 1-qubit run into the 2-qubit union support.
            old_positions = [union.index(q) for q in self.support]
            self.matrix = embed_operator(self.matrix, old_positions, len(union))
            self.support = union
        self.matrix = self._embed(gate) @ self.matrix
        return True

    def _embed(self, gate: Gate) -> np.ndarray:
        positions = [self.support.index(q) for q in gate.qubits]
        return embed_operator(gate.matrix, positions, len(self.support))


def _collapse_runs(gates) -> list[_Run]:
    """Greedy forward pass building maximal <=2-qubit runs.

    A gate joins the most recent *open* run it overlaps when their union
    stays within two qubits; runs it overlaps but cannot join are closed
    (the shared control line forces serialization, so later gates must
    not fold past them).
    """
    open_runs: list[_Run] = []
    closed: list[_Run] = []
    for gate in gates:
        touching = [
            run for run in open_runs if set(run.support) & set(gate.qubits)
        ]
        if len(touching) == 1 and touching[0].try_absorb(gate):
            continue
        for run in touching:
            open_runs.remove(run)
            closed.append(run)
        open_runs.append(_Run(gate))
    closed.extend(open_runs)
    return closed
