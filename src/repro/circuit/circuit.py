"""The :class:`Circuit`: an ordered gate list on a fixed-width register.

This is the flat logical assembly the compiler takes as input (the
benchmark generators build one directly); the gate-dependence graph is
derived from it.  Builder methods are chainable::

    circuit = Circuit(3).h(0).cnot(0, 1).rz(0.5, 1).cnot(0, 1)
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import CircuitError
from repro.gates import library
from repro.gates.gate import Gate
from repro.linalg.embed import embed_operator

_UNITARY_QUBIT_LIMIT = 12


class Circuit:
    """An ordered sequence of gates on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits < 1:
            raise CircuitError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self.gates: list[Gate] = []

    # ------------------------------------------------------------------
    # Construction

    def append(self, gate: Gate) -> Circuit:
        """Append a gate, validating qubit indices."""
        if any(q >= self.num_qubits for q in gate.qubits):
            raise CircuitError(
                f"{gate} exceeds register width {self.num_qubits}"
            )
        self.gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> Circuit:
        """Append every gate from an iterable."""
        for gate in gates:
            self.append(gate)
        return self

    @classmethod
    def from_gates(
        cls, num_qubits: int, gates: Iterable[Gate], name: str = "circuit"
    ) -> Circuit:
        """Build a circuit from an existing gate sequence."""
        circuit = cls(num_qubits, name=name)
        circuit.extend(gates)
        return circuit

    def copy(self) -> Circuit:
        """Shallow copy (gates are immutable and shared)."""
        clone = Circuit(self.num_qubits, name=self.name)
        clone.gates = list(self.gates)
        return clone

    # Chainable builder shorthands -------------------------------------

    def h(self, qubit: int) -> Circuit:
        return self.append(library.H(qubit))

    def x(self, qubit: int) -> Circuit:
        return self.append(library.X(qubit))

    def y(self, qubit: int) -> Circuit:
        return self.append(library.Y(qubit))

    def z(self, qubit: int) -> Circuit:
        return self.append(library.Z(qubit))

    def s(self, qubit: int) -> Circuit:
        return self.append(library.S(qubit))

    def t(self, qubit: int) -> Circuit:
        return self.append(library.T(qubit))

    def rx(self, theta: float, qubit: int) -> Circuit:
        return self.append(library.RX(theta, qubit))

    def ry(self, theta: float, qubit: int) -> Circuit:
        return self.append(library.RY(theta, qubit))

    def rz(self, theta: float, qubit: int) -> Circuit:
        return self.append(library.RZ(theta, qubit))

    def cnot(self, control: int, target: int) -> Circuit:
        return self.append(library.CNOT(control, target))

    def cz(self, control: int, target: int) -> Circuit:
        return self.append(library.CZ(control, target))

    def cphase(self, theta: float, control: int, target: int) -> Circuit:
        return self.append(library.CPHASE(theta, control, target))

    def swap(self, qubit_a: int, qubit_b: int) -> Circuit:
        return self.append(library.SWAP(qubit_a, qubit_b))

    def rzz(self, theta: float, qubit_a: int, qubit_b: int) -> Circuit:
        return self.append(library.RZZ(theta, qubit_a, qubit_b))

    def toffoli(self, control_a: int, control_b: int, target: int) -> Circuit:
        return self.append(library.TOFFOLI(control_a, control_b, target))

    # ------------------------------------------------------------------
    # Inspection

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, qubits={self.num_qubits}, "
            f"gates={len(self.gates)})"
        )

    def gate_counts(self) -> Counter[str]:
        """Histogram of gate names."""
        return Counter(gate.name for gate in self.gates)

    def qubit_gates(self, qubit: int) -> list[Gate]:
        """Gates acting on ``qubit``, in program order."""
        if not 0 <= qubit < self.num_qubits:
            raise CircuitError(f"qubit {qubit} out of range")
        return [gate for gate in self.gates if qubit in gate.qubits]

    def used_qubits(self) -> set[int]:
        """Qubits touched by at least one gate."""
        used: set[int] = set()
        for gate in self.gates:
            used.update(gate.qubits)
        return used

    @property
    def depth(self) -> int:
        """Unit-latency circuit depth (per-qubit program order, no
        commutation analysis)."""
        level = [0] * self.num_qubits
        for gate in self.gates:
            start = max(level[q] for q in gate.qubits)
            for q in gate.qubits:
                level[q] = start + 1
        return max(level, default=0)

    def two_qubit_interaction_pairs(self) -> Counter[tuple[int, int]]:
        """Histogram of (sorted) qubit pairs touched by multi-qubit gates.

        Used by the mapping stage to build the qubit-interaction graph.
        """
        pairs: Counter[tuple[int, int]] = Counter()
        for gate in self.gates:
            if gate.num_qubits >= 2:
                qubits = sorted(gate.qubits)
                for i, a in enumerate(qubits):
                    for b in qubits[i + 1:]:
                        pairs[(a, b)] += 1
        return pairs

    # ------------------------------------------------------------------
    # Semantics

    def unitary(self) -> np.ndarray:
        """Full-register unitary (only for small circuits)."""
        if self.num_qubits > _UNITARY_QUBIT_LIMIT:
            raise CircuitError(
                f"unitary() limited to {_UNITARY_QUBIT_LIMIT} qubits; "
                f"circuit has {self.num_qubits}"
            )
        total = np.eye(2**self.num_qubits, dtype=complex)
        for gate in self.gates:
            total = embed_operator(gate.matrix, gate.qubits, self.num_qubits) @ total
        return total

    def statevector(self, initial: Sequence[complex] | None = None) -> np.ndarray:
        """Final state after applying the circuit to ``initial`` (or |0..0>)."""
        from repro.linalg.simulator import StatevectorSimulator

        simulator = StatevectorSimulator(self.num_qubits)
        if initial is not None:
            initial = np.asarray(initial, dtype=complex)
            if initial.shape != (2**self.num_qubits,):
                raise CircuitError("initial state has wrong dimension")
            simulator.state = initial / np.linalg.norm(initial)
        simulator.run_circuit(self)
        return simulator.state
