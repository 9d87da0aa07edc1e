"""Aggregated instructions: multi-gate units compiled to a single pulse.

An :class:`AggregatedInstruction` wraps an ordered run of gates whose
combined unitary will be synthesized as one continuous control pulse by
the optimal-control unit.  It exposes the same structural interface as
:class:`~repro.gates.gate.Gate` (``qubits``, ``is_diagonal``,
``signature``, optional ``matrix``, ``on``) so the GDG, the schedulers,
the router and the OCU treat gates and instructions uniformly.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

import numpy as np

from repro.control.unit import gates_of
from repro.errors import AggregationError
from repro.gates.gate import Gate
from repro.linalg.embed import embed_operator
from repro.linalg.predicates import is_diagonal

_MATRIX_QUBIT_LIMIT = 6


class AggregatedInstruction:
    """An ordered run of gates compiled as one pulse."""

    # itertools.count: atomic under the GIL, so concurrent batch workers
    # never mint duplicate auto-names.
    _counter = itertools.count(1)

    def __init__(self, gates: Sequence[Gate], name: str | None = None) -> None:
        gates = list(gates)
        if not gates:
            raise AggregationError("an instruction needs at least one gate")
        for gate in gates:
            if not isinstance(gate, Gate):
                raise AggregationError(
                    f"instructions aggregate plain gates, got {gate!r}"
                )
        self.gates = gates
        qubits: set[int] = set()
        for gate in gates:
            qubits.update(gate.qubits)
        self.qubits = tuple(sorted(qubits))
        if name is None:
            name = f"G{next(AggregatedInstruction._counter)}"
        self.name = name

    @classmethod
    def from_nodes(cls, first, second, name: str | None = None) -> AggregatedInstruction:
        """Merge two nodes (gates or instructions), ``first`` running first."""
        return cls(gates_of(first) + gates_of(second), name=name)

    @property
    def width(self) -> int:
        """Number of distinct qubits."""
        return len(self.qubits)

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def __len__(self) -> int:
        return len(self.gates)

    @functools.cached_property
    def matrix(self) -> np.ndarray | None:
        """Combined unitary in instruction-local qubit order.

        ``None`` for instructions wider than the dense-matrix limit; the
        conservative commutation rules take over in that regime.
        """
        if self.width > _MATRIX_QUBIT_LIMIT:
            return None
        index = {qubit: position for position, qubit in enumerate(self.qubits)}
        total = np.eye(2**self.width, dtype=complex)
        for gate in self.gates:
            positions = [index[q] for q in gate.qubits]
            total = embed_operator(gate.matrix, positions, self.width) @ total
        total.setflags(write=False)
        return total

    @functools.cached_property
    def is_diagonal(self) -> bool:
        """Diagonality of the combined unitary.

        Exact when the dense matrix is available (a CNOT-Rz-CNOT block is
        diagonal even though its members are not); otherwise the sound
        approximation "all members diagonal".
        """
        matrix = self.matrix
        if matrix is not None:
            return is_diagonal(matrix)
        return all(gate.is_diagonal for gate in self.gates)

    @functools.cached_property
    def signature(self) -> tuple:
        """Structural identity: member signatures + local qubit layout."""
        index = {qubit: position for position, qubit in enumerate(self.qubits)}
        parts = tuple(
            (
                gate.name,
                tuple(round(p, 10) for p in gate.params),
                tuple(index[q] for q in gate.qubits),
            )
            for gate in self.gates
        )
        return ("AGG", self.width, parts)

    def on(self, new_qubits: Sequence[int]) -> AggregatedInstruction:
        """Retarget the instruction onto other qubits (order corresponds
        to the sorted current support)."""
        new_qubits = tuple(int(q) for q in new_qubits)
        if len(new_qubits) != self.width:
            raise AggregationError(
                f"{self.name} needs {self.width} qubits, got {len(new_qubits)}"
            )
        mapping = dict(zip(self.qubits, new_qubits))
        moved = [
            gate.on(tuple(mapping[q] for q in gate.qubits))
            for gate in self.gates
        ]
        return AggregatedInstruction(moved, name=self.name)

    def gate_counts(self) -> dict[str, int]:
        """Histogram of member gate names."""
        counts: dict[str, int] = {}
        for gate in self.gates:
            counts[gate.name] = counts.get(gate.name, 0) + 1
        return counts

    def __repr__(self) -> str:
        members = ",".join(gate.name for gate in self.gates[:4])
        if len(self.gates) > 4:
            members += f",+{len(self.gates) - 4}"
        return f"{self.name}[{members}]@{self.qubits}"

