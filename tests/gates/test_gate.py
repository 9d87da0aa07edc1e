"""Tests for the Gate object."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.errors import GateError
from repro.gates import library as lib
from repro.gates.gate import Gate

#: Prints the bytes allocated in ``gate.py`` per gate while both memos
#: are read on 2,000 library CNOTs, built (``built``) and retargeted
#: with ``Gate.on`` (``on``).
_MEMO_ALLOCATION_CODE = """
import tracemalloc
import repro.gates.gate as gate_module
from repro.gates import library as lib

sources = [lib.CNOT(2 * i % 7, 2 * i % 7 + 1) for i in range(2000)]
retargeted = [gate.on(gate.qubits[::-1]) for gate in sources]
for label, gates in (("built", sources), ("on", retargeted)):
    tracemalloc.start()
    for gate in gates:
        gate.signature, gate.is_diagonal
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    traces = snapshot.filter_traces(
        [tracemalloc.Filter(True, gate_module.__file__)]
    )
    allocated = sum(stat.size for stat in traces.statistics("filename"))
    print(label, allocated / len(gates))
"""


class TestGateConstruction:
    def test_basic_properties(self):
        gate = lib.CNOT(2, 5)
        assert gate.name == "CNOT"
        assert gate.qubits == (2, 5)
        assert gate.num_qubits == 2
        assert gate.params == ()

    def test_matrix_is_readonly(self):
        gate = lib.H(0)
        with pytest.raises(ValueError):
            gate.matrix[0, 0] = 9.0

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(GateError):
            lib.CNOT(1, 1)

    def test_negative_qubits_rejected(self):
        with pytest.raises(GateError):
            lib.H(-1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GateError):
            Gate("BAD", (0, 1), np.eye(2))

    def test_non_unitary_rejected(self):
        with pytest.raises(GateError):
            Gate("BAD", (0,), np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestGateIdentity:
    def test_instances_compare_by_identity(self):
        a = lib.H(0)
        b = lib.H(0)
        assert a is not b
        assert a != b  # eq=False: identity comparison

    def test_signatures_compare_by_value(self):
        assert lib.H(0).signature == lib.H(7).signature
        assert lib.RZ(0.5, 0).signature == lib.RZ(0.5, 3).signature
        assert lib.RZ(0.5, 0).signature != lib.RZ(0.6, 0).signature

    def test_signature_captures_qubit_order(self):
        # CNOT(0,1) and CNOT(1,0) differ even though both touch {0,1}.
        assert lib.CNOT(0, 1).signature != lib.CNOT(1, 0).signature
        # CNOT(2,5) has the same pattern as CNOT(0,1).
        assert lib.CNOT(2, 5).signature == lib.CNOT(0, 1).signature

    def test_gates_are_hashable(self):
        gates = {lib.H(0), lib.H(0), lib.X(1)}
        assert len(gates) == 3  # identity hashing: each instance distinct


class TestGateMethods:
    def test_on_retargets_qubits(self):
        moved = lib.CNOT(0, 1).on((3, 4))
        assert moved.qubits == (3, 4)
        assert np.allclose(moved.matrix, lib.CNOT(0, 1).matrix)

    @pytest.mark.parametrize(
        "qubits", [(2, 2), (-1, 3), (4,), (0, 1, 2)], ids=str
    )
    def test_on_checks_the_new_qubits(self, qubits):
        with pytest.raises(GateError):
            lib.CNOT(0, 1).on(qubits)

    @pytest.mark.parametrize(
        "gate",
        [lib.CNOT(0, 1), lib.RZ(0.3, 2), lib.CZ(1, 0), lib.TOFFOLI(0, 1, 2)],
        ids=lambda gate: gate.name,
    )
    def test_on_matches_a_freshly_built_gate(self, gate):
        # Memoize both on the source first: a qubit-dependent memo must
        # not carry over to the retargeted gate.
        _signature, diagonal = gate.signature, gate.is_diagonal
        qubits = tuple(reversed(range(5, 5 + gate.num_qubits)))
        moved = gate.on(qubits)
        fresh = Gate(gate.name, qubits, gate.matrix, gate.params)
        assert moved.qubits == fresh.qubits == qubits
        assert moved.params == fresh.params
        assert moved.signature == fresh.signature
        assert moved.is_diagonal == fresh.is_diagonal == diagonal
        assert np.array_equal(moved.matrix, fresh.matrix)

    def test_dagger_inverts(self):
        gate = lib.RX(0.7, 0)
        product = gate.matrix @ gate.dagger().matrix
        assert np.allclose(product, np.eye(2), atol=1e-12)

    def test_double_dagger_name(self):
        assert lib.T(0).dagger().name == "T_DG"
        assert lib.T(0).dagger().dagger().name == "T"

    def test_is_diagonal(self):
        assert lib.RZ(0.3, 0).is_diagonal
        assert lib.CZ(0, 1).is_diagonal
        assert lib.RZZ(0.3, 0, 1).is_diagonal
        assert not lib.CNOT(0, 1).is_diagonal
        assert not lib.H(0).is_diagonal

    def test_memos_allocate_no_instance_dict(self):
        """Reading both memos allocates the signature tuples (120 B for a
        CNOT) and nothing else in ``gate.py``; a memo kept in a
        materialized instance ``__dict__`` costs about 270 B more.

        Measured in a fresh interpreter: whether an instance dict already
        exists depends on what the process did with gates before.
        """
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        child = subprocess.run(
            [sys.executable, "-c", _MEMO_ALLOCATION_CODE],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": source_root},
        )
        per_gate = {
            label: float(value)
            for label, value in map(str.split, child.stdout.splitlines())
        }
        assert set(per_gate) == {"built", "on"}
        assert all(value < 200 for value in per_gate.values()), per_gate

    def test_repr_contains_name_and_qubits(self):
        text = repr(lib.RZ(0.5, 3))
        assert "RZ" in text and "3" in text
