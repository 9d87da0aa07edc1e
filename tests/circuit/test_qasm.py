"""Tests for the QASM dialect parser and emitter."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.circuit import Circuit
from repro.circuit.qasm import circuit_to_qasm, parse_qasm
from repro.errors import CircuitError, QasmError


class TestParse:
    def test_minimal_program(self):
        circuit = parse_qasm("qubits 2\nh q0\ncnot q0, q1\n")
        assert circuit.num_qubits == 2
        assert [g.name for g in circuit] == ["H", "CNOT"]

    def test_parameterized_gate(self):
        circuit = parse_qasm("qubits 1\nrz(0.5) q0\n")
        assert circuit.gates[0].params == (0.5,)

    def test_comments_and_blank_lines(self):
        text = "# header\n\nqubits 1\n# mid comment\nh q0  # trailing\n"
        circuit = parse_qasm(text)
        assert len(circuit) == 1

    def test_bare_integer_qubits(self):
        circuit = parse_qasm("qubits 2\ncnot 0, 1\n")
        assert circuit.gates[0].qubits == (0, 1)

    def test_gate_aliases(self):
        circuit = parse_qasm("qubits 3\ncx q0, q1\nccx q0, q1, q2\n")
        assert [g.name for g in circuit] == ["CNOT", "TOFFOLI"]

    def test_missing_qubits_directive(self):
        with pytest.raises(QasmError):
            parse_qasm("h q0\n")

    def test_empty_text(self):
        with pytest.raises(QasmError):
            parse_qasm("")

    def test_duplicate_qubits_directive(self):
        with pytest.raises(QasmError):
            parse_qasm("qubits 2\nqubits 3\n")

    def test_unknown_gate(self):
        with pytest.raises(QasmError):
            parse_qasm("qubits 1\nfrobnicate q0\n")

    def test_bad_parameter(self):
        with pytest.raises(QasmError):
            parse_qasm("qubits 1\nrz(abc) q0\n")

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("rz q1, q2", "RZ takes 1 qubit(s) and 1 angle(s), got 2 and 0"),
            ("cphase q0, q1, q2", "CPHASE takes 2 qubit(s) and 1 angle(s)"),
            ("cx q0, q1, q2", "CX takes 2 qubit(s) and 0 angle(s)"),
            ("rz(nan) q0", "RZ needs a finite angle"),
            ("rzz(-inf) q0, q1", "RZZ needs a finite angle"),
        ],
    )
    def test_gate_the_library_cannot_build_as_written(self, line, expected):
        """No qubit is read as an angle, and no angle may be non-finite."""
        with pytest.raises(QasmError, match=re.escape(f"line 2: {expected}")):
            parse_qasm(f"qubits 3\n{line}\n")

    def test_bad_qubit_token(self):
        with pytest.raises(QasmError):
            parse_qasm("qubits 1\nh qq\n")

    def test_out_of_range_qubit(self):
        with pytest.raises(CircuitError):
            parse_qasm("qubits 1\nh q5\n").unitary()


class TestRoundTrip:
    def test_simple_round_trip(self):
        original = Circuit(3).h(0).cnot(0, 1).rz(0.25, 2).swap(1, 2)
        parsed = parse_qasm(circuit_to_qasm(original))
        assert parsed.num_qubits == original.num_qubits
        assert [g.name for g in parsed] == [g.name for g in original]
        assert np.allclose(parsed.unitary(), original.unitary())

    @given(
        thetas=st.lists(
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_parameter_precision_survives(self, thetas):
        original = Circuit(2)
        for i, theta in enumerate(thetas):
            original.rz(theta, i % 2)
        parsed = parse_qasm(circuit_to_qasm(original))
        for parsed_gate, original_gate in zip(parsed, original):
            assert parsed_gate.params == original_gate.params

    def test_round_trip_with_multi_qubit_gates(self):
        original = Circuit(4).toffoli(0, 1, 2).cphase(1.5, 2, 3).rzz(0.7, 0, 3)
        parsed = parse_qasm(circuit_to_qasm(original))
        assert np.allclose(parsed.unitary(), original.unitary())
