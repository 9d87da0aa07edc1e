"""Tests for the gate library."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GateError
from repro.gates import library as lib
from repro.linalg.predicates import allclose_up_to_global_phase, is_unitary

#: What each mnemonic takes: (qubits, angles).
ARITY = {
    "I": (1, 0), "X": (1, 0), "Y": (1, 0), "Z": (1, 0), "H": (1, 0),
    "S": (1, 0), "SDG": (1, 0), "T": (1, 0), "TDG": (1, 0),
    "RX": (1, 1), "RY": (1, 1), "RZ": (1, 1), "PHASE": (1, 1),
    "CNOT": (2, 0), "CX": (2, 0), "CZ": (2, 0), "CPHASE": (2, 1),
    "SWAP": (2, 0), "ISWAP": (2, 0), "SQRT_ISWAP": (2, 0), "RZZ": (2, 1),
    "TOFFOLI": (3, 0), "CCX": (3, 0), "CCZ": (3, 0),
    "FREDKIN": (3, 0), "CSWAP": (3, 0),
}

ANGLED_FACTORIES = [lib.RX, lib.RY, lib.RZ, lib.PHASE, lib.CPHASE, lib.RZZ]

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestMatrices:
    def test_all_no_param_gates_are_unitary(self):
        gates = [
            lib.I(0), lib.X(0), lib.Y(0), lib.Z(0), lib.H(0), lib.S(0),
            lib.SDG(0), lib.T(0), lib.TDG(0), lib.CNOT(0, 1), lib.CZ(0, 1),
            lib.SWAP(0, 1), lib.ISWAP(0, 1), lib.SQRT_ISWAP(0, 1),
            lib.TOFFOLI(0, 1, 2), lib.CCZ(0, 1, 2), lib.FREDKIN(0, 1, 2),
        ]
        for gate in gates:
            assert is_unitary(gate.matrix), gate.name

    @pytest.mark.parametrize("name", sorted(ARITY))
    @settings(max_examples=40, deadline=None)
    @given(angle=st.floats(min_value=-1e6, max_value=1e6))
    def test_every_library_matrix_is_unitary(self, name, angle):
        """Library gates skip the run-time unitarity check, so every
        mnemonic's matrix is checked here, over finite angles."""
        num_qubits, num_angles = ARITY[name]
        gate = lib.gate_from_name(name, range(num_qubits), [angle] * num_angles)
        assert is_unitary(gate.matrix, atol=1e-7), gate

    def test_arity_table_covers_every_mnemonic(self):
        assert set(ARITY) == lib.known_gate_names()

    def test_cnot_truth_table(self):
        cnot = lib.CNOT(0, 1).matrix
        # |10> -> |11>, |11> -> |10>
        assert cnot[0b11, 0b10] == 1.0
        assert cnot[0b10, 0b11] == 1.0
        assert cnot[0b00, 0b00] == 1.0

    def test_toffoli_truth_table(self):
        toffoli = lib.TOFFOLI(0, 1, 2).matrix
        assert toffoli[0b111, 0b110] == 1.0
        assert toffoli[0b110, 0b111] == 1.0
        assert toffoli[0b101, 0b101] == 1.0

    def test_fredkin_swaps_targets(self):
        fredkin = lib.FREDKIN(0, 1, 2).matrix
        assert fredkin[0b110, 0b101] == 1.0
        assert fredkin[0b101, 0b110] == 1.0
        assert fredkin[0b010, 0b010] == 1.0

    def test_sqrt_iswap_squares_to_iswap(self):
        sqrt = lib.SQRT_ISWAP(0, 1).matrix
        assert np.allclose(sqrt @ sqrt, lib.ISWAP(0, 1).matrix, atol=1e-12)

    def test_s_squares_to_z(self):
        s = lib.S(0).matrix
        assert np.allclose(s @ s, lib.Z(0).matrix)

    def test_t_squares_to_s(self):
        t = lib.T(0).matrix
        assert np.allclose(t @ t, lib.S(0).matrix)

    def test_h_conjugates_x_to_z(self):
        h = lib.H(0).matrix
        assert np.allclose(h @ lib.X(0).matrix @ h, lib.Z(0).matrix, atol=1e-12)

    def test_rz_pi_is_z_up_to_phase(self):
        assert allclose_up_to_global_phase(
            lib.RZ(math.pi, 0).matrix, lib.Z(0).matrix
        )

    def test_rx_pi_is_x_up_to_phase(self):
        assert allclose_up_to_global_phase(
            lib.RX(math.pi, 0).matrix, lib.X(0).matrix
        )

    def test_phase_matches_rz_up_to_phase(self):
        assert allclose_up_to_global_phase(
            lib.PHASE(0.7, 0).matrix, lib.RZ(0.7, 0).matrix
        )

    def test_cphase_pi_is_cz(self):
        assert np.allclose(lib.CPHASE(math.pi, 0, 1).matrix, lib.CZ(0, 1).matrix)

    def test_rzz_diagonal_phases(self):
        theta = 0.62
        rzz = lib.RZZ(theta, 0, 1).matrix
        assert rzz[0, 0] == pytest.approx(np.exp(-1j * theta / 2))
        assert rzz[1, 1] == pytest.approx(np.exp(1j * theta / 2))


class TestGateFromName:
    def test_simple_gate(self):
        gate = lib.gate_from_name("h", [3])
        assert gate.name == "H" and gate.qubits == (3,)

    def test_aliases(self):
        assert lib.gate_from_name("cx", [0, 1]).name == "CNOT"
        assert lib.gate_from_name("ccx", [0, 1, 2]).name == "TOFFOLI"
        assert lib.gate_from_name("cswap", [0, 1, 2]).name == "FREDKIN"

    def test_parameterized_gate(self):
        gate = lib.gate_from_name("rz", [2], [0.5])
        assert gate.name == "RZ" and gate.params == (0.5,)

    def test_unknown_name_rejected(self):
        with pytest.raises(GateError):
            lib.gate_from_name("FROBNICATE", [0])

    def test_unexpected_params_rejected(self):
        with pytest.raises(GateError):
            lib.gate_from_name("H", [0], [0.5])

    @pytest.mark.parametrize(
        "name, qubits, params",
        [
            ("RZ", [3, 4], []),  # was RZ(3)[4]
            ("rz", [1, 2], []),  # was RZ(1)[2]
            ("cphase", [0, 1, 2], []),  # was CPHASE(0)[1, 2]
            ("cx", [0, 1, 2], []),  # was a TypeError from CNOT()
            ("rz", [0], [0.1, 0.2]),
            ("rzz", [0], [0.1]),
        ],
    )
    def test_wrong_counts_rejected_by_name(self, name, qubits, params):
        with pytest.raises(GateError, match=name.upper()):
            lib.gate_from_name(name, qubits, params)

    @pytest.mark.parametrize("name", sorted(ARITY))
    def test_one_qubit_too_many_or_too_few_rejected(self, name):
        num_qubits, num_angles = ARITY[name]
        angles = [0.5] * num_angles
        for count in (num_qubits - 1, num_qubits + 1):
            with pytest.raises(GateError, match="takes"):
                lib.gate_from_name(name, range(count), angles)

    def test_known_gate_names_nonempty(self):
        names = lib.known_gate_names()
        assert "CNOT" in names and "RZ" in names


class TestNonFiniteAngles:
    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    @pytest.mark.parametrize(
        "factory", ANGLED_FACTORIES, ids=lambda factory: factory.__name__
    )
    def test_factory_rejects(self, factory, value):
        qubits = range(ARITY[factory.__name__][0])
        with pytest.raises(GateError, match=f"{factory.__name__} needs a finite"):
            factory(value, *qubits)

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_gate_from_name_rejects(self, value):
        with pytest.raises(GateError, match="RZ needs a finite"):
            lib.gate_from_name("rz", [0], [value])
