"""Constructors for the logical and physical gate sets.

The logical ISA matches the paper's standard set (Sec. 2.2): rotations
``Rx/Ry/Rz``, Hadamard, CNOT, plus the common Cliffords and Toffoli for
benchmark synthesis.  The physical set for the superconducting XY
architecture (Appendix A) is ``iSWAP`` (and its square root); ``CPhase``
and ``RZZ`` appear as physical gates of other platforms and as convenient
intermediate instructions.

Conventions: big-endian qubit order (qubit 0 = most significant index bit);
controls come first in multi-qubit gate signatures;
``Rz(t) = diag(e^{-it/2}, e^{it/2})``.

Every factory builds its gate through
:func:`~repro.gates.gate._trusted_gate`, which skips the unitarity check
``Gate(...)`` runs: each matrix here is unitary by construction, given a
finite angle, so a factory refuses a non-finite angle with
:class:`~repro.errors.GateError` before it builds the matrix.  The tests
check every mnemonic's matrix for unitarity over a range of angles in
place of the check at run time.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable

import numpy as np

from repro.errors import GateError
from repro.gates.gate import Gate, _trusted_gate
from repro.linalg.su2 import rx_matrix, ry_matrix, rz_matrix

_SQRT2 = math.sqrt(2.0)

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2
_S = np.diag([1.0, 1.0j]).astype(complex)
_SDG = np.diag([1.0, -1.0j]).astype(complex)
_T = np.diag([1.0, cmath.exp(1j * math.pi / 4)]).astype(complex)
_TDG = np.diag([1.0, cmath.exp(-1j * math.pi / 4)]).astype(complex)

_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_ISWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_SQRT_ISWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 1 / _SQRT2, 1j / _SQRT2, 0],
        [0, 1j / _SQRT2, 1 / _SQRT2, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

_TOFFOLI = np.eye(8, dtype=complex)
_TOFFOLI[[6, 7], :] = _TOFFOLI[[7, 6], :]
_CCZ = np.diag([1.0] * 7 + [-1.0]).astype(complex)
_FREDKIN = np.eye(8, dtype=complex)
_FREDKIN[[5, 6], :] = _FREDKIN[[6, 5], :]


def _angle(name: str, theta: float) -> float:
    """``theta`` as a float, refused unless finite.

    Called before the matrix is built: a non-finite angle would build a
    NaN matrix (or raise ``ValueError`` in ``math.cos``).
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise GateError(f"{name} needs a finite angle, got {theta!r}")
    return theta


def I(qubit: int) -> Gate:  # noqa: E743 - conventional gate name
    """Identity gate (used as the virtual GDG root)."""
    return _trusted_gate("I", (qubit,), _I)


def X(qubit: int) -> Gate:
    """Pauli X (NOT)."""
    return _trusted_gate("X", (qubit,), _X)


def Y(qubit: int) -> Gate:
    """Pauli Y."""
    return _trusted_gate("Y", (qubit,), _Y)


def Z(qubit: int) -> Gate:
    """Pauli Z."""
    return _trusted_gate("Z", (qubit,), _Z)


def H(qubit: int) -> Gate:
    """Hadamard."""
    return _trusted_gate("H", (qubit,), _H)


def S(qubit: int) -> Gate:
    """Phase gate ``diag(1, i)``."""
    return _trusted_gate("S", (qubit,), _S)


def SDG(qubit: int) -> Gate:
    """Inverse phase gate ``diag(1, -i)``."""
    return _trusted_gate("SDG", (qubit,), _SDG)


def T(qubit: int) -> Gate:
    """T gate ``diag(1, e^{i pi/4})``."""
    return _trusted_gate("T", (qubit,), _T)


def TDG(qubit: int) -> Gate:
    """Inverse T gate."""
    return _trusted_gate("TDG", (qubit,), _TDG)


def RX(theta: float, qubit: int) -> Gate:
    """Rotation about x by ``theta``."""
    theta = _angle("RX", theta)
    return _trusted_gate("RX", (qubit,), rx_matrix(theta), (theta,))


def RY(theta: float, qubit: int) -> Gate:
    """Rotation about y by ``theta``."""
    theta = _angle("RY", theta)
    return _trusted_gate("RY", (qubit,), ry_matrix(theta), (theta,))


def RZ(theta: float, qubit: int) -> Gate:
    """Rotation about z by ``theta``."""
    theta = _angle("RZ", theta)
    return _trusted_gate("RZ", (qubit,), rz_matrix(theta), (theta,))


def PHASE(theta: float, qubit: int) -> Gate:
    """``diag(1, e^{i theta})`` (Rz up to global phase)."""
    theta = _angle("PHASE", theta)
    matrix = np.diag([1.0, cmath.exp(1j * theta)])
    return _trusted_gate("PHASE", (qubit,), matrix, (theta,))


def CNOT(control: int, target: int) -> Gate:
    """Controlled NOT."""
    return _trusted_gate("CNOT", (control, target), _CNOT)


def CZ(control: int, target: int) -> Gate:
    """Controlled Z (symmetric)."""
    return _trusted_gate("CZ", (control, target), _CZ)


def CPHASE(theta: float, control: int, target: int) -> Gate:
    """Controlled phase ``diag(1, 1, 1, e^{i theta})``."""
    theta = _angle("CPHASE", theta)
    matrix = np.diag([1.0, 1.0, 1.0, cmath.exp(1j * theta)]).astype(complex)
    return _trusted_gate("CPHASE", (control, target), matrix, (theta,))


def SWAP(qubit_a: int, qubit_b: int) -> Gate:
    """SWAP (kept as a first-class gate with its own optimized pulse)."""
    return _trusted_gate("SWAP", (qubit_a, qubit_b), _SWAP)


def ISWAP(qubit_a: int, qubit_b: int) -> Gate:
    """iSWAP: the natural physical gate of the XY architecture."""
    return _trusted_gate("ISWAP", (qubit_a, qubit_b), _ISWAP)


def SQRT_ISWAP(qubit_a: int, qubit_b: int) -> Gate:
    """Square root of iSWAP."""
    return _trusted_gate("SQRT_ISWAP", (qubit_a, qubit_b), _SQRT_ISWAP)


def RZZ(theta: float, qubit_a: int, qubit_b: int) -> Gate:
    """``exp(-i theta/2 Z(x)Z)``: the diagonal instruction produced by
    contracting CNOT-Rz-CNOT chains."""
    theta = _angle("RZZ", theta)
    phase = np.exp(-1j * theta / 2.0 * np.array([1.0, -1.0, -1.0, 1.0]))
    return _trusted_gate("RZZ", (qubit_a, qubit_b), np.diag(phase), (theta,))


def TOFFOLI(control_a: int, control_b: int, target: int) -> Gate:
    """Doubly-controlled NOT."""
    return _trusted_gate("TOFFOLI", (control_a, control_b, target), _TOFFOLI)


def CCZ(qubit_a: int, qubit_b: int, qubit_c: int) -> Gate:
    """Doubly-controlled Z (symmetric)."""
    return _trusted_gate("CCZ", (qubit_a, qubit_b, qubit_c), _CCZ)


def FREDKIN(control: int, target_a: int, target_b: int) -> Gate:
    """Controlled SWAP."""
    return _trusted_gate("FREDKIN", (control, target_a, target_b), _FREDKIN)


#: Every mnemonic :func:`gate_from_name` accepts: its factory and the
#: number of qubits and of angles the factory takes.
_BY_NAME: dict[str, tuple[Callable[..., Gate], int, int]] = {
    "I": (I, 1, 0),
    "X": (X, 1, 0),
    "Y": (Y, 1, 0),
    "Z": (Z, 1, 0),
    "H": (H, 1, 0),
    "S": (S, 1, 0),
    "SDG": (SDG, 1, 0),
    "T": (T, 1, 0),
    "TDG": (TDG, 1, 0),
    "RX": (RX, 1, 1),
    "RY": (RY, 1, 1),
    "RZ": (RZ, 1, 1),
    "PHASE": (PHASE, 1, 1),
    "CNOT": (CNOT, 2, 0),
    "CX": (CNOT, 2, 0),
    "CZ": (CZ, 2, 0),
    "CPHASE": (CPHASE, 2, 1),
    "SWAP": (SWAP, 2, 0),
    "ISWAP": (ISWAP, 2, 0),
    "SQRT_ISWAP": (SQRT_ISWAP, 2, 0),
    "RZZ": (RZZ, 2, 1),
    "TOFFOLI": (TOFFOLI, 3, 0),
    "CCX": (TOFFOLI, 3, 0),
    "CCZ": (CCZ, 3, 0),
    "FREDKIN": (FREDKIN, 3, 0),
    "CSWAP": (FREDKIN, 3, 0),
}


def gate_from_name(name: str, qubits, params=()) -> Gate:
    """Generic constructor used by the QASM parser and the wire decoder.

    Args:
        name: Case-insensitive gate mnemonic.
        qubits: Qubit positions, controls first.
        params: Rotation angles for parameterized gates.

    Raises:
        GateError: for an unknown mnemonic, a qubit that is not an
            integer, or a count of qubits or of angles the mnemonic does
            not take (checked before the factory runs, so an angle is
            never read as a qubit or the reverse).
    """
    key = name.upper()
    entry = _BY_NAME.get(key)
    if entry is None:
        raise GateError(f"unknown gate name {name!r}")
    factory, num_qubits, num_angles = entry
    qubits = tuple(qubits)
    params = tuple(float(p) for p in params)
    if len(qubits) != num_qubits or len(params) != num_angles:
        raise GateError(
            f"{key} takes {num_qubits} qubit(s) and {num_angles} angle(s), "
            f"got {len(qubits)} and {len(params)}"
        )
    return factory(*params, *qubits)


def known_gate_names() -> frozenset[str]:
    """All mnemonics accepted by :func:`gate_from_name`."""
    return frozenset(_BY_NAME)
