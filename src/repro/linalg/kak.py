"""Cartan (KAK) decomposition of two-qubit unitaries and Weyl coordinates.

Any two-qubit unitary factors as::

    U = exp(i alpha) * (k1a (x) k1b) * CAN(c1, c2, c3) * (k2a (x) k2b)

with single-qubit ``k`` factors and the canonical interaction part
``CAN(c) = exp(i * (c1 XX + c2 YY + c3 ZZ))``.  The coordinates ``c`` (the
*Weyl coordinates*, defined up to a discrete symmetry group) capture the
entangling content of the gate; under this convention CNOT/CZ sit at
``(pi/4, 0, 0)``, iSWAP at ``(pi/4, pi/4, 0)`` and SWAP at
``(pi/4, pi/4, pi/4)``.

The analytic latency model uses :func:`interaction_time`: the provably
minimal time to realize a canonical class with an XY (iSWAP-type) coupling
of angular rate ``g`` and fast local rotations.  Piecewise-constant XY
evolution segments, conjugated by free local Cliffords, add contributions
``(g*t/2) * d`` with direction ``d`` any signed pair ``(+-e_i +- e_j)``;
because XX, YY and ZZ commute, contributions are additive in ``c`` space,
so the minimal total time is a tiny linear program whose closed form is::

    T(c) = (2/g) * max(c_max, (c1 + c2 + c3) / 2)

minimized over the discrete symmetry orbit of ``c``.  This reproduces the
known constructions: iSWAP and CNOT both need ``pi/(2g)`` and SWAP needs
``3*pi/(4g)`` (Schuch & Siewert 2003).
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math

import numpy as np

from repro.errors import LinalgError
from repro.linalg.paulis import pauli_string
from repro.linalg.predicates import is_unitary

HALF_PI = math.pi / 2.0
QUARTER_PI = math.pi / 4.0

# Magic (Bell) basis: SU(2) x SU(2) becomes SO(4) in this basis.
MAGIC = np.array(
    [
        [1.0, 0.0, 0.0, 1.0j],
        [0.0, 1.0j, 1.0, 0.0],
        [0.0, 1.0j, -1.0, 0.0],
        [1.0, 0.0, 0.0, -1.0j],
    ],
    dtype=complex,
) / math.sqrt(2.0)
MAGIC_DAG = MAGIC.conj().T


def _diagonal_signs(label: str) -> np.ndarray:
    transformed = MAGIC_DAG @ pauli_string(label) @ MAGIC
    diagonal = np.real(np.diag(transformed))
    if not np.allclose(transformed, np.diag(diagonal), atol=1e-12):
        raise LinalgError(f"{label} is not diagonal in the magic basis")
    return diagonal


# Rows of the 4x3 sign matrix: theta_k = (SIGNS @ c)_k for CAN(c) in the
# magic basis.  Columns are orthogonal with squared norm 4, and each sums
# to zero, so SIGNS.T @ theta / 4 inverts exactly on zero-sum vectors.
SIGNS = np.column_stack(
    [_diagonal_signs("XX"), _diagonal_signs("YY"), _diagonal_signs("ZZ")]
)


def canonical_gate(coordinates) -> np.ndarray:
    """``CAN(c) = exp(i (c1 XX + c2 YY + c3 ZZ))`` as a 4x4 matrix."""
    c = np.asarray(coordinates, dtype=float)
    if c.shape != (3,):
        raise LinalgError(f"expected 3 Weyl coordinates, got shape {c.shape}")
    phases = np.exp(1j * (SIGNS @ c))
    return MAGIC @ np.diag(phases) @ MAGIC_DAG


def makhlin_invariants(matrix: np.ndarray) -> tuple[complex, float]:
    """Local invariants ``(g1 + i g2, g3)`` of a two-qubit unitary.

    Two unitaries are locally equivalent (same Weyl chamber point) if and
    only if their Makhlin invariants agree.
    """
    u = _require_two_qubit_unitary(matrix)
    u = u / np.linalg.det(u) ** 0.25
    m = MAGIC_DAG @ u @ MAGIC
    gram = m.T @ m
    trace = np.trace(gram)
    g12 = trace**2 / 16.0
    g3 = (trace**2 - np.trace(gram @ gram)) / 4.0
    return complex(g12), float(np.real(g3))


@dataclasses.dataclass(frozen=True)
class WeylDecomposition:
    """Full KAK factorization ``U = phase * (k1a x k1b) CAN(c) (k2a x k2b)``.

    ``coordinates`` are the *raw* (non-canonicalized) Weyl coordinates of
    the middle factor; use :attr:`canonical_coordinates` for the chamber
    representative.
    """

    phase: complex
    k1a: np.ndarray
    k1b: np.ndarray
    coordinates: np.ndarray
    k2a: np.ndarray
    k2b: np.ndarray

    @property
    def canonical_coordinates(self) -> np.ndarray:
        return canonicalize_coordinates(self.coordinates)

    def reconstruct(self) -> np.ndarray:
        """Multiply the factors back together."""
        left = np.kron(self.k1a, self.k1b)
        right = np.kron(self.k2a, self.k2b)
        return self.phase * (left @ canonical_gate(self.coordinates) @ right)

    @property
    def local_rotation_content(self) -> tuple[float, float]:
        """Total local rotation angle on each qubit (pre + post factors).

        Measured modulo Pauli corrections.  Diagnostic only: for canonical
        classes with degenerate Weyl spectra (CNOT, SWAP, ...) the KAK
        factorization is not unique and this value depends on the
        eigenbasis chosen, so the latency model does not consume it; it
        charges local cost from explicit single-qubit circuit structure
        instead.
        """
        from repro.linalg.su2 import pauli_reduced_rotation_content

        qubit_a = pauli_reduced_rotation_content(
            self.k1a
        ) + pauli_reduced_rotation_content(self.k2a)
        qubit_b = pauli_reduced_rotation_content(
            self.k1b
        ) + pauli_reduced_rotation_content(self.k2b)
        return qubit_a, qubit_b


def weyl_decomposition(matrix: np.ndarray, atol: float = 1e-7) -> WeylDecomposition:
    """Compute the full KAK decomposition of a two-qubit unitary."""
    u = _require_two_qubit_unitary(matrix)
    det = np.linalg.det(u)
    gamma = det ** 0.25
    u4 = u / gamma

    m = MAGIC_DAG @ u4 @ MAGIC
    gram = m.T @ m
    q = _orthogonal_diagonalizer(gram)

    # Per-column phase extraction: v_k = m q_k satisfies v^T v = exp(2i t_k)
    # and exp(-i t_k) v_k is a real unit vector.
    v = m @ q
    thetas = np.zeros(4)
    p = np.zeros((4, 4))
    for k in range(4):
        column = v[:, k]
        bilinear = column @ column
        theta = cmath.phase(bilinear) / 2.0
        real_column = column * cmath.exp(-1j * theta)
        if np.linalg.norm(np.imag(real_column)) > np.linalg.norm(
            np.real(real_column)
        ):
            # Wrong half-branch: rotate by pi to land on the real axis.
            theta += math.pi
            real_column = column * cmath.exp(-1j * theta)
        if np.linalg.norm(np.imag(real_column)) > 1e-5:
            raise LinalgError("KAK column did not become real; ill-conditioned input")
        thetas[k] = theta
        p[:, k] = np.real(real_column)

    # Fix determinants so both orthogonal factors are rotations.
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
        p[:, 0] = -p[:, 0]
    if np.linalg.det(p) < 0:
        p[:, 0] = -p[:, 0]
        thetas[0] += math.pi

    # det(D) must be +1 so the phases lie in the span of SIGNS exactly.
    total = float(np.sum(thetas))
    shift = round(total / (2.0 * math.pi))
    if shift:
        thetas[int(np.argmax(thetas))] -= 2.0 * math.pi * shift
    coordinates = SIGNS.T @ thetas / 4.0
    residual = SIGNS @ coordinates - thetas
    if np.max(np.abs(residual)) > 1e-6:
        raise LinalgError("KAK phase vector is not representable; numerical failure")

    k1 = MAGIC @ p @ MAGIC_DAG
    k2 = MAGIC @ q.T @ MAGIC_DAG
    k1a, k1b = _factor_tensor_product(k1)
    k2a, k2b = _factor_tensor_product(k2)

    decomposition = WeylDecomposition(
        phase=complex(gamma),
        k1a=k1a,
        k1b=k1b,
        coordinates=coordinates,
        k2a=k2a,
        k2b=k2b,
    )
    if np.max(np.abs(decomposition.reconstruct() - u)) > max(atol, 1e-6):
        raise LinalgError("KAK reconstruction mismatch; numerical failure")
    return decomposition


def weyl_coordinates(matrix: np.ndarray) -> np.ndarray:
    """Canonical (Weyl-chamber) coordinates of a two-qubit unitary.

    Cheaper than the full decomposition: only the eigenphases of the
    magic-basis Gram matrix are needed.
    """
    u = _require_two_qubit_unitary(matrix)
    u4 = u / np.linalg.det(u) ** 0.25
    m = MAGIC_DAG @ u4 @ MAGIC
    gram = m.T @ m
    try:
        eigenvalues = np.linalg.eigvals(gram)
    except np.linalg.LinAlgError:
        # LAPACK can fail to converge on a Gram matrix that is diagonal
        # up to ~1e-17 noise (a SWAP with diagonal phases gives -i*I);
        # zeroing the noise only on this path keeps every converging
        # input bit-identical.
        gram = np.where(np.abs(gram) < 1e-12, 0.0, gram)
        eigenvalues = np.linalg.eigvals(gram)
    thetas = np.angle(eigenvalues) / 2.0
    # The eigenphase vector must sum to zero (mod pi branch adjustments) to
    # lie in the span of SIGNS; repair the branch cuts.
    total = float(np.sum(thetas))
    shift = round(total / math.pi)
    if shift:
        order = np.argsort(thetas)[::-1] if shift > 0 else np.argsort(thetas)
        step = math.pi if shift < 0 else -math.pi
        for index in order[: abs(shift)]:
            thetas[index] += step
    coordinates = SIGNS.T @ thetas / 4.0
    return canonicalize_coordinates(coordinates)


# Each transform is a signed permutation matrix with an even number of
# negative signs — the Weyl-chamber symmetry group modulo pi/2 shifts.
_ORBIT_TRANSFORMS = np.array(
    [
        [
            [sign[row] if permutation[row] == col else 0.0 for col in range(3)]
            for row in range(3)
        ]
        for permutation in itertools.permutations(range(3))
        for sign in (
            (1.0, 1.0, 1.0),
            (-1.0, -1.0, 1.0),
            (-1.0, 1.0, -1.0),
            (1.0, -1.0, -1.0),
        )
    ]
)


def weyl_orbit(coordinates) -> list[np.ndarray]:
    """Distinct sorted representatives of the discrete symmetry orbit.

    The class-preserving moves are coordinate permutations, sign flips on
    pairs of coordinates, and shifts by pi/2; every representative returned
    has components wrapped into ``[0, pi/2)`` and sorted descending.
    """
    c = np.asarray(coordinates, dtype=float)
    if c.shape != (3,):
        raise LinalgError(f"expected 3 Weyl coordinates, got shape {c.shape}")
    candidates = np.mod(_ORBIT_TRANSFORMS @ c, HALF_PI)
    candidates[candidates > HALF_PI - 1e-9] = 0.0
    candidates = -np.sort(-candidates, axis=1)
    keys = np.round(candidates, 9)
    _, unique_indices = np.unique(keys, axis=0, return_index=True)
    ordered = sorted(unique_indices, key=lambda i: tuple(keys[i]))
    return [candidates[i] for i in ordered]


def canonicalize_coordinates(coordinates) -> np.ndarray:
    """Deterministic chamber representative: the lexicographically smallest
    sorted orbit element."""
    return weyl_orbit(coordinates)[0]


def interaction_time(target, coupling_rate: float) -> float:
    """Minimal XY-coupling busy time (ns) to realize a two-qubit unitary.

    ``target`` is either a 4x4 unitary or a 3-vector of Weyl coordinates;
    ``coupling_rate`` is the angular rate ``2*pi*mu_max`` in rad/ns.
    """
    if coupling_rate <= 0:
        raise LinalgError("coupling_rate must be positive")
    target = np.asarray(target)
    if target.shape == (4, 4):
        coordinates = weyl_coordinates(target)
    elif target.shape == (3,):
        coordinates = target.astype(float)
    else:
        raise LinalgError(
            "interaction_time expects a 4x4 unitary or 3 Weyl coordinates"
        )
    best = math.inf
    for representative in weyl_orbit(coordinates):
        c1 = float(representative[0])
        total = float(np.sum(representative))
        best = min(best, max(c1, total / 2.0))
    return 2.0 * best / coupling_rate


def _require_two_qubit_unitary(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (4, 4):
        raise LinalgError(f"expected a 4x4 matrix, got shape {matrix.shape}")
    if not is_unitary(matrix, atol=1e-6):
        raise LinalgError("expected a unitary 4x4 matrix")
    return matrix


def _orthogonal_diagonalizer(gram: np.ndarray) -> np.ndarray:
    """Real orthogonal Q with Q^T gram Q diagonal, for symmetric unitary gram.

    ``Re(gram)`` and ``Im(gram)`` are commuting real symmetric matrices, so
    they can be diagonalized simultaneously: diagonalize the real part,
    then diagonalize the imaginary part restricted to each degenerate
    eigenspace.
    """
    real_part = np.real(gram)
    imag_part = np.imag(gram)
    real_part = (real_part + real_part.T) / 2.0
    imag_part = (imag_part + imag_part.T) / 2.0
    eigenvalues, q = np.linalg.eigh(real_part)
    # Refine within degenerate blocks of the real spectrum.
    tolerance = 1e-7
    start = 0
    n = len(eigenvalues)
    while start < n:
        stop = start + 1
        while stop < n and abs(eigenvalues[stop] - eigenvalues[start]) < tolerance:
            stop += 1
        if stop - start > 1:
            block = q[:, start:stop]
            projected = block.T @ imag_part @ block
            projected = (projected + projected.T) / 2.0
            _, rotation = np.linalg.eigh(projected)
            q[:, start:stop] = block @ rotation
        start = stop
    check = q.T @ gram @ q
    off_diagonal = check - np.diag(np.diag(check))
    if np.max(np.abs(off_diagonal)) > 1e-5:
        raise LinalgError("failed to diagonalize magic-basis Gram matrix")
    return q


def _factor_tensor_product(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a unitary known to be ``A (x) B`` into its 2x2 factors."""
    tensor = matrix.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(tensor)
    if s[1] > 1e-5:
        raise LinalgError("matrix is not a tensor product of single-qubit gates")
    scale = math.sqrt(s[0])
    a = (u[:, 0] * scale).reshape(2, 2)
    b = (vh[0, :] * scale).reshape(2, 2)
    return a, b
