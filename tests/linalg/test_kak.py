"""Tests for the KAK / Weyl-chamber decomposition."""

import math

import numpy as np
import pytest

from repro.errors import LinalgError
from repro.linalg.kak import (
    canonical_gate,
    canonicalize_coordinates,
    interaction_time,
    makhlin_invariants,
    weyl_coordinates,
    weyl_decomposition,
    weyl_orbit,
)
from repro.linalg.random import random_unitary

PI4 = math.pi / 4

CNOT = np.eye(4)[[0, 1, 3, 2]].astype(complex)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)
ISWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _coords_equal(a, b, atol=1e-7):
    return np.allclose(np.sort(a), np.sort(b), atol=atol)


class TestWeylCoordinates:
    @pytest.mark.parametrize(
        "gate,expected",
        [
            (np.eye(4, dtype=complex), (0.0, 0.0, 0.0)),
            (CNOT, (PI4, 0.0, 0.0)),
            (CZ, (PI4, 0.0, 0.0)),
            (SWAP, (PI4, PI4, PI4)),
            (ISWAP, (PI4, PI4, 0.0)),
        ],
        ids=["identity", "cnot", "cz", "swap", "iswap"],
    )
    def test_known_gates(self, gate, expected):
        assert _coords_equal(weyl_coordinates(gate), expected)

    def test_local_gates_have_zero_coordinates(self, rng):
        local = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        assert _coords_equal(weyl_coordinates(local), (0.0, 0.0, 0.0))

    def test_invariant_under_local_conjugation(self, rng):
        for _ in range(10):
            u = random_unitary(4, rng)
            left = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            right = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            assert _coords_equal(
                weyl_coordinates(u), weyl_coordinates(left @ u @ right)
            )

    def test_invariant_under_global_phase(self, rng):
        u = random_unitary(4, rng)
        assert _coords_equal(
            weyl_coordinates(u), weyl_coordinates(np.exp(0.31j) * u)
        )

    def test_canonical_gate_round_trip(self, rng):
        for _ in range(10):
            u = random_unitary(4, rng)
            c = weyl_coordinates(u)
            assert _coords_equal(weyl_coordinates(canonical_gate(c)), c)

    def test_sqrt_iswap_coordinates(self):
        sqrt_iswap = np.array(
            [
                [1, 0, 0, 0],
                [0, 1 / math.sqrt(2), 1j / math.sqrt(2), 0],
                [0, 1j / math.sqrt(2), 1 / math.sqrt(2), 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
        assert _coords_equal(weyl_coordinates(sqrt_iswap), (PI4 / 2, PI4 / 2, 0.0))

    def test_phased_swap_whose_gram_matrix_stalls_the_eigensolver(self):
        """SWAP times diagonal phases, as aggregation of a diagonal-family
        circuit produced it: the magic-basis Gram matrix is -i*I up to
        ~1e-17 noise, on which LAPACK's eigvals does not converge."""
        a = complex(0.47892672663590957, -0.8778548800991043)
        b = a.conjugate()
        gate = np.array(
            [[a, 0, 0, 0], [0, 0, a, 0], [0, b, 0, 0], [0, 0, 0, b]]
        )
        assert _coords_equal(weyl_coordinates(gate), (PI4, PI4, PI4))

    def test_diagonal_gate_survives_an_eigensolver_failure(self, monkeypatch):
        """Whether LAPACK stalls on the noise is build-dependent, so the
        failure is forced: any input carrying sub-1e-12 noise raises."""
        gate = np.diag(np.exp(1j * np.array([0.3, 1.1, -0.4, 2.0])))
        expected = weyl_coordinates(gate)
        real_eigvals = np.linalg.eigvals
        failures = []

        def stalls_on_noise(matrix):
            magnitudes = np.abs(matrix)
            if np.any((magnitudes > 0) & (magnitudes < 1e-12)):
                failures.append(matrix)
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigvals(matrix)

        monkeypatch.setattr(np.linalg, "eigvals", stalls_on_noise)
        assert _coords_equal(weyl_coordinates(gate), expected)
        assert len(failures) == 1

    def test_non_unitary_rejected(self):
        with pytest.raises(LinalgError):
            weyl_coordinates(np.ones((4, 4)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(LinalgError):
            weyl_coordinates(np.eye(8))


class TestMakhlinInvariants:
    def test_cnot_and_cz_share_invariants(self):
        assert makhlin_invariants(CNOT) == pytest.approx(makhlin_invariants(CZ))

    def test_cnot_invariants_value(self):
        g12, g3 = makhlin_invariants(CNOT)
        assert g12 == pytest.approx(0.0)
        assert g3 == pytest.approx(1.0)

    def test_swap_invariants_value(self):
        g12, g3 = makhlin_invariants(SWAP)
        assert g12 == pytest.approx(-1.0)
        assert g3 == pytest.approx(-3.0)

    def test_local_invariance(self, rng):
        u = random_unitary(4, rng)
        locals_ = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        a = makhlin_invariants(u)
        b = makhlin_invariants(locals_ @ u)
        assert a[0] == pytest.approx(b[0], abs=1e-9)
        assert a[1] == pytest.approx(b[1], abs=1e-9)

    def test_canonical_representative_matches(self, rng):
        u = random_unitary(4, rng)
        c = weyl_coordinates(u)
        a = makhlin_invariants(u)
        b = makhlin_invariants(canonical_gate(c))
        assert a[0] == pytest.approx(b[0], abs=1e-7)
        assert a[1] == pytest.approx(b[1], abs=1e-7)


class TestWeylDecomposition:
    def test_reconstruction_known_gates(self):
        for gate in (CNOT, CZ, SWAP, ISWAP, np.eye(4, dtype=complex)):
            decomposition = weyl_decomposition(gate)
            assert np.allclose(decomposition.reconstruct(), gate, atol=1e-8)

    def test_reconstruction_random(self, rng):
        for _ in range(30):
            u = random_unitary(4, rng)
            decomposition = weyl_decomposition(u)
            assert np.allclose(decomposition.reconstruct(), u, atol=1e-7)

    def test_local_factors_are_unitary(self, rng):
        decomposition = weyl_decomposition(random_unitary(4, rng))
        for factor in (
            decomposition.k1a,
            decomposition.k1b,
            decomposition.k2a,
            decomposition.k2b,
        ):
            assert np.allclose(factor @ factor.conj().T, np.eye(2), atol=1e-8)

    def test_local_content_is_finite_and_nonnegative(self):
        # For degenerate classes (CNOT, SWAP) the KAK factorization is not
        # unique, so the local content is only a diagnostic; it must still
        # be a well-formed angle sum.
        for gate in (CNOT, SWAP, ISWAP):
            qubit_a, qubit_b = weyl_decomposition(gate).local_rotation_content
            assert 0.0 <= qubit_a <= 4 * math.pi
            assert 0.0 <= qubit_b <= 4 * math.pi

    def test_pure_canonical_gate_has_clifford_local_factors(self):
        # Decomposing CAN(c) itself can permute the Weyl axes, but the
        # compensating local factors must then be single-qubit Cliffords.
        c = np.array([0.3, 0.2, 0.1])
        decomposition = weyl_decomposition(canonical_gate(c))
        paulis = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.diag([1.0, -1.0]).astype(complex),
        ]
        for factor in (
            decomposition.k1a,
            decomposition.k1b,
            decomposition.k2a,
            decomposition.k2b,
        ):
            for pauli in paulis:
                conjugated = factor @ pauli @ factor.conj().T
                matches = any(
                    np.allclose(conjugated, sign * other, atol=1e-6)
                    for other in paulis
                    for sign in (1.0, -1.0)
                )
                assert matches, "local factor is not a Clifford"

    def test_canonical_coordinates_match_weyl(self, rng):
        u = random_unitary(4, rng)
        assert _coords_equal(
            weyl_decomposition(u).canonical_coordinates, weyl_coordinates(u)
        )


class TestWeylOrbit:
    def test_orbit_contains_canonical(self):
        c = np.array([0.3, 0.2, 0.1])
        orbit = weyl_orbit(c)
        canonical = canonicalize_coordinates(c)
        assert any(np.allclose(rep, canonical) for rep in orbit)

    def test_orbit_elements_are_sorted_and_wrapped(self):
        for rep in weyl_orbit([1.0, 2.0, 3.0]):
            assert np.all(rep >= -1e-12)
            assert np.all(rep < math.pi / 2)
            assert rep[0] >= rep[1] >= rep[2]

    def test_canonicalization_is_idempotent(self, rng):
        c = rng.uniform(0, math.pi / 2, 3)
        once = canonicalize_coordinates(c)
        twice = canonicalize_coordinates(once)
        assert np.allclose(once, twice)


class TestInteractionTime:
    COUPLING = 2 * math.pi * 0.02  # rad/ns at the paper's field limit

    def test_cnot_needs_half_iswap_pair(self):
        # Schuch & Siewert: CNOT needs total XY interaction pi/(2g).
        assert interaction_time(CNOT, self.COUPLING) == pytest.approx(
            math.pi / (2 * self.COUPLING)
        )

    def test_iswap_equals_cnot_time(self):
        assert interaction_time(ISWAP, self.COUPLING) == pytest.approx(
            interaction_time(CNOT, self.COUPLING)
        )

    def test_swap_is_three_halves_of_iswap(self):
        assert interaction_time(SWAP, self.COUPLING) == pytest.approx(
            1.5 * interaction_time(ISWAP, self.COUPLING)
        )

    def test_identity_is_free(self):
        assert interaction_time(np.eye(4, dtype=complex), self.COUPLING) == 0.0

    def test_local_gates_are_free(self, rng):
        local = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        assert interaction_time(local, self.COUPLING) == pytest.approx(0.0, abs=1e-6)

    def test_accepts_coordinates_directly(self):
        direct = interaction_time(np.array([PI4, 0.0, 0.0]), self.COUPLING)
        assert direct == pytest.approx(interaction_time(CNOT, self.COUPLING))

    def test_small_rzz_cheaper_than_cnot(self):
        theta = 0.2
        rzz = np.diag(np.exp(-0.5j * theta * np.array([1, -1, -1, 1])))
        assert interaction_time(rzz, self.COUPLING) < interaction_time(
            CNOT, self.COUPLING
        )

    def test_scales_inversely_with_coupling(self):
        slow = interaction_time(CNOT, self.COUPLING)
        fast = interaction_time(CNOT, 2 * self.COUPLING)
        assert slow == pytest.approx(2 * fast)

    def test_non_positive_rate_rejected(self):
        with pytest.raises(LinalgError):
            interaction_time(CNOT, 0.0)
