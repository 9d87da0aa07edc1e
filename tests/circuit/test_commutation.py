"""Tests for commutation checking — includes the paper's Table 2 relations."""

import pytest

from repro.aggregation.instruction import AggregatedInstruction
from repro.circuit.commutation import CommutationChecker, clear_shared_verdicts
from repro.circuit.dag import GateDependenceGraph
from repro.gates import library as lib
from repro.testing.generators import CIRCUIT_FAMILIES, random_circuit


@pytest.fixture
def checker():
    return CommutationChecker()


class TestTableTwoRelations:
    """The four commutation relations of paper Table 2."""

    def test_gates_on_different_qubits_commute(self, checker):
        assert checker.commute(lib.H(0), lib.X(1))
        assert checker.commute(lib.CNOT(0, 1), lib.CNOT(2, 3))

    def test_control_commutes_with_rz(self, checker):
        # Rz on the control line passes through the control.
        assert checker.commute(lib.RZ(0.7, 0), lib.CNOT(0, 1))

    def test_rz_on_target_does_not_commute(self, checker):
        assert not checker.commute(lib.RZ(0.7, 1), lib.CNOT(0, 1))

    def test_diagonal_gates_commute(self, checker):
        assert checker.commute(lib.RZZ(0.3, 0, 1), lib.RZZ(0.9, 1, 2))
        assert checker.commute(lib.CZ(0, 1), lib.CZ(1, 2))
        assert checker.commute(lib.RZ(0.5, 0), lib.CZ(0, 1))

    def test_cnots_with_disjoint_controls_commute(self, checker):
        # Shared target, different controls.
        assert checker.commute(lib.CNOT(0, 2), lib.CNOT(1, 2))

    def test_cnots_sharing_control_commute(self, checker):
        assert checker.commute(lib.CNOT(0, 1), lib.CNOT(0, 2))

    def test_cnots_control_target_chain_do_not_commute(self, checker):
        assert not checker.commute(lib.CNOT(0, 1), lib.CNOT(1, 2))


class TestExactChecks:
    def test_same_qubit_rotations(self, checker):
        assert checker.commute(lib.RZ(0.1, 0), lib.RZ(0.2, 0))
        assert not checker.commute(lib.RX(0.1, 0), lib.RZ(0.2, 0))

    def test_x_on_target_commutes_with_cnot(self, checker):
        assert checker.commute(lib.X(1), lib.CNOT(0, 1))

    def test_swap_and_symmetric_pair(self, checker):
        # SWAP commutes with a symmetric two-qubit gate on the same pair.
        assert checker.commute(lib.SWAP(0, 1), lib.CZ(0, 1))
        assert checker.commute(lib.SWAP(0, 1), lib.ISWAP(0, 1))

    def test_three_qubit_overlap(self, checker):
        assert checker.commute(lib.CCZ(0, 1, 2), lib.RZ(0.4, 1))
        assert not checker.commute(lib.TOFFOLI(0, 1, 2), lib.H(2))


class TestCacheBehaviour:
    def test_cache_hit_on_structural_repeat(self, checker):
        checker.commute(lib.RZ(0.7, 3), lib.CNOT(3, 4))
        before = checker.exact_checks
        # Same structure on different qubits: should hit the cache.
        verdict = checker.commute(lib.RZ(0.7, 8), lib.CNOT(8, 9))
        assert verdict
        assert checker.exact_checks == before
        assert checker.cache_hits >= 1

    def test_cache_distinguishes_qubit_pattern(self, checker):
        # Rz on control commutes; Rz on target does not — the union
        # pattern differs so both verdicts are computed and cached.
        assert checker.commute(lib.RZ(0.7, 0), lib.CNOT(0, 1))
        assert not checker.commute(lib.RZ(0.7, 1), lib.CNOT(0, 1))

    def test_cache_size_grows(self, checker):
        checker.commute(lib.H(0), lib.X(0))
        assert checker.cache_size() >= 1


def _gate_mix():
    """A three-qubit sequence exercising exact checks, diagonal pairs,
    and disjoint supports — the structural variety one GDG build sees."""
    return [
        lib.H(0),
        lib.CNOT(0, 1),
        lib.RZ(0.3, 1),
        lib.CNOT(0, 1),
        lib.RZZ(0.5, 1, 2),
        lib.CNOT(1, 2),
        lib.X(2),
        lib.CZ(0, 2),
        lib.RZ(0.7, 0),
    ]


class TestSharedVerdictMemo:
    """The process-global memo: verdicts survive across checker instances."""

    def test_fresh_checker_reuses_process_global_verdicts(self):
        clear_shared_verdicts()
        first = CommutationChecker()
        assert first.commute(lib.RZ(0.7, 0), lib.CNOT(0, 1))
        assert first.exact_checks == 1
        second = CommutationChecker()
        assert second.commute(lib.RZ(0.7, 0), lib.CNOT(0, 1))
        assert second.exact_checks == 0
        assert second.shared_hits == 1

    def test_different_tolerances_never_share_a_verdict(self):
        clear_shared_verdicts()
        strict = CommutationChecker()
        strict.commute(lib.RX(0.1, 0), lib.RZ(0.2, 0))
        loose = CommutationChecker(atol=1e-3)
        loose.commute(lib.RX(0.1, 0), lib.RZ(0.2, 0))
        assert loose.shared_hits == 0
        assert loose.exact_checks == 1

    def test_gdg_output_identical_cold_and_warm(self):
        """Regression pin: a GDG built against a primed memo groups its
        nodes exactly like one built with the memo empty."""

        def groups_of(dag, nodes):
            index = {id(node): i for i, node in enumerate(nodes)}
            return [
                [
                    [index[id(member)] for member in group]
                    for group in dag.commutation_groups(q)
                ]
                for q in range(3)
            ]

        clear_shared_verdicts()
        cold_nodes = _gate_mix()
        cold_dag = GateDependenceGraph(
            3, cold_nodes, CommutationChecker().commute
        )
        cold_groups = groups_of(cold_dag, cold_nodes)

        warm_nodes = _gate_mix()
        warm_checker = CommutationChecker()
        warm_dag = GateDependenceGraph(3, warm_nodes, warm_checker.commute)
        assert groups_of(warm_dag, warm_nodes) == cold_groups
        # Every structural question was answered from the shared memo.
        assert warm_checker.exact_checks == 0
        assert warm_checker.shared_hits > 0


class TestConservativeFallback:
    def test_wide_diagonal_operands_commute(self):
        checker = CommutationChecker(exact_qubits=2)

        class WideDiagonal:
            qubits = tuple(range(5))
            is_diagonal = True
            signature = ("WIDE_DIAG",)
            matrix = None

        class OtherDiagonal:
            qubits = tuple(range(3, 8))
            is_diagonal = True
            signature = ("OTHER_DIAG",)
            matrix = None

        assert checker.commute(WideDiagonal(), OtherDiagonal())

    def test_wide_non_diagonal_falls_back_to_false(self):
        checker = CommutationChecker(exact_qubits=2)
        # Three-qubit union exceeds the exact limit of 2 -> conservative.
        assert not checker.commute(lib.CNOT(0, 2), lib.CNOT(1, 2))

    def test_disjoint_always_commutes_even_when_wide(self):
        checker = CommutationChecker(exact_qubits=2)
        assert checker.commute(lib.TOFFOLI(0, 1, 2), lib.TOFFOLI(3, 4, 5))


class TestPairMemo:
    """The per-checker memo keyed by the two nodes themselves."""

    def _cold(self, checker):
        # Empty both structural caches so only the pair memo can answer.
        checker._cache.clear()
        clear_shared_verdicts()

    def test_reversed_query_is_answered_by_the_memo(self, checker):
        rz, cnot = lib.RZ(0.7, 1), lib.CNOT(0, 1)
        assert not checker.commute(rz, cnot)
        self._cold(checker)
        checks, hits = checker.exact_checks, checker.cache_hits
        assert not checker.commute(cnot, rz)
        assert checker.exact_checks == checks
        assert checker.shared_hits == 0
        assert checker.cache_hits == hits + 1

    def test_equal_looking_node_is_a_new_pair(self, checker):
        rz, cnot = lib.RZ(0.7, 1), lib.CNOT(0, 1)
        twin = lib.CNOT(0, 1)
        assert twin.signature == cnot.signature
        checker.commute(rz, cnot)
        self._cold(checker)
        checks = checker.exact_checks
        assert not checker.commute(rz, twin)
        assert checker.exact_checks == checks + 1

    def test_memo_keys_keep_their_nodes_alive(self):
        import gc
        import weakref

        checker = CommutationChecker()
        rz, cnot = lib.RZ(0.7, 1), lib.CNOT(0, 1)
        checker.commute(rz, cnot)
        ref = weakref.ref(rz)
        del rz
        gc.collect()
        # A live key cannot be recycled onto a node created later.
        assert ref() is not None
        del checker
        gc.collect()
        assert ref() is None


class TestVerdictsBeforeMatrices:
    """Within ``exact_qubits`` the checker reads its verdict caches
    before it decides diagonality or builds a matrix, and an aggregated
    instruction's matrix is a dense product of its gates."""

    @staticmethod
    def _blocks(offset):
        return (
            AggregatedInstruction(
                [lib.CNOT(offset, offset + 1), lib.RX(0.4, offset + 1)]
            ),
            AggregatedInstruction(
                [lib.H(offset), lib.CNOT(offset, offset + 1)]
            ),
        )

    def test_a_verdict_hit_builds_no_matrix(self):
        clear_shared_verdicts()
        checker = CommutationChecker()
        first = self._blocks(0)
        verdict = checker.commute(*first)
        assert checker.exact_checks == 1
        assert all("matrix" in node.__dict__ for node in first)

        again = self._blocks(5)
        hits = checker.cache_hits
        assert checker.commute(*again) == verdict
        assert checker.cache_hits == hits + 1
        assert all("matrix" not in node.__dict__ for node in again)

        fresh = CommutationChecker()
        other = self._blocks(9)
        assert fresh.commute(*other) == verdict
        assert fresh.shared_hits == 1
        assert all("matrix" not in node.__dict__ for node in other)

    def test_warm_verdicts_equal_cold_ones(self):
        nodes = []
        for index, family in enumerate(CIRCUIT_FAMILIES):
            gates = random_circuit(5, 12, 4400 + index, family).gates
            nodes.extend(gates[:6])
            nodes.extend(
                AggregatedInstruction(gates[start : start + 3])
                for start in range(0, len(gates) - 2, 2)
            )
        # Retargeted copies repeat every structure with fresh nodes.
        nodes += [node.on(tuple(q + 6 for q in node.qubits)) for node in nodes]
        pairs = [
            (a, b)
            for a in nodes
            for b in nodes
            if a is not b and set(a.qubits) & set(b.qubits)
        ]
        warm = CommutationChecker()
        warm_verdicts = [warm.commute(a, b) for a, b in pairs]
        assert warm.cache_hits > 0

        cold_verdicts = []
        for a, b in pairs:
            clear_shared_verdicts()
            cold_verdicts.append(CommutationChecker().commute(a, b))
        assert warm_verdicts == cold_verdicts
        assert True in cold_verdicts and False in cold_verdicts
