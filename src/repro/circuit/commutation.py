"""Commutation analysis between gates (paper Sec. 3.3, Table 2).

The frontend resolves commutation "by explicitly checking the equality of
unitary operators AB and BA".  We do exactly that for pairs whose joint
support is small, with a signature-keyed cache so each structural pair is
checked once per session.  For wide operands (aggregated instructions whose
joint support exceeds :attr:`exact_qubits`) the checker falls back to the
conservative sound rules: disjoint supports always commute, and diagonal
operators always commute with each other.

In front of that cache sits a per-checker pair memo keyed by the two
nodes themselves, in both orders.  Nodes hash by identity, and a key
holds its nodes alive, so a verdict can never be handed to a node
created later.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.embed import embed_operator


def _matrix_of(operand) -> np.ndarray | None:
    """The operand's unitary, or None when it is unavailable/too wide."""
    matrix = getattr(operand, "matrix", None)
    if matrix is None:
        return None
    return np.asarray(matrix)


# Process-global verdict memo.  Every compile job builds fresh checker
# instances, but the structural question — do these two unitaries, laid
# out this way, commute? — is job-independent, so verdicts are shared
# across checkers keyed by (structural key, atol).  Bounded so a long
# sweep over many distinct parametrised gates cannot grow it without
# limit; eviction is FIFO (insertion order), which is fine for a memo.
_SHARED_VERDICT_LIMIT = 65536
_SHARED_VERDICTS: dict[tuple, bool] = {}


def _shared_store(key: tuple, verdict: bool) -> None:
    if len(_SHARED_VERDICTS) >= _SHARED_VERDICT_LIMIT:
        _SHARED_VERDICTS.pop(next(iter(_SHARED_VERDICTS)))
    _SHARED_VERDICTS[key] = verdict


def clear_shared_verdicts() -> None:
    """Drop the process-global memo (test isolation hook)."""
    _SHARED_VERDICTS.clear()


class CommutationChecker:
    """Decides whether two operations commute.

    Operands must expose ``qubits`` (tuple of register positions),
    ``is_diagonal`` (bool) and ``signature`` (hashable value identity);
    ``matrix`` is optional.  :class:`~repro.gates.gate.Gate` and
    :class:`~repro.aggregation.instruction.AggregatedInstruction` both
    qualify.
    """

    def __init__(self, exact_qubits: int = 4, atol: float = 1e-8) -> None:
        self.exact_qubits = exact_qubits
        self.atol = atol
        self._cache: dict[tuple, bool] = {}
        # Schedulers re-query the same node pairs thousands of times.
        self._pair_memo: dict[tuple, bool] = {}
        self.exact_checks = 0
        self.cache_hits = 0
        self.shared_hits = 0

    def commute(self, a, b) -> bool:
        """True when the two operations can be reordered."""
        verdict = self._pair_memo.get((a, b))
        if verdict is not None:
            self.cache_hits += 1
            return verdict
        verdict = self._commute_uncached(a, b)
        self._pair_memo[(a, b)] = self._pair_memo[(b, a)] = verdict
        return verdict

    def _commute_uncached(self, a, b) -> bool:
        shared = set(a.qubits) & set(b.qubits)
        if not shared:
            return True
        union = sorted(set(a.qubits) | set(b.qubits))
        if len(union) > self.exact_qubits:
            # Too wide for an explicit check: only the sound rule that
            # diagonal operators commute applies.
            return a.is_diagonal and b.is_diagonal
        # Verdicts first: diagonality and the matrices may need an
        # instruction's dense product.  Only a pair that reached the
        # exact check stores a verdict, and equal keys mean equal
        # matrices, so a hit is the answer the checks below would give.
        key = self._cache_key(a, b, union)
        verdict = self._cache.get(key)
        if verdict is not None:
            self.cache_hits += 1
            return verdict
        shared_key = (key, self.atol)
        remembered = _SHARED_VERDICTS.get(shared_key)
        if remembered is not None:
            self.shared_hits += 1
            verdict = remembered
        else:
            if a.is_diagonal and b.is_diagonal:
                return True
            matrix_a = _matrix_of(a)
            matrix_b = _matrix_of(b)
            if matrix_a is None or matrix_b is None:
                return False
            verdict = self._exact_check(
                matrix_a, a.qubits, matrix_b, b.qubits, union
            )
        self._cache[key] = verdict
        # The relation is symmetric; prime the mirrored key too.
        mirror = self._cache_key(b, a, union)
        self._cache[mirror] = verdict
        if remembered is None:
            _shared_store(shared_key, verdict)
            _shared_store((mirror, self.atol), verdict)
        return verdict

    def _exact_check(self, matrix_a, qubits_a, matrix_b, qubits_b, union) -> bool:
        self.exact_checks += 1
        index = {qubit: position for position, qubit in enumerate(union)}
        width = len(union)
        full_a = embed_operator(
            matrix_a, [index[q] for q in qubits_a], width
        )
        full_b = embed_operator(
            matrix_b, [index[q] for q in qubits_b], width
        )
        return bool(
            np.allclose(full_a @ full_b, full_b @ full_a, atol=self.atol)
        )

    def _cache_key(self, a, b, union) -> tuple:
        # The verdict only depends on each operand's unitary and on how
        # the two qubit tuples interleave within the union, so the key is
        # built from signatures plus union-relative positions.
        index = {qubit: position for position, qubit in enumerate(union)}
        positions_a = tuple(index[q] for q in a.qubits)
        positions_b = tuple(index[q] for q in b.qubits)
        return (a.signature, positions_a, b.signature, positions_b)

    def cache_size(self) -> int:
        """Number of cached structural verdicts."""
        return len(self._cache)
