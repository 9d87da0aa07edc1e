"""The :class:`Gate` object: a named unitary applied to specific qubits.

Gates compare by *identity*, not value: a circuit containing the same
operation twice holds two distinct :class:`Gate` instances, which is what
the gate-dependence graph needs to track each occurrence separately.
Value-level comparisons go through :attr:`Gate.signature`.

Unitarity is checked where a matrix enters from outside the gate
library: ``Gate(...)`` runs :func:`~repro.linalg.predicates.is_unitary`
in ``__post_init__``, so a caller's custom gate, a decoded gate that
ships its own matrix and :meth:`Gate.dagger` all pay it.  The library's
factories build through :func:`_trusted_gate` instead: their matrices are
unitary by construction for every finite angle (the library tests check
each mnemonic over a range of angles), and re-proving it with
``np.allclose`` would be most of the cost of rebuilding a decoded
program.  :meth:`Gate.on` shares that constructor, because its matrix
is its source gate's.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.errors import GateError
from repro.linalg.predicates import is_diagonal, is_unitary

_PARAM_DECIMALS = 10


@dataclasses.dataclass(frozen=True, eq=False)
class Gate:
    """A unitary operation on an ordered tuple of qubits.

    Attributes:
        name: Upper-case mnemonic, e.g. ``"CNOT"`` or ``"RZ"``.
        qubits: Register positions the gate acts on (order matters: for
            ``CNOT`` the first entry is the control).
        params: Continuous parameters (rotation angles), possibly empty.
        matrix: ``2^k x 2^k`` unitary in the big-endian convention.
    """

    name: str
    qubits: tuple[int, ...]
    matrix: np.ndarray
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        matrix = np.asarray(self.matrix, dtype=complex)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(
            self, "qubits", _checked_qubits(self.name, self.qubits, matrix)
        )
        if not is_unitary(matrix, atol=1e-7):
            raise GateError(f"{self.name} matrix is not unitary")
        # The memos of is_diagonal and signature (None until first read).
        object.__setattr__(self, "_is_diagonal", None)
        object.__setattr__(self, "_signature", None)

    @property
    def num_qubits(self) -> int:
        """Number of qubits the gate acts on."""
        return len(self.qubits)

    @property
    def is_diagonal(self) -> bool:
        """True when the matrix is diagonal in the computational basis.

        Memoized: the schedulers and commutation checker query this on
        every group-membership test.
        """
        cached = self._is_diagonal
        if cached is None:
            cached = is_diagonal(self.matrix)
            object.__setattr__(self, "_is_diagonal", cached)
        return cached

    @property
    def signature(self) -> tuple:
        """Value-level identity: name, rounded params, qubit-order pattern.

        Two gates with equal signatures have equal matrices and act on
        qubit tuples with the same internal ordering pattern, so cached
        commutation verdicts transfer between them.  Computed once and
        memoized (gates are immutable).
        """
        cached = self._signature
        if cached is None:
            order = sorted(range(len(self.qubits)), key=self.qubits.__getitem__)
            ranks = [0] * len(self.qubits)
            for rank, position in enumerate(order):
                ranks[position] = rank
            cached = (
                self.name,
                tuple(round(p, _PARAM_DECIMALS) for p in self.params),
                tuple(ranks),
            )
            object.__setattr__(self, "_signature", cached)
        return cached

    def on(self, qubits: Sequence[int]) -> Gate:
        """The same operation applied to different qubits.

        The matrix is this gate's own, already unitary and read-only,
        so only the new qubits are checked; no memo that depends on the
        qubits (the signature) carries over.
        """
        return _trusted_gate(
            self.name, qubits, self.matrix, self.params, self._is_diagonal
        )

    def dagger(self) -> Gate:
        """The inverse gate (conjugate-transposed matrix)."""
        return Gate(
            f"{self.name}_DG" if not self.name.endswith("_DG") else self.name[:-3],
            self.qubits,
            self.matrix.conj().T,
            tuple(-p for p in self.params),
        )

    def __repr__(self) -> str:
        params = ""
        if self.params:
            params = "(" + ", ".join(f"{p:.4g}" for p in self.params) + ")"
        qubits = ", ".join(str(q) for q in self.qubits)
        return f"{self.name}{params}[{qubits}]"


def _trusted_gate(
    name: str,
    qubits: Sequence[int],
    matrix: np.ndarray,
    params: tuple[float, ...] = (),
    is_diagonal: bool | None = None,
) -> Gate:
    """A gate over a matrix known to be unitary, built without re-proving it.

    The construction path of the library factories and :meth:`Gate.on`:
    the qubits are checked as ``Gate(...)`` checks them, but the matrix
    is not, so callers pass only matrices the library built (whose
    angles they checked finite) or a validated gate's own.
    ``is_diagonal`` seeds that memo; the signature memo starts empty.
    """
    matrix = np.asarray(matrix, dtype=complex)
    matrix.setflags(write=False)
    qubits = _checked_qubits(name, qubits, matrix)
    gate = object.__new__(Gate)
    object.__setattr__(gate, "name", name)
    object.__setattr__(gate, "qubits", qubits)
    object.__setattr__(gate, "matrix", matrix)
    object.__setattr__(gate, "params", params)
    object.__setattr__(gate, "_is_diagonal", is_diagonal)
    object.__setattr__(gate, "_signature", None)
    return gate


def _checked_qubits(
    name: str, qubits: Sequence[int], matrix: np.ndarray
) -> tuple[int, ...]:
    """The qubits as a tuple of ints, each checked, and the matrix's arity.

    An integer passes, numpy's included; a bool, float or string is
    refused rather than converted, so a malformed index cannot truncate
    into a different qubit.  Duplicate or negative qubits and a matrix
    of the wrong arity are refused too.
    """
    checked = []
    for q in qubits:
        if type(q) is not int:
            if isinstance(q, bool) or not isinstance(q, (int, np.integer)):
                raise GateError(f"{name} qubit index {q!r} is not an integer")
            q = int(q)
        checked.append(q)
    result = tuple(checked)
    k = len(result)
    if len(set(result)) != k:
        raise GateError(f"duplicate qubits in {name}: {result}")
    if any(q < 0 for q in result):
        raise GateError(f"negative qubit index in {name}: {result}")
    if matrix.shape != (2**k, 2**k):
        raise GateError(
            f"{name} on {k} qubits needs a {2**k}x{2**k} matrix, "
            f"got {matrix.shape}"
        )
    return result
