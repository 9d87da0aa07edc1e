"""Whole-program semantic equivalence checking.

The paper's verification (Sec. 3.6) spot-checks ten sampled pulses per
benchmark.  This module checks the *whole compiled program*: a
:class:`~repro.compiler.result.CompilationResult` — after diagonal
detection, routing SWAPs, hand optimization and aggregation — must still
implement its source :class:`~repro.circuit.circuit.Circuit` up to a
global phase and the logical-to-physical permutation routing induced.

Three comparison methods share one driver:

* ``"statevector"`` — propagate a handful of seeded random input states
  through both programs and compare final states (scales to every
  circuit the dense simulator can hold).
* ``"unitary"`` — propagate *every* computational basis state, i.e.
  compare the compiled isometry column by column under one shared
  global phase (exact equivalence; exponential in the logical width).
* ``"propagator"`` — like ``"statevector"``, but aggregated
  instructions execute as their GRAPE-synthesized pulses integrated by
  the independent propagator, so the check covers the optimal-control
  backend, not just the ideal matrices.

The frame conversion works in the compiled program's *physical* register:
the logical input state is placed according to the initial placement
(unused cells hold ancilla ``|0>``), the scheduled nodes run in start-time
order, and the final placement is inverted to read the logical state back
out.  Ancilla cells must return to ``|0>`` — routing SWAPs may move them
around, but any residual amplitude outside the ancilla-zero block is
reported as ``ancilla_leakage`` and fails the check.

Entry points: :func:`verify_equivalence` (also exposed as
``CompilationResult.verify_equivalence()``) and
:class:`VerifyEquivalencePass`, which can be appended to any pass
pipeline to make every compilation self-checking.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuit.circuit import Circuit
from repro.compiler.passes import Pass
from repro.control.unit import OptimalControlUnit, gates_of, support_of
from repro.errors import VerificationError
from repro.linalg.simulator import apply_unitary
from repro.verification.propagator import propagate_pulse

_METHODS = ("auto", "statevector", "unitary", "propagator")

#: Widest logical register the all-basis-states ("unitary") method will
#: attempt by default; beyond it ``method="auto"`` samples random states.
_AUTO_UNITARY_QUBIT_LIMIT = 5

#: Dense statevector ceiling (mirrors the simulator's own limit).
_SIMULATION_QUBIT_LIMIT = 24

#: Default tolerances per method.  Ideal-matrix methods are limited only
#: by float accumulation; the propagator method realizes pulses that hit
#: the GRAPE fidelity threshold, not exact unitaries, so its tolerance is
#: physical rather than numerical.
_DEFAULT_ATOL = {"statevector": 1e-6, "unitary": 1e-6, "propagator": 0.1}

_DEFAULT_SEED = 20190413
_DEFAULT_STATES = 8


@dataclasses.dataclass
class EquivalenceReport:
    """Outcome of one whole-program equivalence check.

    Attributes:
        equivalent: Whether every checked state matched within ``atol``.
        method: The comparison method actually run (never ``"auto"``).
        max_deviation: Largest entry-wise state deviation after global-
            phase alignment, over all checked states.
        ancilla_leakage: Largest amplitude norm found outside the
            ancilla-zero block (routing must return ancillas to ``|0>``).
        states_checked: Number of input states propagated.
        atol: Tolerance the verdict used.
        propagated_instructions: Aggregated instructions realized by
            pulse propagation (``"propagator"`` method only).
        propagator_fallbacks: Aggregated instructions too wide for GRAPE
            that fell back to their ideal member gates.
        circuit_name / strategy_key / device_name: Provenance labels.
    """

    equivalent: bool
    method: str
    max_deviation: float
    ancilla_leakage: float
    states_checked: int
    atol: float
    propagated_instructions: int = 0
    propagator_fallbacks: int = 0
    circuit_name: str = ""
    strategy_key: str = ""
    device_name: str | None = None

    def __bool__(self) -> bool:
        return self.equivalent

    def summary(self) -> str:
        """One-line human-readable digest."""
        verdict = "equivalent" if self.equivalent else "NOT equivalent"
        label = self.circuit_name or "circuit"
        return (
            f"{label} [{self.strategy_key or 'unknown'}"
            f"{f' @ {self.device_name}' if self.device_name else ''}]: "
            f"{verdict} ({self.method}, {self.states_checked} states, "
            f"max deviation {self.max_deviation:.3e}, "
            f"leakage {self.ancilla_leakage:.3e}, atol {self.atol:g})"
        )


def verify_equivalence(
    result,
    circuit: Circuit | None = None,
    *,
    method: str = "auto",
    states: int = _DEFAULT_STATES,
    atol: float | None = None,
    seed: int = _DEFAULT_SEED,
    ocu: OptimalControlUnit | None = None,
    raise_on_failure: bool = False,
) -> EquivalenceReport:
    """Check that a compilation result still implements its source circuit.

    Args:
        result: A :class:`~repro.compiler.result.CompilationResult` (or
            anything exposing ``schedule``, ``initial_mapping``,
            ``final_mapping``, ``physical_qubits``).
        circuit: The source circuit; defaults to the result's recorded
            ``source_circuit``.
        method: ``"statevector"``, ``"unitary"``, ``"propagator"``, or
            ``"auto"`` (unitary for narrow circuits, statevector above
            ``5`` logical qubits).
        states: Random input states for the statevector/propagator
            methods (the unitary method always checks every basis state).
        atol: Comparison tolerance; defaults per method (``1e-6`` for
            ideal matrices, ``0.1`` for propagated pulses).
        seed: Seed for the random input states.
        ocu: Optimal-control unit for the ``"propagator"`` method (used
            to synthesize each aggregated instruction's pulse); required
            for that method, ignored otherwise.
        raise_on_failure: Raise :class:`VerificationError` instead of
            returning a failing report.

    Returns:
        An :class:`EquivalenceReport` (truthy iff equivalent).
    """
    if circuit is None:
        circuit = getattr(result, "source_circuit", None)
        if circuit is None:
            raise VerificationError(
                "verify_equivalence needs the source circuit: this result "
                "does not carry one (pass circuit= explicitly)"
            )
    if method not in _METHODS:
        raise VerificationError(
            f"unknown equivalence method {method!r}; use one of {_METHODS}"
        )
    num_logical = circuit.num_qubits
    num_physical = result.physical_qubits
    if num_physical > _SIMULATION_QUBIT_LIMIT:
        raise VerificationError(
            f"cannot simulate {num_physical} physical qubits densely "
            f"(limit {_SIMULATION_QUBIT_LIMIT})"
        )
    if method == "auto":
        method = (
            "unitary"
            if num_logical <= _AUTO_UNITARY_QUBIT_LIMIT
            else "statevector"
        )
    if method == "propagator" and ocu is None:
        raise VerificationError(
            "the propagator method synthesizes pulses and needs ocu="
        )
    if atol is None:
        atol = _DEFAULT_ATOL[method]

    nodes = result.schedule.ordered_nodes()
    initial = _mapping_array(result.initial_mapping, num_logical, num_physical)
    final = _mapping_array(result.final_mapping, num_logical, num_physical)
    unitary_of = _PulseRealizer(ocu) if method == "propagator" else None

    if method == "unitary":
        inputs = (
            _basis_state(index, num_logical)
            for index in range(2**num_logical)
        )
        count = 2**num_logical
    else:
        rng = np.random.default_rng(seed)
        inputs = (
            _random_state(rng, num_logical) for _ in range(max(1, states))
        )
        count = max(1, states)

    max_deviation = 0.0
    max_leakage = 0.0
    compiled_columns = [] if method == "unitary" else None
    reference_columns = [] if method == "unitary" else None
    equivalent = True
    for state in inputs:
        reference = _run_gates(state, circuit.gates, num_logical)
        physical = _embed_state(state, num_physical, initial)
        for node in nodes:
            physical = _apply_node(physical, node, num_physical, unitary_of)
        compiled, leakage = _extract_state(physical, num_logical, final)
        max_leakage = max(max_leakage, leakage)
        if compiled_columns is not None:
            compiled_columns.append(compiled)
            reference_columns.append(reference)
        else:
            deviation = _phase_aligned_deviation(compiled, reference)
            max_deviation = max(max_deviation, deviation)
    if compiled_columns is not None:
        # One *shared* global phase across every column: per-column
        # alignment would wave through relative-phase errors between
        # basis states, which are real bugs.
        max_deviation = _phase_aligned_deviation(
            np.stack(compiled_columns, axis=1),
            np.stack(reference_columns, axis=1),
        )
    equivalent = max_deviation <= atol and max_leakage <= atol

    report = EquivalenceReport(
        equivalent=equivalent,
        method=method,
        max_deviation=float(max_deviation),
        ancilla_leakage=float(max_leakage),
        states_checked=count,
        atol=float(atol),
        propagated_instructions=(
            unitary_of.propagated if unitary_of is not None else 0
        ),
        propagator_fallbacks=(
            unitary_of.fallbacks if unitary_of is not None else 0
        ),
        circuit_name=getattr(result, "circuit_name", "") or circuit.name,
        strategy_key=getattr(result, "strategy_key", ""),
        device_name=getattr(result, "device_name", None),
    )
    if raise_on_failure and not equivalent:
        raise VerificationError(
            f"compiled program is not equivalent to its source: "
            f"{report.summary()}"
        )
    return report


class VerifyEquivalencePass(Pass):
    """A pipeline pass that fails the compilation on semantic drift.

    Append it to any pipeline that ends in a schedule::

        pipeline = strategy.pipeline() + [VerifyEquivalencePass()]
        compile_with_pipeline(circuit, pipeline)

    Raises :class:`~repro.errors.VerificationError` when the compiled
    schedule does not implement the source circuit (set
    ``raise_on_failure=False`` to only record the verdict in the pass
    metrics).
    """

    requires = ("schedule", "routing", "topology")
    preserves_gates = True

    def __init__(
        self,
        method: str = "auto",
        states: int = _DEFAULT_STATES,
        atol: float | None = None,
        seed: int = _DEFAULT_SEED,
        raise_on_failure: bool = True,
    ) -> None:
        if method not in _METHODS:
            raise VerificationError(
                f"unknown equivalence method {method!r}; use one of {_METHODS}"
            )
        self.method = method
        self.states = states
        self.atol = atol
        self.seed = seed
        self.raise_on_failure = raise_on_failure

    def run(self, context) -> None:
        context.require(
            "schedule", self.name, "run FinalSchedulePass first"
        )
        report = verify_equivalence(
            context.result(),
            context.circuit,
            method=self.method,
            states=self.states,
            atol=self.atol,
            seed=self.seed,
            ocu=context.ocu if self.method == "propagator" else None,
            raise_on_failure=False,
        )
        context.record_metrics(
            self.name,
            equivalent=report.equivalent,
            method=report.method,
            max_deviation=report.max_deviation,
            ancilla_leakage=report.ancilla_leakage,
            states_checked=report.states_checked,
        )
        if self.raise_on_failure and not report.equivalent:
            raise VerificationError(
                f"compiled program diverged from its source: "
                f"{report.summary()}"
            )


# ----------------------------------------------------------------------
# Frame conversion: logical <-> physical registers


def _mapping_array(
    mapping: dict[int, int], num_logical: int, num_physical: int
) -> list[int]:
    """Validated ``logical -> physical`` positions as a dense list."""
    try:
        positions = [int(mapping[q]) for q in range(num_logical)]
    except KeyError as missing:
        raise VerificationError(
            f"routing mapping is missing logical qubit {missing}"
        ) from None
    if len(set(positions)) != num_logical or any(
        not 0 <= p < num_physical for p in positions
    ):
        raise VerificationError(
            f"routing mapping {mapping} is not an injection into "
            f"{num_physical} physical qubits"
        )
    return positions


def _embed_state(
    state: np.ndarray, num_physical: int, mapping: list[int]
) -> np.ndarray:
    """Place a logical state on the physical register (ancillas |0>).

    Axis ``mapping[q]`` of the physical register carries logical qubit
    ``q``; the remaining cells hold ``|0>``.
    """
    num_logical = len(mapping)
    ancillas = num_physical - num_logical
    full = np.asarray(state, dtype=complex)
    if ancillas:
        zeros = np.zeros(2**ancillas, dtype=complex)
        zeros[0] = 1.0
        full = np.kron(full, zeros)
    free = [p for p in range(num_physical) if p not in set(mapping)]
    # Source axis order: logical 0..L-1, then ancillas on the free cells
    # in index order.  axes[destination] = source.
    axes = [0] * num_physical
    for logical, physical in enumerate(mapping):
        axes[physical] = logical
    for offset, physical in enumerate(free):
        axes[physical] = num_logical + offset
    return full.reshape([2] * num_physical).transpose(axes).reshape(-1)


def _extract_state(
    state: np.ndarray, num_logical: int, mapping: list[int]
) -> tuple[np.ndarray, float]:
    """Read the logical state back out of the physical register.

    Returns the (normalized-input-sized) logical amplitude vector from
    the ancilla-zero block and the norm of everything outside it.
    """
    num_physical = int(round(np.log2(state.size)))
    free = [p for p in range(num_physical) if p not in set(mapping)]
    order = list(mapping) + free
    tensor = np.asarray(state, dtype=complex).reshape([2] * num_physical)
    block = tensor.transpose(order).reshape(2**num_logical, -1)
    logical = np.array(block[:, 0])
    leakage = float(np.linalg.norm(block[:, 1:])) if block.shape[1] > 1 else 0.0
    return logical, leakage


# ----------------------------------------------------------------------
# Node execution


def _run_gates(state: np.ndarray, gates, num_qubits: int) -> np.ndarray:
    for gate in gates:
        state = apply_unitary(state, gate.matrix, gate.qubits, num_qubits)
    return state


def _apply_node(state, node, num_qubits: int, unitary_of=None) -> np.ndarray:
    """Apply one scheduled node (gate or aggregated instruction)."""
    if unitary_of is not None:
        realized = unitary_of(node)
        if realized is not None:
            return apply_unitary(state, realized, support_of(node), num_qubits)
    return _run_gates(state, gates_of(node), num_qubits)


class _PulseRealizer:
    """Realized unitaries of aggregated instructions via their pulses.

    Synthesizes each instruction's GRAPE pulse through the optimal-
    control unit and integrates it with the independent propagator; the
    returned unitary lives in instruction-local (sorted-support) qubit
    order, matching the OCU's local problems.  Plain gates and blocks
    wider than the GRAPE limit return None (caller applies ideal gates).
    """

    def __init__(self, ocu: OptimalControlUnit) -> None:
        self.ocu = ocu
        self.propagated = 0
        self.fallbacks = 0
        # Keyed by the node itself (nodes hash by identity, and the dict
        # keeps them alive), not by reusable id() integers.
        self._memo: dict[object, np.ndarray | None] = {}

    def __call__(self, node) -> np.ndarray | None:
        from repro.aggregation.instruction import AggregatedInstruction

        if not isinstance(node, AggregatedInstruction):
            return None
        if node in self._memo:
            return self._memo[node]
        support = support_of(node)
        if len(support) > self.ocu.grape_qubit_limit:
            self.fallbacks += 1
            self._memo[node] = None
            return None
        grape = self.ocu.synthesize_pulse(node)
        _, hamiltonian = self.ocu._local_problem(support, gates_of(node))
        realized = propagate_pulse(grape.pulse, hamiltonian)
        self.propagated += 1
        self._memo[node] = realized
        return realized


# ----------------------------------------------------------------------
# State comparison


def _basis_state(index: int, num_qubits: int) -> np.ndarray:
    state = np.zeros(2**num_qubits, dtype=complex)
    state[index] = 1.0
    return state


def _random_state(rng: np.random.Generator, num_qubits: int) -> np.ndarray:
    dim = 2**num_qubits
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def _phase_aligned_deviation(actual: np.ndarray, expected: np.ndarray) -> float:
    """Largest entry-wise deviation after optimal global-phase alignment.

    The phase is read off the largest-magnitude expected entry, so the
    estimate stays robust when many amplitudes are near zero.
    """
    expected = np.asarray(expected, dtype=complex)
    actual = np.asarray(actual, dtype=complex)
    pivot = np.unravel_index(np.argmax(np.abs(expected)), expected.shape)
    reference = expected[pivot]
    if abs(reference) < 1e-12:
        return float(np.max(np.abs(actual)))
    phase = actual[pivot] / reference
    magnitude = abs(phase)
    if magnitude < 1e-12:
        return float(np.max(np.abs(actual - expected)))
    phase /= magnitude
    return float(np.max(np.abs(actual - phase * expected)))
