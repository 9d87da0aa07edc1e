"""Differential compilation: one circuit, every strategy, many devices.

:func:`differential_compile` compiles a circuit under every registered
strategy crossed with a set of device presets, checks each result
against the source program with
:func:`~repro.verification.equivalence.verify_equivalence`, and reports
every failing ``(strategy, device)`` cell.  Since every compilation is
compared against the same source semantics, any two passing cells are
also pairwise equivalent — one reference, full cross-strategy coverage.

:func:`minimize_circuit` shrinks a failing circuit to a (locally)
minimal gate subsequence that still fails, which is what the fuzz
harness (:mod:`repro.testing.fuzz`) prints as its reproducer.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

from repro.circuit.circuit import Circuit
from repro.compiler.pipeline import compile_circuit
from repro.compiler.strategies import Strategy, registered_strategies
from repro.control.cache import PulseCache
from repro.control.unit import OptimalControlUnit
from repro.device.device import Device
from repro.device.presets import device_by_key
from repro.errors import BenchmarkError, ReproError
from repro.testing.strategies import preset_key_for
from repro.verification.equivalence import EquivalenceReport

#: Device families :func:`default_device_presets` draws from, in order.
DEFAULT_DEVICE_FAMILIES: tuple[str, ...] = (
    "paper-grid",
    "line",
    "ring",
    "all-to-all",
)


def default_device_presets(
    num_qubits: int,
    families: Sequence[str] = DEFAULT_DEVICE_FAMILIES,
    minimum: int = 3,
) -> list[str]:
    """Preset keys covering every sizeable family, sized to a circuit.

    Deduplicated (a 1xN paper grid *is* the line; a ring of three *is*
    all-to-all-3) while preserving family order, so the list always
    names topologically distinct targets.  Narrow circuits collapse
    many families onto one wiring, so the list is padded with larger
    (ancilla-bearing) targets until ``minimum`` distinct devices remain
    — routing through idle cells is exactly the regime worth fuzzing.
    """
    keys: list[str] = []
    seen_wirings: set[tuple] = set()

    def add(key: str) -> None:
        topology = device_by_key(key).topology
        # Compare raw wiring, not Topology.signature(): a 1xN paper grid
        # and a line-N differ in kind tag but are the same graph.
        wiring = (topology.num_qubits, tuple(sorted(topology.edges())))
        if wiring not in seen_wirings:
            seen_wirings.add(wiring)
            keys.append(key)

    for family in families:
        add(preset_key_for(family, num_qubits))
    padded = num_qubits
    while len(keys) < minimum and padded < num_qubits + 8:
        padded += 1
        for family in families:
            if len(keys) >= minimum:
                break
            add(preset_key_for(family, padded))
    return keys


@dataclasses.dataclass
class CompileOutcome:
    """One (strategy, device) cell of a differential run."""

    strategy_key: str
    device_key: str
    report: EquivalenceReport | None = None
    error: str | None = None
    latency_ns: float | None = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.report is not None
            and self.report.equivalent
        )

    def describe(self) -> str:
        cell = f"{self.strategy_key} @ {self.device_key}"
        if self.error is not None:
            return f"{cell}: ERROR {self.error}"
        if self.report is None:
            return f"{cell}: not checked"
        status = "ok" if self.report.equivalent else "MISMATCH"
        return (
            f"{cell}: {status} (max deviation "
            f"{self.report.max_deviation:.3e})"
        )


@dataclasses.dataclass
class DifferentialReport:
    """Every outcome of one circuit's strategy-by-device sweep."""

    circuit_name: str
    outcomes: list[CompileOutcome]

    @property
    def failures(self) -> list[CompileOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        failing = self.failures
        if not failing:
            return (
                f"{self.circuit_name}: {len(self.outcomes)} compilations, "
                f"all equivalent"
            )
        lines = [
            f"{self.circuit_name}: {len(failing)}/{len(self.outcomes)} "
            f"compilations FAILED"
        ]
        lines.extend(f"  {outcome.describe()}" for outcome in failing)
        return "\n".join(lines)


def differential_compile(
    circuit: Circuit,
    strategies: Sequence[Strategy | str] | None = None,
    devices: Sequence[Device | str] | None = None,
    *,
    method: str = "auto",
    states: int = 6,
    atol: float | None = None,
    seed: int = 20190413,
    cache: PulseCache | None = None,
    fail_fast: bool = False,
    executor: str = "serial",
    verify_ir: bool = False,
) -> DifferentialReport:
    """Compile one circuit under every strategy x device and verify all.

    Args:
        circuit: The program under test.
        strategies: Strategies (objects or registered keys); defaults to
            every registered strategy, built-ins included.
        devices: Devices or preset keys; defaults to
            :func:`default_device_presets` sized to the circuit.
        method / states / atol / seed: Forwarded to
            :func:`~repro.verification.equivalence.verify_equivalence`.
        cache: Shared pulse cache; one is created (and shared across
            every cell of this sweep) when omitted.
        fail_fast: Stop at the first failing cell.
        verify_ir: Compile every cell with between-pass IR verification
            (:mod:`repro.analysis`): a failure then reads
            ``IRVerificationError`` naming the pass and rule that broke,
            instead of a bare end-of-pipeline mismatch.
        executor: ``"serial"`` compiles every cell in this process;
            ``"process"`` fans the cells across a
            ``BatchCompiler(executor="process")`` — each cell's job and
            result cross the process boundary as :mod:`repro.ir` wire
            payloads, so the differential sweep doubles as an end-to-end
            round-trip check.  A cell that raises in batch mode is
            re-attributed by rerunning the circuit serially.

    Returns:
        A :class:`DifferentialReport`; ``report.ok`` iff every cell
        compiled and verified.
    """
    if executor not in ("serial", "process"):
        raise BenchmarkError(
            f"executor must be 'serial' or 'process', got {executor!r}"
        )
    if strategies is None:
        strategies = registered_strategies()
    strategies = [
        strategy if isinstance(strategy, Strategy) else str(strategy)
        for strategy in strategies
    ]
    if not strategies:
        raise BenchmarkError("differential_compile needs at least one strategy")
    if devices is None:
        devices = default_device_presets(circuit.num_qubits)
    if not devices:
        raise BenchmarkError("differential_compile needs at least one device")
    cache = cache if cache is not None else PulseCache()

    resolved: list[tuple[str, Device]] = []
    for entry in devices:
        device = device_by_key(entry) if isinstance(entry, str) else entry
        if device.num_qubits < circuit.num_qubits:
            raise BenchmarkError(
                f"device {device.name or device!r} has {device.num_qubits} "
                f"qubits for the {circuit.num_qubits}-qubit circuit "
                f"{circuit.name!r}"
            )
        resolved.append((device.name or repr(device), device))

    if executor == "process":
        if method == "propagator":
            raise BenchmarkError(
                "the propagator method needs an in-process oracle; "
                "use executor='serial'"
            )
        report = _differential_via_processes(
            circuit,
            strategies,
            resolved,
            method=method,
            states=states,
            atol=atol,
            seed=seed,
            cache=cache,
            fail_fast=fail_fast,
            verify_ir=verify_ir,
        )
        if report is not None:
            return report
        # A cell raised inside the batch (which aborts the whole batch);
        # fall through to the serial sweep so the error lands on its cell.

    outcomes: list[CompileOutcome] = []
    for device_key, device in resolved:
        # One oracle per device (matched-oracle rule for heterogeneous
        # targets), shared across strategies through the common cache.
        ocu = OptimalControlUnit(device=device, cache=cache)
        for strategy in strategies:
            strategy_key = (
                strategy.key if isinstance(strategy, Strategy) else strategy
            )
            outcome = CompileOutcome(
                strategy_key=strategy_key, device_key=device_key
            )
            try:
                result = compile_circuit(
                    circuit, strategy, device=device, ocu=ocu,
                    verify_ir=verify_ir,
                )
                outcome.latency_ns = result.latency_ns
                outcome.report = result.verify_equivalence(
                    circuit,
                    method=method,
                    states=states,
                    atol=atol,
                    seed=seed,
                    ocu=ocu if method == "propagator" else None,
                )
            except ReproError as error:
                outcome.error = f"{type(error).__name__}: {error}"
            outcomes.append(outcome)
            if fail_fast and not outcome.ok:
                return DifferentialReport(circuit.name, outcomes)
    return DifferentialReport(circuit.name, outcomes)


def _differential_via_processes(
    circuit: Circuit,
    strategies: Sequence[Strategy | str],
    resolved: Sequence[tuple[str, Device]],
    *,
    method: str,
    states: int,
    atol: float | None,
    seed: int,
    cache: PulseCache,
    fail_fast: bool,
    verify_ir: bool = False,
) -> DifferentialReport | None:
    """One circuit's cells through the process-backed batch engine.

    Returns None when any cell raised: batch mode aborts on the first
    job error without telling us which cells would have succeeded, so
    the caller reruns serially for per-cell attribution.
    """
    from repro.compiler.batch import BatchCompiler, BatchJob

    cells = [
        (strategy, device_key, device)
        for device_key, device in resolved
        for strategy in strategies
    ]
    jobs = [
        BatchJob(circuit=circuit, strategy=strategy, device=device)
        for strategy, _, device in cells
    ]
    engine = BatchCompiler(cache=cache, executor="process", verify_ir=verify_ir)
    try:
        report = engine.compile_batch(jobs)
    except ReproError:
        return None
    outcomes: list[CompileOutcome] = []
    for (strategy, device_key, _), result in zip(cells, report.results):
        strategy_key = (
            strategy.key if isinstance(strategy, Strategy) else strategy
        )
        outcome = CompileOutcome(
            strategy_key=strategy_key, device_key=device_key
        )
        outcome.latency_ns = result.latency_ns
        # The result crossed the process boundary; verifying it against
        # the *local* source circuit checks compilation and round trip.
        # A raising verifier is a per-cell failure, same as serially.
        try:
            outcome.report = result.verify_equivalence(
                circuit, method=method, states=states, atol=atol, seed=seed
            )
        except ReproError as error:
            outcome.error = f"{type(error).__name__}: {error}"
        outcomes.append(outcome)
        if fail_fast and not outcome.ok:
            break
    return DifferentialReport(circuit.name, outcomes)


def minimize_circuit(
    circuit: Circuit,
    still_fails: Callable[[Circuit], bool],
    max_checks: int = 400,
) -> Circuit:
    """Shrink a failing circuit to a 1-minimal failing gate subsequence.

    Greedy delta debugging over the gate list: repeatedly delete chunks
    (halving the chunk size down to single gates) while ``still_fails``
    keeps returning True, until no single-gate deletion reproduces the
    failure or the check budget runs out.  The register width is kept —
    renumbering qubits would change placement and could mask the bug.

    Args:
        circuit: A circuit for which ``still_fails(circuit)`` is True.
        still_fails: Predicate re-running the failing scenario.
        max_checks: Budget of predicate evaluations.

    Returns:
        A new circuit (named ``<original>-min``) that still fails.
    """
    gates = list(circuit.gates)
    checks = 0

    def rebuild(subset: list) -> Circuit:
        return Circuit.from_gates(
            circuit.num_qubits, subset, name=f"{circuit.name}-min"
        )

    chunk = max(1, len(gates) // 2)
    while checks < max_checks:
        index = 0
        removed_any = False
        while index < len(gates) and checks < max_checks:
            candidate = gates[:index] + gates[index + chunk:]
            if not candidate:
                index += chunk
                continue
            checks += 1
            if still_fails(rebuild(candidate)):
                gates = candidate
                removed_any = True
                # Same index now names the next chunk; retry in place.
            else:
                index += chunk
        if chunk > 1:
            chunk //= 2
        elif not removed_any:
            # A full single-gate pass removed nothing: 1-minimal.
            break
    return rebuild(gates)
