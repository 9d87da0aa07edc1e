"""Compilation results and derived metrics."""

from __future__ import annotations

import dataclasses
from collections import Counter

from repro.aggregation.instruction import AggregatedInstruction
from repro.scheduling.schedule import Schedule


@dataclasses.dataclass
class CompilationResult:
    """Everything a compilation run produced.

    Attributes:
        strategy_key: Which Figure 9 strategy ran.
        circuit_name: Source circuit.
        logical_qubits: Register width before mapping.
        physical_qubits: Grid size after mapping.
        schedule: The final physical schedule (nodes carry physical
            qubit indices).
        latency_ns: Schedule makespan — the number Figure 9 plots.
        swap_count: SWAPs inserted by routing.
        lowered_gate_count: Gates after decomposition to the standard set.
        aggregation_merges: Merges executed (0 when aggregation is off).
    """

    strategy_key: str
    circuit_name: str
    logical_qubits: int
    physical_qubits: int
    schedule: Schedule
    latency_ns: float
    swap_count: int
    lowered_gate_count: int
    aggregation_merges: int
    final_mapping: dict[int, int] = dataclasses.field(default_factory=dict)
    """Where routing left each logical qubit (logical -> physical)."""
    initial_mapping: dict[int, int] = dataclasses.field(default_factory=dict)
    """Where placement put each logical qubit before routing."""
    pass_seconds: dict[str, float] = dataclasses.field(default_factory=dict)
    """Wall-clock seconds per compiler pass, keyed by pass name: the
    result's one record of where its compile time went."""
    device_name: str | None = None
    """Name of the compilation target (preset key or custom Device name;
    None for anonymous devices, including the auto-sized paper grid)."""
    source_circuit: object | None = None
    """The circuit this result compiled (a
    :class:`~repro.circuit.circuit.Circuit`), kept so
    :meth:`verify_equivalence` can check the compiled schedule against
    it; None for results deserialized without their source."""

    @property
    def node_count(self) -> int:
        """Final instruction count."""
        return len(self.schedule)

    def instruction_width_histogram(self) -> Counter[int]:
        """Distribution of final instruction widths."""
        histogram: Counter[int] = Counter()
        for operation in self.schedule:
            histogram[len(set(operation.node.qubits))] += 1
        return histogram

    def aggregated_instructions(self) -> list[AggregatedInstruction]:
        """The aggregated instructions in the final schedule."""
        return [
            operation.node
            for operation in self.schedule
            if isinstance(operation.node, AggregatedInstruction)
        ]

    def widest_instruction(self) -> int:
        """Largest final instruction width."""
        return max(
            (len(set(op.node.qubits)) for op in self.schedule), default=0
        )

    def verify_equivalence(self, circuit=None, **options):
        """Check that this result still implements its source circuit.

        Compares the compiled schedule against ``circuit`` (default: the
        recorded ``source_circuit``) up to global phase and the routing
        permutation; see
        :func:`repro.verification.equivalence.verify_equivalence` for
        the ``method``/``states``/``atol``/``seed``/``ocu``/
        ``raise_on_failure`` options.

        Returns:
            An :class:`~repro.verification.equivalence.EquivalenceReport`
            (truthy iff equivalent).
        """
        from repro.verification.equivalence import verify_equivalence

        return verify_equivalence(self, circuit, **options)

    # ------------------------------------------------------------------
    # Serialization (wire format: repro.ir.serialize)

    def to_dict(self, include_source: bool = True) -> dict:
        """Versioned wire form of the whole result.

        ``include_source=False`` drops the source circuit for a smaller
        payload; the loaded result then needs an explicit circuit to
        :meth:`verify_equivalence`.
        """
        from repro.ir.serialize import result_to_dict

        return result_to_dict(self, include_source=include_source)

    @classmethod
    def from_dict(cls, payload: dict) -> CompilationResult:
        """Rebuild a result from its wire form."""
        from repro.ir.serialize import result_from_dict

        return result_from_dict(payload)

    def save(self, path, include_source: bool = True) -> str:
        """Write the result as a JSON artifact; returns the path written.

        The artifact is self-contained: :meth:`load` in another process
        (or on another machine) rebuilds a result whose fingerprints and
        signatures match this one's and which still passes
        :meth:`verify_equivalence` against its embedded source circuit.
        The write goes through
        :func:`~repro.control.cache.disk.replace_into`, so a failed save
        leaves any previous artifact whole and no temp file behind.
        """
        import json
        import os

        from repro.control.cache.disk import replace_into

        path = os.fspath(path)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        payload = json.dumps(self.to_dict(include_source=include_source))
        replace_into(
            lambda handle: handle.write(payload.encode("utf-8")), path, ".tmp"
        )
        return path

    @classmethod
    def load(cls, path) -> CompilationResult:
        """Read a result previously written by :meth:`save`."""
        import json

        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def speedup_over(self, baseline: CompilationResult) -> float:
        """Latency ratio ``baseline / self`` (the Figure 9 metric)."""
        if self.latency_ns <= 0:
            return float("inf")
        return baseline.latency_ns / self.latency_ns

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.circuit_name} [{self.strategy_key}]: "
            f"{self.latency_ns:.1f} ns, {self.node_count} instructions, "
            f"{self.swap_count} swaps, widest {self.widest_instruction()}"
        )
