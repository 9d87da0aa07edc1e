"""The shared state a pass pipeline rewrites (paper Fig. 5's data flow).

A :class:`CompilationContext` carries one circuit's evolving intermediate
representation from lowering to the final physical schedule: the current
node list, the logical and physical dependence graphs, the placement and
routing outcome, the schedule, and per-pass instrumentation.  Passes
(:mod:`repro.compiler.passes`) read and write the context; the
:class:`~repro.compiler.manager.PassManager` threads it through a
pipeline and records timings.

The context also owns the latency oracle used everywhere a pass needs an
instruction cost: :meth:`CompilationContext.latency` reproduces the
pipeline's pricing rule — hand-optimized blocks carry their own latency,
detection-only aggregates (no pulse backend) price as their member gates,
everything else asks the optimal-control unit.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.aggregation.instruction import AggregatedInstruction
from repro.circuit.circuit import Circuit
from repro.circuit.commutation import CommutationChecker
from repro.circuit.dag import GateDependenceGraph
from repro.compiler.result import CompilationResult
from repro.config import (
    CompilerConfig,
    DEFAULT_COMPILER,
    DEFAULT_DEVICE,
    DeviceConfig,
)
from repro.control.unit import OptimalControlUnit
from repro.device.device import Device, coerce_device
from repro.device.topology import Topology
from repro.errors import ConfigError, PassOrderingError
from repro.mapping.router import RoutingResult
from repro.scheduling.schedule import Schedule

STAGES = (
    "lowering",
    "detection",
    "logical_scheduling",
    "mapping",
    "backend",
    "final_scheduling",
)
"""Canonical stage keys of ``CompilationResult.stage_seconds``.

Every context starts with all six at 0.0 so results keep the same key
set regardless of which passes a pipeline actually runs.  The built-in
passes accrue into these six; a custom pass may declare any other
``stage`` name, which *extends* the key set for that result (stage
names are not validated — a misspelled stage lands under the misspelled
key rather than raising).
"""


def _zero_stages() -> dict[str, float]:
    return dict.fromkeys(STAGES, 0.0)


@dataclasses.dataclass
class CompilationContext:
    """Everything one compilation carries between passes.

    The first block is fixed input (circuit, physics, configuration,
    oracle); the second is the evolving IR each pass rewrites; the third
    is instrumentation the pass manager and the passes fill in.
    """

    circuit: Circuit
    device_config: DeviceConfig
    compiler_config: CompilerConfig
    ocu: OptimalControlUnit
    checker: CommutationChecker
    width_limit: int
    strategy_key: str = "custom"
    pulse_backend: bool = False
    """Whether aggregated blocks execute as single optimized pulses.

    When False (no aggregation backend), a detected diagonal block still
    exists for scheduling freedom but prices as its member gates, one
    pulse each — the pricing rule of the pre-pass-manager pipeline.
    """
    device: Device | None = None
    """The full compilation target (coupling graph + physics + overrides).

    None until resolved: callers who give only a :class:`DeviceConfig`
    leave the topology to ``PlaceAndRoutePass``, which sizes the paper's
    near-square grid to the circuit and records the resulting default
    :class:`Device` here.
    """
    topology: Topology | None = None
    """The device's coupling graph (mirrors ``device.topology``)."""

    # Evolving IR --------------------------------------------------------
    nodes: list | None = None
    """Current logical node list (gates and detected blocks)."""
    lowered_gate_count: int | None = None
    logical_dag: GateDependenceGraph | None = None
    routing: RoutingResult | None = None
    physical_nodes: list | None = None
    """Routed nodes over physical qubits (SWAPs inserted)."""
    physical_dag: GateDependenceGraph | None = None
    schedule: Schedule | None = None
    aggregation_merges: int = 0

    # Instrumentation ----------------------------------------------------
    stage_seconds: dict[str, float] = dataclasses.field(
        default_factory=_zero_stages
    )
    pass_seconds: dict[str, float] = dataclasses.field(default_factory=dict)
    """Wall-clock per pass name (accumulated when a name repeats)."""
    metrics: dict[str, dict[str, Any]] = dataclasses.field(
        default_factory=dict
    )
    """Per-pass structured metrics, keyed by pass name."""
    current_pass_index: int | None = None
    """Pipeline position of the pass currently running (set by the
    :class:`~repro.compiler.manager.PassManager`), so ordering errors
    can cite where in the pipeline they happened."""

    @classmethod
    def create(
        cls,
        circuit: Circuit,
        *,
        strategy_key: str = "custom",
        pulse_backend: bool = False,
        device: Device | DeviceConfig | str = DEFAULT_DEVICE,
        compiler_config: CompilerConfig = DEFAULT_COMPILER,
        ocu: OptimalControlUnit | None = None,
        width_limit: int | None = None,
    ) -> CompilationContext:
        """A ready-to-run context with validated width limit and oracle.

        ``device`` accepts a full :class:`Device`, a registered preset
        key (``"ring-6"``), or a bare :class:`DeviceConfig`, for which
        the mapping pass sizes the paper grid later.
        """
        device, device_config = coerce_device(device)
        ocu = ocu or OptimalControlUnit(
            device=device if device is not None else device_config,
            compiler=compiler_config,
        )
        # Positional pricing must agree in both directions: an OCU built
        # for heterogeneous couplings would misprice any other device's
        # edges, and a heterogeneous device needs an OCU that knows its
        # overrides.  (t1/t2 overrides never reach the oracle, so they
        # impose no pairing.)
        ocu_target = getattr(ocu, "target", None)
        ocu_positional = (
            ocu_target is not None and ocu_target.has_heterogeneous_couplings
        )
        device_positional = (
            device is not None and device.has_heterogeneous_couplings
        )
        if ocu_positional or device_positional:
            if (
                device is None
                or ocu_target is None
                or ocu_target.coupling_signature()
                != device.coupling_signature()
            ):
                raise ConfigError(
                    f"per-edge coupling overrides require a matched "
                    f"oracle: compiling onto {device!r} with an OCU built "
                    f"for {ocu_target!r} would misprice edges; construct "
                    f"the OCU with the same device (or omit ocu=)"
                )
        if width_limit is None:
            width_limit = compiler_config.max_instruction_width
        elif width_limit < 1:
            raise ConfigError(
                f"width_limit must be at least 1, got {width_limit}"
            )
        checker = CommutationChecker(
            exact_qubits=compiler_config.exact_commutation_qubits
        )
        return cls(
            circuit=circuit,
            device_config=device_config,
            compiler_config=compiler_config,
            ocu=ocu,
            checker=checker,
            width_limit=width_limit,
            strategy_key=strategy_key,
            pulse_backend=pulse_backend,
            device=device,
            topology=device.topology if device is not None else None,
        )

    # ------------------------------------------------------------------
    # Latency oracle

    def latency(self, node) -> float:
        """Instruction cost in nanoseconds (the schedulers' weight fn).

        Until routing has produced physical nodes, node indices are
        *logical* — they name no device edge — so heterogeneous targets
        price them at the homogeneous baseline (``positional=False``);
        after routing, per-edge overrides apply.
        """
        hand_latency = getattr(node, "hand_latency_ns", None)
        if hand_latency is not None:
            return hand_latency
        positional = self.routing is not None
        if isinstance(node, AggregatedInstruction) and not self.pulse_backend:
            # Detection-only block: it exists for scheduling freedom, but
            # without an optimal-control backend it still executes as its
            # member gates, one pulse each.
            return sum(
                self.ocu.latency(gate, positional) for gate in node.gates
            )
        return self.ocu.latency(node, positional)

    # ------------------------------------------------------------------
    # Validation helpers for passes

    def require(self, attribute: str, needed_by: str, hint: str) -> Any:
        """The named context attribute, or a clear ordering error.

        Args:
            attribute: Context field a pass is about to read.
            needed_by: Name of the requiring pass (for the message).
            hint: What the pipeline is missing (e.g. "run LowerPass
                first").
        """
        value = getattr(self, attribute)
        if value is None:
            # The producer hint comes from the same requires/produces
            # contract metadata the static analyzer checks, so runtime
            # and registration-time diagnostics never disagree.
            from repro.analysis.contracts import missing_field_hint

            position = (
                f" at pipeline position {self.current_pass_index}"
                if self.current_pass_index is not None
                else ""
            )
            raise PassOrderingError(
                f"{needed_by}{position} requires context.{attribute}, "
                f"which no earlier pass produced "
                f"({missing_field_hint(attribute)}; {hint}); circuit "
                f"{self.circuit.name!r}, strategy {self.strategy_key!r}"
            )
        return value

    def ensure_physical_dag(self, needed_by: str) -> GateDependenceGraph:
        """The physical-qubit dependence graph, built on first use.

        Hand optimization invalidates it (it rewrites the node list);
        aggregation and final scheduling share one instance so merges
        executed by the aggregator are what the scheduler sees.  Build
        time accrues to whichever pass triggers construction — the
        ``backend`` stage for aggregating pipelines, ``final_scheduling``
        otherwise (the pre-refactor monolith always charged it to
        ``backend``; only the attribution moved, never the work).
        """
        if self.physical_dag is None:
            nodes = self.require(
                "physical_nodes", needed_by, "run PlaceAndRoutePass first"
            )
            topology = self.require(
                "topology", needed_by, "run PlaceAndRoutePass first"
            )
            self.physical_dag = GateDependenceGraph(
                topology.num_qubits, nodes, self.checker.commute
            )
        return self.physical_dag

    def invalidate_physical_dag(self) -> None:
        """Drop the cached physical DAG after rewriting physical_nodes."""
        self.physical_dag = None

    def record_metrics(self, pass_name: str, **values: Any) -> None:
        """Merge structured metrics under a pass's name.

        Repeated keys overwrite (last write wins): unlike wall-clock,
        metrics are heterogeneous — summing would corrupt ratios like
        ``improvement`` — so a pipeline running the same pass class
        twice should give each instance a distinct ``name`` (override
        the :attr:`Pass.name` property) to keep both readings.
        """
        self.metrics.setdefault(pass_name, {}).update(values)

    # ------------------------------------------------------------------

    def result(self) -> CompilationResult:
        """Package the finished context as a :class:`CompilationResult`."""
        schedule = self.require(
            "schedule", "CompilationContext.result", "run FinalSchedulePass"
        )
        routing = self.require(
            "routing", "CompilationContext.result", "run PlaceAndRoutePass"
        )
        topology = self.require(
            "topology", "CompilationContext.result", "run PlaceAndRoutePass"
        )
        return CompilationResult(
            strategy_key=self.strategy_key,
            circuit_name=self.circuit.name,
            logical_qubits=self.circuit.num_qubits,
            physical_qubits=topology.num_qubits,
            schedule=schedule,
            latency_ns=schedule.makespan,
            swap_count=routing.swap_count,
            lowered_gate_count=self.lowered_gate_count or 0,
            aggregation_merges=self.aggregation_merges,
            stage_seconds=dict(self.stage_seconds),
            final_mapping=routing.placement.as_dict(),
            initial_mapping=routing.initial_placement.as_dict(),
            pass_seconds=dict(self.pass_seconds),
            device_name=self.device.name if self.device is not None else None,
            source_circuit=self.circuit,
        )
