"""The compiler's rewriting passes (paper Fig. 5, one stage per pass).

Each pass is a small object with a ``run(context)`` method that rewrites
one facet of the :class:`~repro.compiler.context.CompilationContext`:

* :class:`LowerPass` — decompose to the standard logical set
  (1-qubit rotations, CNOT, SWAP).
* :class:`DetectDiagonalsPass` — contract diagonal 2-qubit blocks
  (commutativity detection, Sec. 4.2).
* :class:`LogicalSchedulePass` — CLS or plain program order over the
  logical dependence graph.
* :class:`PlaceAndRoutePass` — recursive-bisection placement on the
  target device's coupling graph and SWAP-insertion routing.
* :class:`HandOptimizePass` — mechanical iSWAP pulse identities (the
  paper's strongest prior-art backend).
* :class:`AggregatePass` — monotonic instruction aggregation against the
  optimal-control unit (Sec. 4.3).
* :class:`FinalSchedulePass` — CLS or list scheduling with per-
  instruction pulse latencies; the makespan is Figure 9's y-axis.

Custom passes subclass :class:`Pass`, read context fields through
``context.require`` (so mis-ordered pipelines fail with a clear
:class:`~repro.errors.PassOrderingError`), and can record structured
metrics via ``context.record_metrics``.  See ``examples/custom_pass.py``.
"""

from __future__ import annotations

import abc
import copy

from repro.aggregation.aggregator import aggregate
from repro.aggregation.diagonal import detect_diagonal_blocks
from repro.aggregation.instruction import AggregatedInstruction
from repro.circuit.dag import GateDependenceGraph
from repro.compiler.context import CompilationContext
from repro.compiler.hand_opt import hand_optimize
from repro.device.device import Device
from repro.device.topology import grid_for
from repro.gates.decompositions import lower_to_standard_set
from repro.mapping.placement import initial_placement
from repro.mapping.router import route
from repro.scheduling.cls import cls_schedule
from repro.scheduling.list_scheduler import list_schedule


class Pass(abc.ABC):
    """One rewriting step over a :class:`CompilationContext`.

    Attributes:
        requires: Context fields this pass reads; an earlier pass (or
            context creation) must have produced them.  The static
            contract analyzer (:mod:`repro.analysis.contracts`) checks
            this at strategy-registration time, and runtime
            ``context.require`` errors cite the same metadata.
        produces: Context fields this pass fills in for later passes.
        preserves_gates: Declares that the pass rewrites *structure*
            only — it may reorder or regroup the underlying gate
            objects but never create, drop or alter them.  The
            ``verify_ir`` transition rules (REP133/REP134) only run
            across passes that declare this.
    """

    requires: tuple[str, ...] = ()
    produces: tuple[str, ...] = ()
    preserves_gates: bool = False

    @property
    def name(self) -> str:
        """Display name (the class name unless overridden)."""
        return type(self).__name__

    @abc.abstractmethod
    def run(self, context: CompilationContext) -> None:
        """Rewrite the context in place."""

    def __repr__(self) -> str:
        return f"{self.name}()"


class LowerPass(Pass):
    """Decompose every gate to the standard logical set."""

    produces = ("nodes", "lowered_gate_count")

    def run(self, context: CompilationContext) -> None:
        lowered = lower_to_standard_set(context.circuit.gates)
        # Standard gates pass through lowering as the same objects, and
        # the dependence graph tracks each occurrence by node identity:
        # a Gate instance the circuit holds twice gets its own node per
        # repeat (the copy keeps the matrix and the cached signature).
        seen: set = set()
        nodes: list = []
        for gate in lowered:
            if gate in seen:
                gate = copy.copy(gate)
            seen.add(gate)
            nodes.append(gate)
        context.nodes = nodes
        context.lowered_gate_count = len(lowered)
        context.record_metrics(self.name, lowered_gates=len(lowered))


class DetectDiagonalsPass(Pass):
    """Contract runs of gates forming diagonal 2-qubit blocks."""

    requires = ("nodes",)
    produces = ("nodes",)
    preserves_gates = True

    def run(self, context: CompilationContext) -> None:
        nodes = context.require("nodes", self.name, "run LowerPass first")
        detected = detect_diagonal_blocks(nodes, context.compiler_config)
        context.nodes = detected
        context.record_metrics(
            self.name,
            blocks=sum(
                isinstance(node, AggregatedInstruction) for node in detected
            ),
        )


class LogicalSchedulePass(Pass):
    """Order the logical nodes: CLS reordering or stable program order."""

    requires = ("nodes",)
    produces = ("nodes", "logical_dag")
    preserves_gates = True

    def __init__(self, use_cls: bool = True) -> None:
        self.use_cls = use_cls

    def run(self, context: CompilationContext) -> None:
        nodes = context.require("nodes", self.name, "run LowerPass first")
        dag = GateDependenceGraph(
            context.circuit.num_qubits, nodes, context.checker.commute
        )
        if self.use_cls:
            order = cls_schedule(dag, context.latency).ordered_nodes()
            dag.reorder(order)
        context.logical_dag = dag
        context.nodes = dag.stable_topological_order()


class PlaceAndRoutePass(Pass):
    """Place on the target device (recursive bisection) and insert
    routing SWAPs along its coupling graph.

    Resolves the compilation target when the caller left it open: with
    no device on the context, the paper's near-square grid is sized to
    the circuit and recorded as a :class:`~repro.device.device.Device`
    with the context's physics.
    """

    requires = ("nodes",)
    produces = ("device", "topology", "routing", "physical_nodes")

    def run(self, context: CompilationContext) -> None:
        nodes = context.require("nodes", self.name, "run LowerPass first")
        if context.device is None:
            context.device = Device(
                topology=grid_for(context.circuit.num_qubits),
                config=context.device_config,
            )
        context.topology = context.device.topology
        placement = initial_placement(context.circuit, context.topology)
        routing = route(nodes, placement)
        context.routing = routing
        context.physical_nodes = routing.nodes
        context.invalidate_physical_dag()
        context.record_metrics(self.name, swaps=routing.swap_count)


class HandOptimizePass(Pass):
    """Rewrite routed nodes with the documented iSWAP pulse identities."""

    requires = ("physical_nodes",)
    produces = ("physical_nodes",)

    def run(self, context: CompilationContext) -> None:
        nodes = context.require(
            "physical_nodes", self.name, "run PlaceAndRoutePass first"
        )
        before = len(nodes)
        context.physical_nodes = hand_optimize(
            nodes,
            context.device_config,
            target=context.device,
            config=context.compiler_config,
        )
        context.invalidate_physical_dag()
        context.record_metrics(
            self.name, nodes_before=before, nodes_after=len(context.physical_nodes)
        )


class AggregatePass(Pass):
    """Monotonic instruction aggregation over the physical DAG.

    The width limit comes from the context (the job's, else
    ``CompilerConfig.max_instruction_width``) and the round cap from
    ``CompilerConfig.max_aggregation_rounds``.
    """

    requires = ("physical_nodes", "topology")
    preserves_gates = True

    def run(self, context: CompilationContext) -> None:
        report = aggregate(
            context.ensure_physical_dag(self.name),
            context.ocu,
            width_limit=context.width_limit,
            max_rounds=context.compiler_config.max_aggregation_rounds,
        )
        context.aggregation_merges += report.merges
        context.record_metrics(
            self.name,
            merges=report.merges,
            rounds=report.rounds,
            improvement=report.improvement,
        )


def pipeline_prices_pulses(passes) -> bool:
    """Whether a pass list gives aggregated blocks single-pulse pricing.

    True when an :class:`AggregatePass` is present: the optimal-control
    backend then compiles each block into one optimized pulse, so the
    context's latency oracle must not price blocks as their member
    gates.  Used to derive ``pulse_backend`` for explicit pipelines.
    """
    return any(isinstance(pass_, AggregatePass) for pass_ in passes)


class FinalSchedulePass(Pass):
    """Produce the final physical schedule (CLS or list scheduling)."""

    requires = ("physical_nodes", "topology")
    produces = ("schedule",)
    preserves_gates = True

    def __init__(self, use_cls: bool = True) -> None:
        self.use_cls = use_cls

    def run(self, context: CompilationContext) -> None:
        dag = context.ensure_physical_dag(self.name)
        if self.use_cls:
            schedule = cls_schedule(dag, context.latency)
        else:
            schedule = list_schedule(dag, context.latency)
        context.schedule = schedule
        context.record_metrics(self.name, makespan_ns=schedule.makespan)
