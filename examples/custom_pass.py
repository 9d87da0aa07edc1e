"""A user-defined pass and a sixth strategy, without touching repro internals.

Registers ``GateCancellationPass`` — a peephole that deletes adjacent
self-inverse gate pairs (H·H, CNOT·CNOT, ...) from the lowered node
list — plus a sixth strategy ``peephole+cls+aggregation`` that runs it
in front of the paper's full flow.  The strategy then compiles through
the batch engine exactly like the built-in five, and a per-pass callback
shows where the compile time went.

The demo circuit is a QAOA layer padded with redundant gate pairs, so
the peephole has real work to do; on it the custom strategy must match
or beat plain ``cls+aggregation``.

Run:  python examples/custom_pass.py
"""

from __future__ import annotations

from repro.benchmarks.qaoa import line_graph, maxcut_qaoa_circuit
from repro.circuit.circuit import Circuit
from repro.compiler import (
    AggregatePass,
    BatchCompiler,
    BatchJob,
    DetectDiagonalsPass,
    FinalSchedulePass,
    LogicalSchedulePass,
    LowerPass,
    Pass,
    PlaceAndRoutePass,
    Strategy,
    compile_circuit,
    format_pass_table,
    register_strategy,
)

#: Parameter-free gates that are their own inverse: two in a row on the
#: same qubits (in the same order) multiply to the identity.
SELF_INVERSE = frozenset({"H", "X", "Y", "Z", "CNOT", "CZ", "SWAP"})


class GateCancellationPass(Pass):
    """Peephole: remove adjacent self-inverse pairs from the node list.

    Two consecutive list entries with the same self-inverse name, the
    same qubit tuple, and no parameters compose to the identity; because
    the node list is program order, list-adjacent nodes on identical
    qubit sets are also dependence-adjacent, so dropping the pair is
    always sound.  Iterates to a fixed point (H·H·H·H collapses fully).
    """

    def run(self, context) -> None:
        nodes = context.require("nodes", self.name, "run LowerPass first")
        removed = 0
        result: list = []
        for node in nodes:
            previous = result[-1] if result else None
            if (
                previous is not None
                and self._cancels(previous, node)
            ):
                result.pop()
                removed += 2
            else:
                result.append(node)
        context.nodes = result
        context.record_metrics(self.name, gates_removed=removed)

    @staticmethod
    def _cancels(a, b) -> bool:
        name_a = getattr(a, "name", None)
        return (
            name_a in SELF_INVERSE
            and name_a == getattr(b, "name", None)
            and getattr(a, "qubits", None) == getattr(b, "qubits", None)
            and not getattr(a, "params", ())
            and not getattr(b, "params", ())
        )


PEEPHOLE_FULL_FLOW = register_strategy(
    Strategy(
        key="peephole+cls+aggregation",
        description="gate-cancellation peephole + the full proposed flow",
        commutativity_detection=True,
        cls_scheduling=True,
        aggregation=True,
        hand_optimization=False,
    ),
    pipeline_factory=lambda strategy: [
        LowerPass(),
        GateCancellationPass(),
        DetectDiagonalsPass(),
        LogicalSchedulePass(use_cls=True),
        PlaceAndRoutePass(),
        AggregatePass(),
        FinalSchedulePass(use_cls=True),
    ],
)


def build_redundant_circuit() -> Circuit:
    """A QAOA layer with cancellable H·H and CNOT·CNOT padding."""
    qaoa = maxcut_qaoa_circuit(line_graph(6), name="line6-redundant")
    circuit = Circuit(qaoa.num_qubits, name=qaoa.name)
    for index, gate in enumerate(qaoa.gates):
        circuit.append(gate)
        if index % 3 == 0:
            # Inject an identity-pair after every third gate.
            qubit = gate.qubits[0]
            circuit.h(qubit).h(qubit)
    circuit.cnot(0, 1).cnot(0, 1)
    return circuit


def main() -> int:
    circuit = build_redundant_circuit()

    # Single-shot API: registered keys work like built-in ones.
    single = compile_circuit(circuit, "peephole+cls+aggregation")
    print(f"compile_circuit by key: {single.summary()}")

    # Batch engine with a per-pass instrumentation callback.
    cancelled: list[int] = []

    def watch(pass_, context, elapsed):
        if pass_.name == "GateCancellationPass":
            cancelled.append(context.metrics[pass_.name]["gates_removed"])

    engine = BatchCompiler(max_workers=2, pass_callbacks=[watch])
    report = engine.compile_batch(
        [
            BatchJob(circuit=circuit, strategy="cls+aggregation"),
            BatchJob(circuit=circuit, strategy=PEEPHOLE_FULL_FLOW),
        ]
    )
    baseline, peephole = report.results
    print(
        f"cls+aggregation          : {baseline.latency_ns:8.1f} ns, "
        f"{baseline.node_count} instructions"
    )
    print(
        f"peephole+cls+aggregation : {peephole.latency_ns:8.1f} ns, "
        f"{peephole.node_count} instructions "
        f"({cancelled[0]} redundant gates removed)"
    )
    print("per-pass seconds over the batch:")
    print(format_pass_table(report.pass_seconds))

    if cancelled[0] == 0 or peephole.latency_ns > baseline.latency_ns + 1e-6:
        print("FAIL: the peephole should remove gates and not regress latency")
        return 1
    print("OK: custom pass + sixth strategy compiled through the batch engine")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
