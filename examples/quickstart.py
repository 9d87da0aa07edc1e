"""Quickstart: compile the paper's triangle-QAOA example both ways.

Builds the Figure 4 circuit (MAXCUT on a triangle, gamma = 5.67,
beta = 1.26), compiles it onto a 3-qubit line (the ``line-3`` device
preset) with standard gate-based (ISA) compilation and with the
aggregated-instruction flow, and prints the latency comparison plus the
final instruction schedule.

Run:  python examples/quickstart.py
"""

from repro.compiler import CLS_AGGREGATION, ISA, compile_circuit
from repro.control.unit import OptimalControlUnit
from repro.experiments.figure4 import triangle_circuit


def main() -> None:
    circuit = triangle_circuit()
    print(f"circuit: {circuit}")
    print(f"gates:   {dict(circuit.gate_counts())}")
    print()

    ocu = OptimalControlUnit(backend="model")

    isa = compile_circuit(circuit, ISA, ocu=ocu, device="line-3")
    aggregated = compile_circuit(
        circuit, CLS_AGGREGATION, ocu=ocu, device="line-3"
    )

    print(f"gate-based (ISA) latency:  {isa.latency_ns:7.1f} ns "
          f"({isa.node_count} pulses)   [paper: 381.9 ns]")
    print(f"aggregated latency:        {aggregated.latency_ns:7.1f} ns "
          f"({aggregated.node_count} pulses)   [paper: 128.3 ns]")
    print(f"speedup:                   {aggregated.speedup_over(isa):7.2f} x"
          f"            [paper: 2.97x]")
    print()

    print("final aggregated schedule:")
    for operation in sorted(aggregated.schedule, key=lambda op: op.start):
        node = operation.node
        members = getattr(node, "gates", [node])
        names = ",".join(g.name for g in members)
        print(
            f"  t={operation.start:6.1f} ns  {operation.duration:5.1f} ns  "
            f"qubits {node.qubits}  [{names}]"
        )


if __name__ == "__main__":
    main()
