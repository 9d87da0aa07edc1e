"""Diagonal-unitary detection: the commutativity-detection stage.

Paper Sec. 3.3.1 / 4.2: near-term workloads are full of CNOT-Rz-CNOT
structures whose members do not commute but whose *blocks* do (they are
diagonal unitaries).  To preserve parallelism the paper detects diagonal
unitaries only in blocks of width 2 and bounded depth.

This pass scans the flattened gate stream, collects maximal consecutive
runs supported on a single qubit pair, and contracts the longest prefix
of each run whose product is diagonal (and genuinely entangling-capable,
i.e. contains a two-qubit gate) into an
:class:`~repro.aggregation.instruction.AggregatedInstruction`.  The
resulting node stream — diagonal blocks plus untouched gates — feeds GDG
construction, where diagonal blocks sharing qubits now commute and give
CLS its scheduling freedom (paper Fig. 6(b)).

The hand-optimization backend
(:func:`~repro.compiler.hand_opt.hand_optimize`) reruns the same scan on
the routed stream, where earlier blocks and instructions already sit
among the gates: any node that is not a plain gate passes through
unchanged and ends the window in front of it."""

from __future__ import annotations

import numpy as np

from repro.aggregation.instruction import AggregatedInstruction
from repro.config import CompilerConfig, DEFAULT_COMPILER
from repro.gates.gate import Gate
from repro.linalg.embed import embed_operator
from repro.linalg.predicates import is_diagonal


def detect_diagonal_blocks(
    nodes,
    config: CompilerConfig = DEFAULT_COMPILER,
) -> list:
    """Contract diagonal 2-qubit blocks in a node stream.

    Args:
        nodes: Program-order nodes: gates, plus any instructions an
            earlier stage built (those pass through unchanged).
        config: Supplies the block depth limit.

    Returns:
        A node list mixing untouched nodes and diagonal instructions.
    """
    nodes = list(nodes)
    output: list = []
    index = 0
    while index < len(nodes):
        block_length = 0
        if isinstance(nodes[index], Gate):
            window, support = _pair_window(
                nodes, index, config.diagonal_block_depth
            )
            block_length = _longest_diagonal_prefix(window, support)
        if block_length >= 3:
            block = nodes[index : index + block_length]
            output.append(AggregatedInstruction(block, name=None))
            index += block_length
        else:
            output.append(nodes[index])
            index += 1
    return output


def _pair_window(nodes, start: int, depth_limit: int) -> tuple[list, tuple]:
    """Maximal run of gates from ``start`` supported on <= 2 qubits.

    The window extends while each next node is a gate keeping the joint
    support within two qubits; it is capped at ``depth_limit`` gates
    (the paper notes blocks are "typically no longer than 10 gates").
    """
    support: set[int] = set(nodes[start].qubits)
    window = [nodes[start]]
    position = start + 1
    while position < len(nodes) and len(window) < depth_limit:
        gate = nodes[position]
        if not isinstance(gate, Gate):
            break
        union = support | set(gate.qubits)
        if len(union) > 2:
            # Gates on other qubits end the consecutive pair run only if
            # they overlap it; disjoint gates cannot be skipped safely
            # here (program order is the dependence order), so stop.
            break
        support = union
        window.append(gate)
        position += 1
    return window, tuple(sorted(support))


def _longest_diagonal_prefix(window: list[Gate], support: tuple) -> int:
    """Length of the longest diagonal prefix containing a 2-qubit gate."""
    if len(support) > 2 or len(window) < 3:
        return 0
    width = len(support)
    index = {qubit: position for position, qubit in enumerate(support)}
    total = np.eye(2**width, dtype=complex)
    best = 0
    has_two_qubit = False
    for length, gate in enumerate(window, start=1):
        positions = [index[q] for q in gate.qubits]
        total = embed_operator(gate.matrix, positions, width) @ total
        has_two_qubit = has_two_qubit or gate.num_qubits == 2
        if length >= 3 and has_two_qubit and is_diagonal(total):
            best = length
    return best
