"""Hand optimization: mechanical application of known iSWAP identities.

The paper's strongest comparator short of optimal control applies the
documented pulse identities for XY architectures (Schuch & Siewert 2003;
Neeley et al. 2010) "with our best effort".  The rules implemented here:

1. **ZZ blocks from two XY segments** — a CNOT-Rz-CNOT (or longer
   diagonal) run on one pair is replaced by the two-segment XY
   construction: two pre-programmed coupling pulses (each paying its own
   setup overhead — hand pulses are concatenated, not co-optimized) that
   realize the block's interaction content, plus the residual local
   rotations at the drive rate.
2. **Single-qubit run fusion** — consecutive one-qubit gates on a qubit
   collapse into one rotation pulse.

Neither rule keeps a structural rule of its own.  Rule 1's blocks are
the commutativity detector's
(:func:`~repro.aggregation.diagonal.detect_diagonal_blocks`, rerun on
the routed stream at the same ``CompilerConfig.diagonal_block_depth``),
and both rules price through the analytic latency model
(:class:`~repro.control.latency_model.AnalyticLatencyModel`): its pair
coupling rate and residual-local charge for rule 1, its sequence
latency for rule 2.

A :class:`HandOptimizedInstruction` carries its explicit
``hand_latency_ns`` so the pipeline's latency oracle bypasses the
optimal-control unit for these nodes.
"""

from __future__ import annotations

import itertools

from repro.aggregation.diagonal import detect_diagonal_blocks
from repro.aggregation.instruction import AggregatedInstruction
from repro.config import (
    CompilerConfig,
    DEFAULT_COMPILER,
    DEFAULT_DEVICE,
    DeviceConfig,
)
from repro.control.latency_model import AnalyticLatencyModel
from repro.gates.gate import Gate
from repro.linalg.kak import interaction_time


class HandOptimizedInstruction(AggregatedInstruction):
    """An aggregated block whose latency comes from a hand rule."""

    def __init__(self, gates, hand_latency_ns: float, name=None) -> None:
        super().__init__(gates, name=name)
        self.hand_latency_ns = float(hand_latency_ns)

    def on(self, new_qubits):
        moved = super().on(new_qubits)
        return HandOptimizedInstruction(
            moved.gates, self.hand_latency_ns, name=self.name
        )


def hand_optimize(
    nodes,
    device: DeviceConfig = DEFAULT_DEVICE,
    target=None,
    config: CompilerConfig = DEFAULT_COMPILER,
) -> list:
    """Apply the hand rules to a routed node stream.

    ``target`` is the optional full
    :class:`~repro.device.device.Device`: the nodes here carry physical
    qubit indices, so a diagonal pair block on an edge with a per-edge
    coupling-limit override is priced at that edge's rate — the same
    policy the optimal-control oracle applies.  ``config`` supplies the
    detector's block depth.
    """
    model = AnalyticLatencyModel(device, target)
    with_zz = [
        HandOptimizedInstruction(
            node.gates, hand_zz_latency(node, model), name=node.name
        )
        if isinstance(node, AggregatedInstruction) and node.width == 2
        else node
        for node in detect_diagonal_blocks(nodes, config)
    ]
    return _fuse_single_qubit_runs(with_zz, model)


def hand_zz_latency(
    block: AggregatedInstruction, model: AnalyticLatencyModel
) -> float:
    """Latency of the two-segment XY realization of a diagonal pair
    block, at the coupling rate of the block's edge."""
    busy = interaction_time(block.matrix, model.coupling_rate(block.qubits))
    local = model.residual_local_time(block.matrix)
    return 2.0 * model.device.setup_time_2q_ns + busy + local


def _fuse_single_qubit_runs(nodes: list, model: AnalyticLatencyModel) -> list:
    """Rule 2: collapse consecutive 1-qubit gates per qubit."""
    output: list = []
    for qubit, members in itertools.groupby(nodes, key=_single_qubit):
        run = list(members)
        if qubit is None or len(run) == 1:
            output.extend(run)
        else:
            output.append(
                HandOptimizedInstruction(
                    run, model.sequence_latency(run), name=None
                )
            )
    return output


def _single_qubit(node) -> int | None:
    """The qubit of a one-qubit gate; None for every other node."""
    if isinstance(node, Gate) and node.num_qubits == 1:
        return node.qubits[0]
    return None
