"""The end-to-end compilation entry points (paper Fig. 5, right side).

Since the pass-manager refactor, the pipeline is literally a list of
passes (see :mod:`repro.compiler.passes`) run by a
:class:`~repro.compiler.manager.PassManager` over a
:class:`~repro.compiler.context.CompilationContext`:

1. **Lowering** (``LowerPass``) — decompose everything to the standard
   logical set (1-qubit rotations, CNOT, SWAP).
2. **Commutativity detection** (``DetectDiagonalsPass``) — contract
   diagonal 2-qubit blocks (strategies with detection enabled).
3. **Logical scheduling** (``LogicalSchedulePass``) — CLS or plain
   program order.
4. **Mapping** (``PlaceAndRoutePass``) — recursive-bisection placement
   on the target device's coupling graph and SWAP-insertion routing
   (the paper's near-square grid unless a device is given).
5. **Backend** (``AggregatePass`` / ``HandOptimizePass`` / nothing) —
   instruction aggregation with the optimal-control unit, or
   hand-optimization rewrite rules, or nothing (ISA).
6. **Final scheduling** (``FinalSchedulePass``) — CLS (or list
   scheduling) with per-instruction pulse latencies; the makespan is the
   circuit latency Figure 9 plots.

:func:`compile_circuit` is the stable single-shot API: it resolves a
strategy (object or registered key) to its pipeline and returns a
:class:`~repro.compiler.result.CompilationResult` identical to the
pre-refactor monolith's.  :func:`compile_with_pipeline` runs an explicit
pass list — the hook for ad-hoc custom pipelines.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuit.circuit import Circuit
from repro.compiler.context import CompilationContext
from repro.compiler.manager import PassCallback, PassManager
from repro.compiler.passes import Pass, pipeline_prices_pulses
from repro.compiler.result import CompilationResult
from repro.compiler.strategies import ISA, Strategy, strategy_by_key
from repro.config import (
    CompilerConfig,
    DEFAULT_COMPILER,
    DEFAULT_DEVICE,
    DeviceConfig,
)
from repro.control.unit import OptimalControlUnit
from repro.device.device import Device


def compile_circuit(
    circuit: Circuit,
    strategy: Strategy | str = ISA,
    device: Device | DeviceConfig | str = DEFAULT_DEVICE,
    compiler_config: CompilerConfig = DEFAULT_COMPILER,
    ocu: OptimalControlUnit | None = None,
    width_limit: int | None = None,
    callbacks: Sequence[PassCallback] = (),
    verify_ir: bool = False,
) -> CompilationResult:
    """Compile a circuit under one strategy and report its pulse latency.

    Args:
        circuit: Logical circuit (any registered gates; lowered here).
        strategy: A :class:`Strategy` or the key of a registered one
            (built-in Figure 9 keys or custom registrations — register a
            strategy to compile a custom pipeline here and everywhere
            else jobs go).
        device: The compilation target: a full
            :class:`~repro.device.device.Device` (``Device(topology=T)``
            for a bare coupling graph ``T`` with paper physics), a preset
            key such as ``"ring-6"`` or ``"heavy-hex-2"``, or a bare
            :class:`DeviceConfig` (field limits and pulse overheads only;
            the mapping pass then sizes the paper's near-square grid to
            the circuit).
        compiler_config: Width limits, detection depth, the GRAPE time
            step, etc.
        ocu: Latency oracle; a fresh model-backend unit when omitted
            (pass a shared one to exploit the pulse cache across runs).
        width_limit: Override of ``compiler_config.max_instruction_width``;
            must be at least 1 (a limit of 1 disables merging entirely).
        callbacks: Per-pass hooks, invoked after each pass with
            ``(pass_, context, elapsed_seconds)``.
        verify_ir: Debug mode — check IR invariants after every pass
            and raise :class:`~repro.errors.IRVerificationError` naming
            the first pass that broke one (see :mod:`repro.analysis`).

    Returns:
        A :class:`CompilationResult`.
    """
    if isinstance(strategy, str):
        strategy = strategy_by_key(strategy)
    return compile_with_pipeline(
        circuit,
        strategy.pipeline(),
        strategy_key=strategy.key,
        # A strategy declares flags and pipeline jointly, so either
        # signal enables single-pulse pricing: its aggregation flag
        # (covers a custom backend pass the auto-detection cannot see)
        # or, through None, an AggregatePass in the resolved pipeline
        # (covers registered factories diverging from the flags).
        pulse_backend=True if strategy.aggregation else None,
        device=device,
        compiler_config=compiler_config,
        ocu=ocu,
        width_limit=width_limit,
        callbacks=callbacks,
        verify_ir=verify_ir,
    )


def compile_with_pipeline(
    circuit: Circuit,
    passes: Sequence[Pass],
    *,
    strategy_key: str = "custom",
    pulse_backend: bool | None = None,
    device: Device | DeviceConfig | str = DEFAULT_DEVICE,
    compiler_config: CompilerConfig = DEFAULT_COMPILER,
    ocu: OptimalControlUnit | None = None,
    width_limit: int | None = None,
    callbacks: Sequence[PassCallback] = (),
    verify_ir: bool = False,
) -> CompilationResult:
    """Compile through an explicit pass list (no strategy registration).

    Args:
        circuit: Logical circuit.
        passes: The pipeline to run, in order.
        strategy_key: Label recorded on the result.
        pulse_backend: Whether detected/aggregated blocks are priced as
            single optimized pulses.  Defaults to whether ``passes``
            contains an ``AggregatePass`` — only override it for a
            custom backend pass the auto-detection cannot see.

    The remaining arguments match :func:`compile_circuit`.
    """
    passes = list(passes)
    if pulse_backend is None:
        pulse_backend = pipeline_prices_pulses(passes)
    context = CompilationContext.create(
        circuit,
        strategy_key=strategy_key,
        pulse_backend=pulse_backend,
        device=device,
        compiler_config=compiler_config,
        ocu=ocu,
        width_limit=width_limit,
    )
    PassManager(passes, callbacks=callbacks, verify_ir=verify_ir).run(context)
    return context.result()
