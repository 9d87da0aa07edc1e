"""The pass manager: run a pipeline with timing, hooks, and error context.

A :class:`PassManager` holds an ordered pass list and threads one
:class:`~repro.compiler.context.CompilationContext` through it.  For
every pass it records wall-clock twice — under the pass's name in
``context.pass_seconds`` and under the pass's ``stage`` key in
``context.stage_seconds`` (the keys `compile_circuit` has always
reported) — and invokes any registered callbacks, qiskit-style, with
``(pass_, context, elapsed_seconds)``.

Failures keep their type when they are library errors
(:class:`~repro.errors.ReproError` subclasses) and gain a note naming
the failing pass and circuit; foreign exceptions escaping a pass are
wrapped in :class:`~repro.errors.PassExecutionError` carrying the same
structured context.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence

from repro.compiler.context import CompilationContext
from repro.compiler.passes import Pass
from repro.errors import ConfigError, PassExecutionError, ReproError

PassCallback = Callable[[Pass, CompilationContext, float], None]


class PassManager:
    """Runs an ordered pass pipeline over a compilation context.

    Args:
        passes: Initial pipeline (any iterable of :class:`Pass`).
        callbacks: Hooks invoked after every successful pass with
            ``(pass_, context, elapsed_seconds)``.
        verify_ir: Debug mode — snapshot and check IR invariants around
            every pass (:mod:`repro.analysis`), raising
            :class:`~repro.errors.IRVerificationError` naming the first
            pass that broke one.  Costs extra analysis time per pass;
            off by default.
    """

    def __init__(
        self,
        passes: Iterable[Pass] = (),
        callbacks: Sequence[PassCallback] = (),
        verify_ir: bool = False,
    ) -> None:
        self.passes: list[Pass] = []
        self._callbacks: list[PassCallback] = list(callbacks)
        self.verify_ir = bool(verify_ir)
        for pass_ in passes:
            self.append(pass_)

    def append(self, pass_: Pass) -> PassManager:
        """Add a pass to the end of the pipeline (chainable)."""
        if not isinstance(pass_, Pass):
            raise ConfigError(
                f"a pipeline entry must be a Pass instance, got {pass_!r}"
            )
        self.passes.append(pass_)
        return self

    def extend(self, passes: Iterable[Pass]) -> PassManager:
        """Add several passes (chainable)."""
        for pass_ in passes:
            self.append(pass_)
        return self

    def __len__(self) -> int:
        return len(self.passes)

    def __iter__(self):
        return iter(self.passes)

    def run(self, context: CompilationContext) -> CompilationContext:
        """Execute every pass in order; returns the same context."""
        verifier = None
        if self.verify_ir:
            # Imported on use: the analysis package pulls in every rule
            # pack, which the common (non-debug) path never needs.
            from repro.analysis.verifier import PipelineVerifier

            verifier = PipelineVerifier()
        for index, pass_ in enumerate(self.passes):
            context.current_pass_index = index
            if verifier is not None:
                verifier.before_pass(pass_, index, context)
            started = time.perf_counter()
            try:
                pass_.run(context)
            except ReproError as error:
                error.add_note(
                    f"[pass {index}: {pass_.name}] while compiling "
                    f"{context.circuit.name!r} under strategy "
                    f"{context.strategy_key!r}"
                )
                raise
            except Exception as error:
                raise PassExecutionError(
                    f"pass {pass_.name} (index {index}) failed on circuit "
                    f"{context.circuit.name!r} under strategy "
                    f"{context.strategy_key!r}: {error}",
                    pass_name=pass_.name,
                    pass_index=index,
                    circuit_name=context.circuit.name,
                    strategy_key=context.strategy_key,
                ) from error
            elapsed = time.perf_counter() - started
            context.pass_seconds[pass_.name] = (
                context.pass_seconds.get(pass_.name, 0.0) + elapsed
            )
            if pass_.stage is not None:
                context.stage_seconds[pass_.stage] = (
                    context.stage_seconds.get(pass_.stage, 0.0) + elapsed
                )
            for callback in self._callbacks:
                try:
                    callback(pass_, context, elapsed)
                except ReproError as error:
                    # Same contract as pass bodies: library errors keep
                    # their type and gain a locating note.
                    error.add_note(
                        f"[callback after pass {index}: {pass_.name}] while "
                        f"compiling {context.circuit.name!r} under strategy "
                        f"{context.strategy_key!r}"
                    )
                    raise
                except Exception as error:
                    # Callbacks are instrumentation; a buggy one must not
                    # escape as a bare exception with no compile context.
                    raise PassExecutionError(
                        f"callback {getattr(callback, '__name__', callback)!r} "
                        f"failed after pass {pass_.name} (index {index}) on "
                        f"circuit {context.circuit.name!r} under strategy "
                        f"{context.strategy_key!r}: {error}",
                        pass_name=pass_.name,
                        pass_index=index,
                        circuit_name=context.circuit.name,
                        strategy_key=context.strategy_key,
                    ) from error
            if verifier is not None:
                # After the callbacks: the next pass sees the context
                # exactly as verified, even if a callback mutated it.
                verifier.after_pass(pass_, index, context)
        context.current_pass_index = None
        return context
