"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  Subclasses map one-to-one onto the
major subsystems (circuit IR, scheduling, mapping, control, ...).
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """Invalid device or compiler configuration."""


class LinalgError(ReproError):
    """A linear-algebra routine received an invalid operand."""


class GateError(ReproError):
    """Invalid gate construction or decomposition request."""


class CircuitError(ReproError):
    """Invalid circuit construction or manipulation."""


class QasmError(CircuitError):
    """Failure while parsing or emitting the QASM dialect."""


class PassOrderingError(ReproError):
    """A compiler pass ran before the context state it needs existed.

    Raised by :meth:`~repro.compiler.context.CompilationContext.require`
    when, for example, a scheduling pass runs before lowering produced
    any nodes.  The message names the offending pass and the missing
    context attribute.
    """


class PassExecutionError(ReproError):
    """A compiler pass raised a non-library exception.

    Library errors (:class:`ReproError` subclasses) propagate unchanged —
    the pass manager only annotates them with the failing pass and
    circuit — but a foreign exception escaping a (typically user-defined)
    pass is wrapped in this type so callers still get structured context.

    Attributes:
        pass_name: Name of the pass that raised.
        pass_index: Position of that pass in its pipeline.
        circuit_name: Name of the circuit being compiled.
        strategy_key: Key of the strategy whose pipeline was running.
    """

    def __init__(
        self,
        message: str,
        *,
        pass_name: str | None = None,
        pass_index: int | None = None,
        circuit_name: str | None = None,
        strategy_key: str | None = None,
    ) -> None:
        super().__init__(message)
        self.pass_name = pass_name
        self.pass_index = pass_index
        self.circuit_name = circuit_name
        self.strategy_key = strategy_key


class SchedulingError(ReproError):
    """A scheduler produced or received an inconsistent state."""


class MappingError(ReproError):
    """Qubit placement or routing failure."""


class AggregationError(ReproError):
    """Invalid instruction-aggregation action."""


class ControlError(ReproError):
    """Quantum-optimal-control (GRAPE / latency model) failure."""


class VerificationError(ReproError):
    """A pulse sequence failed to reproduce its target unitary."""


class SerializationError(ReproError):
    """A wire-format payload could not be written or read.

    Raised by :mod:`repro.ir.serialize` on version mismatches, unknown
    artifact kinds, and structurally malformed payloads.
    """


class AnalysisError(ReproError):
    """Static analysis could not run over an artifact.

    Raised by :mod:`repro.analysis` when an analyzer receives something
    it cannot inspect (an unknown artifact kind, an unreadable file) —
    *not* when an artifact merely violates a rule; violations are data
    (:class:`~repro.analysis.Violation`), reported, never raised.
    """


class IRVerificationError(AnalysisError):
    """The IR verifier found a broken invariant between compiler passes.

    Raised in ``verify_ir`` debug mode
    (:class:`~repro.compiler.manager.PassManager`) when the pass that
    just ran left the evolving IR violating an ERROR-severity rule.  The
    message names the offending pass, its pipeline position, and every
    fired rule ID, so a wrong-output compilation is attributed to the
    *first* pass that broke an invariant instead of to the final
    equivalence check.

    Attributes:
        pass_name: Name of the pass after which the invariant broke.
        pass_index: Position of that pass in its pipeline.
        rule_ids: The fired rule IDs (e.g. ``("REP133",)``).
    """

    def __init__(
        self,
        message: str,
        *,
        pass_name: str | None = None,
        pass_index: int | None = None,
        rule_ids: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        self.pass_name = pass_name
        self.pass_index = pass_index
        self.rule_ids = tuple(rule_ids)


class BenchmarkError(ReproError):
    """Invalid benchmark-generator parameters."""


class ServiceError(ReproError):
    """The compile service rejected or failed a request.

    Raised by :mod:`repro.service` — the client on error responses and
    failed jobs, the server on invalid submissions.
    """


class ServiceBusyError(ServiceError):
    """A submission was rejected with backpressure, not failure.

    The service's queue was full (or the job's signature is quarantined
    by the circuit breaker); the job was *not* enqueued.  Resubmit after
    :attr:`retry_after` seconds.

    Attributes:
        retry_after: Server-suggested wait before resubmitting, seconds.
        reason: Machine-readable rejection reason (``"queue_full"`` or
            ``"quarantined"``).
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after: float | None = None,
        reason: str | None = None,
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.reason = reason


class JobCancelledError(ServiceError):
    """A compile job was cancelled (or timed out) mid-compilation.

    Cancellation is cooperative: the batch engine's cancel probe runs at
    pass boundaries, so a job stops after the pass it is in finishes,
    not instantly.  Optimal-control work completed before the stop is
    already merged into the shared cache — a resubmitted job starts
    warm.
    """
