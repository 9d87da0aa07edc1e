"""GRAPE: GRadient Ascent Pulse Engineering (paper Sec. 2.5, 3.5).

Pure-NumPy reimplementation of the paper's optimal-control unit (which
used a GPU/TensorFlow implementation; only wall-clock differs).  The
optimizer maximizes the unitary trace fidelity
``F = |Tr(V^dag U(T))|^2 / d^2`` over piecewise-constant control
amplitudes, using *exact* gradients of each step propagator via the
Daleckii–Krein divided-difference formula, Adam updates, and projection
onto the hardware amplitude limits.

Two gradient kernels compute the identical quantity:

* ``"vectorized"`` (default) — one batched einsum contraction per
  iteration over *all* timesteps and controls at once: the rotated
  weight matrices ``W_j (A~_j^T * Phi_j)^T W_j^dag`` are formed for
  every step in one shot and contracted against the control operators
  in a single ``einsum``, so the per-iteration cost is a handful of
  BLAS calls instead of ``steps * controls`` interpreter-level matmuls.
* ``"reference"`` — the original step-by-step loop, retained verbatim
  as the ground truth the vectorized kernel is parity-tested against
  (``tests/control/test_grape.py``).

Both kernels evaluate the same floating-point contractions in slightly
different association orders, so their gradients agree to ~1e-12 but
long Adam trajectories can still diverge.  The optimal-control unit
always runs the default kernel, so the choice is not part of the
pulse-cache fingerprint; ``"reference"`` serves the parity tests and the
benchmark that patches the legacy settings into the unit's time search.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.control.hamiltonian import ControlHamiltonian
from repro.control.pulse import Pulse
from repro.errors import ControlError
from repro.linalg.fidelity import unitary_trace_fidelity

#: Gradient kernel implementations selectable on :class:`GrapeOptimizer`.
GRAPE_KERNELS = ("vectorized", "reference")


@dataclasses.dataclass
class GrapeResult:
    """Outcome of one GRAPE optimization."""

    fidelity: float
    converged: bool
    iterations: int
    pulse: Pulse
    final_unitary: np.ndarray
    loss_history: list[float]

    @property
    def duration(self) -> float:
        return self.pulse.duration

    @property
    def evaluations(self) -> int:
        """Model (loss + gradient) evaluations this run performed.

        One per iteration — the unit the batch engine's
        ``grape_evals`` counter and ``BENCH_batch.json`` report.
        """
        return len(self.loss_history)


class GrapeOptimizer:
    """Optimizes control pulses for a fixed Hamiltonian model.

    Args:
        hamiltonian: The instruction's control fields.
        dt: Time step of the piecewise-constant controls (ns).
        max_iterations: Gradient-descent iteration budget.
        learning_rate: Adam step size as a fraction of each field limit.
        seed: Seed for the random initial pulse.
        kernel: Gradient kernel, one of :data:`GRAPE_KERNELS`.  The
            default vectorized kernel is the fast path; ``"reference"``
            is the retained loop implementation (parity ground truth,
            and the legacy side of ``benchmarks/bench_batch.py``).
    """

    def __init__(
        self,
        hamiltonian: ControlHamiltonian,
        dt: float = 0.5,
        max_iterations: int = 400,
        learning_rate: float = 0.08,
        seed: int = 20190413,
        kernel: str = "vectorized",
    ) -> None:
        if dt <= 0:
            raise ControlError("dt must be positive")
        if max_iterations < 1:
            raise ControlError("need at least one iteration")
        if kernel not in GRAPE_KERNELS:
            raise ControlError(
                f"unknown gradient kernel {kernel!r}; use {GRAPE_KERNELS}"
            )
        self.hamiltonian = hamiltonian
        self.dt = float(dt)
        self.max_iterations = int(max_iterations)
        self.learning_rate = float(learning_rate)
        self.seed = seed
        self.kernel = kernel

    def optimize(
        self,
        target: np.ndarray,
        duration: float,
        fidelity_threshold: float = 0.999,
        initial_amplitudes: np.ndarray | None = None,
        plateau_iterations: int | None = None,
        plateau_tolerance: float = 1e-6,
    ) -> GrapeResult:
        """Search for a pulse realizing ``target`` within ``duration`` ns.

        Args:
            initial_amplitudes: Warm start — a ``(steps, controls)``
                array used instead of the seeded random initial pulse
                (the minimal-time search resamples the previous
                attempt's best pulse through this).
            plateau_iterations: When set, stop early after this many
                consecutive iterations without the best loss improving
                by more than ``plateau_tolerance`` — a duration below
                the quantum speed limit then fails in tens of
                iterations instead of burning the whole budget.
            plateau_tolerance: Minimum loss improvement that counts as
                progress for the plateau check.
        """
        target = np.asarray(target, dtype=complex)
        dim = self.hamiltonian.dim
        if target.shape != (dim, dim):
            raise ControlError(
                f"target shape {target.shape} does not match dimension {dim}"
            )
        steps = max(2, int(round(duration / self.dt)))
        dt = duration / steps
        limits = self.hamiltonian.limits()
        operators = np.stack(
            [term.operator for term in self.hamiltonian.terms]
        )
        num_controls = len(limits)

        rng = np.random.default_rng(self.seed)
        if initial_amplitudes is not None:
            amplitudes = np.array(initial_amplitudes, dtype=float)
            if amplitudes.shape != (steps, num_controls):
                raise ControlError("initial amplitudes have the wrong shape")
        else:
            amplitudes = 0.3 * limits * rng.standard_normal((steps, num_controls))
        amplitudes = np.clip(amplitudes, -limits, limits)

        # Adam state.
        first_moment = np.zeros_like(amplitudes)
        second_moment = np.zeros_like(amplitudes)
        beta1, beta2, epsilon = 0.9, 0.999, 1e-12
        step_sizes = self.learning_rate * limits

        loss_history: list[float] = []
        best_loss = np.inf
        best_amplitudes = amplitudes.copy()
        best_unitary = np.eye(dim, dtype=complex)
        iterations_done = 0
        since_improvement = 0

        for iteration in range(1, self.max_iterations + 1):
            iterations_done = iteration
            loss, gradient, total = _evaluate(
                amplitudes, operators, target, dt, self.kernel
            )
            loss_history.append(loss)
            if loss < best_loss - plateau_tolerance:
                since_improvement = 0
            else:
                since_improvement += 1
            if loss < best_loss:
                best_loss = loss
                best_amplitudes = amplitudes.copy()
                # The evaluation already propagated these amplitudes;
                # keeping the unitary here makes the final
                # re-propagation of best_amplitudes unnecessary.
                best_unitary = total
            if 1.0 - loss >= fidelity_threshold:
                break
            if (
                plateau_iterations is not None
                and since_improvement >= plateau_iterations
            ):
                break
            first_moment = beta1 * first_moment + (1 - beta1) * gradient
            second_moment = beta2 * second_moment + (1 - beta2) * gradient**2
            corrected_first = first_moment / (1 - beta1**iteration)
            corrected_second = second_moment / (1 - beta2**iteration)
            amplitudes = amplitudes - step_sizes * corrected_first / (
                np.sqrt(corrected_second) + epsilon
            )
            amplitudes = np.clip(amplitudes, -limits, limits)

        fidelity = unitary_trace_fidelity(target, best_unitary)
        pulse = Pulse(
            control_names=self.hamiltonian.control_names(),
            amplitudes=best_amplitudes,
            dt=dt,
        )
        return GrapeResult(
            fidelity=fidelity,
            converged=fidelity >= fidelity_threshold,
            iterations=iterations_done,
            pulse=pulse,
            final_unitary=best_unitary,
            loss_history=loss_history,
        )


def _step_propagators(amplitudes, operators, dt):
    """Eigendecompose each step Hamiltonian and exponentiate."""
    hamiltonians = np.einsum("jk,kab->jab", amplitudes, operators)
    eigenvalues, eigenvectors = np.linalg.eigh(hamiltonians)
    phases = np.exp(-1j * eigenvalues * dt)
    propagators = np.einsum(
        "jap,jp,jbp->jab", eigenvectors, phases, eigenvectors.conj()
    )
    return propagators, eigenvalues, eigenvectors, phases


def _reduce_product(propagators):
    """Time-ordered product ``P[n-1] @ ... @ P[0]`` of a propagator stack.

    Pairwise tree reduction: each round multiplies adjacent pairs with
    one batched ``matmul`` (later factor on the left), halving the stack,
    so the Python-level work is ``O(log n)`` batched calls instead of an
    ``n``-iteration accumulation loop.  Associativity keeps the time
    ordering exact; only floating-point rounding differs from the
    sequential product.
    """
    stack = propagators
    while stack.shape[0] > 1:
        n = stack.shape[0]
        paired = np.matmul(stack[1 : n - n % 2 : 2], stack[0 : n - n % 2 : 2])
        if n % 2:
            stack = np.concatenate([paired, stack[-1:]], axis=0)
        else:
            stack = paired
    return stack[0]


def _propagate(amplitudes, operators, dt):
    """Total unitary of a pulse."""
    propagators, *_ = _step_propagators(amplitudes, operators, dt)
    return _reduce_product(propagators)


def _forward_backward(propagators):
    """All cumulative products: ``forward[j] = P[j-1]···P[0]`` and
    ``backward[j] = P[n-1]···P[j]`` (both with identity sentinels)."""
    steps, dim, _ = propagators.shape
    forward = np.empty((steps + 1, dim, dim), dtype=complex)
    forward[0] = np.eye(dim)
    for j in range(steps):
        forward[j + 1] = propagators[j] @ forward[j]
    backward = np.empty((steps + 1, dim, dim), dtype=complex)
    backward[steps] = np.eye(dim)
    for j in range(steps - 1, -1, -1):
        backward[j] = backward[j + 1] @ propagators[j]
    return forward, backward


def _evaluate(amplitudes, operators, target, dt, kernel="vectorized"):
    """Loss, gradient and total unitary under the selected kernel."""
    if kernel == "reference":
        return _evaluate_reference(amplitudes, operators, target, dt)
    if kernel == "vectorized":
        return _evaluate_vectorized(amplitudes, operators, target, dt)
    raise ControlError(
        f"unknown gradient kernel {kernel!r}; use {GRAPE_KERNELS}"
    )


def _loss_and_gradient(amplitudes, operators, target, dt, kernel="vectorized"):
    """Loss ``1 - |tr(V^dag U)|^2/d^2`` and its exact amplitude gradient."""
    loss, gradient, _ = _evaluate(amplitudes, operators, target, dt, kernel)
    return loss, gradient


def _divided_differences(eigenvalues, phases, dt):
    """Daleckii–Krein first divided differences of ``exp(-i x dt)``,
    batched over the leading (timestep) axis."""
    delta = eigenvalues[..., :, None] - eigenvalues[..., None, :]
    numerator = phases[..., :, None] - phases[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            np.abs(delta) > 1e-12,
            numerator / delta,
            -1j * dt * phases[..., :, None],
        )


def _evaluate_vectorized(amplitudes, operators, target, dt):
    """Batched gradient: every timestep and control in one contraction.

    Identical mathematics to :func:`_evaluate_reference`; the per-step
    quantities (divided differences, rotated overlap matrices) are
    formed for the whole pulse at once and the ``(steps, controls)``
    gradient falls out of a single einsum, via
    ``dZ[j,k] = Tr(W_j weight_j^T W_j^dag H_k)`` — the cyclic rewrite of
    the reference kernel's ``sum(weight_j * (W_j^dag H_k W_j))`` that
    avoids materializing the rotated control operators per step.
    """
    dim = operators.shape[1]
    propagators, eigenvalues, eigenvectors, phases = _step_propagators(
        amplitudes, operators, dt
    )
    forward, backward = _forward_backward(propagators)
    total = forward[-1]
    overlap = np.trace(target.conj().T @ total)
    loss = 1.0 - (abs(overlap) ** 2) / dim**2

    phi = _divided_differences(eigenvalues, phases, dt)
    v_dag = target.conj().T
    # A_j = F_{j-1} V^dag G_j for every step at once (G_j = backward[j+1]).
    a_matrix = np.matmul(np.matmul(forward[:-1], v_dag), backward[1:])
    w = eigenvectors
    w_dag = w.conj().transpose(0, 2, 1)
    a_tilde = np.matmul(w_dag, np.matmul(a_matrix, w))
    weight = a_tilde.transpose(0, 2, 1) * phi
    rotated = np.matmul(w, np.matmul(weight.transpose(0, 2, 1), w_dag))
    dz = np.einsum("jpq,kqp->jk", rotated, operators)
    gradient = -2.0 * np.real(np.conj(overlap) * dz) / dim**2
    return loss, gradient, total


def _evaluate_reference(amplitudes, operators, target, dt):
    """The original per-step loop kernel, kept as parity ground truth."""
    steps, num_controls = amplitudes.shape
    dim = operators.shape[1]
    propagators, eigenvalues, eigenvectors, phases = _step_propagators(
        amplitudes, operators, dt
    )
    forward, backward = _forward_backward(propagators)
    total = forward[steps]
    overlap = np.trace(target.conj().T @ total)
    loss = 1.0 - (abs(overlap) ** 2) / dim**2

    gradient = np.empty((steps, num_controls))
    v_dag = target.conj().T
    for j in range(steps):
        w = eigenvectors[j]
        lam = eigenvalues[j]
        phase = phases[j]
        # Divided differences Phi_pq of f(x) = exp(-i x dt).
        delta = lam[:, None] - lam[None, :]
        numerator = phase[:, None] - phase[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.where(
                np.abs(delta) > 1e-12, numerator / delta, -1j * dt * phase[:, None]
            )
        # A_j = F_{j-1} V^dag G_j  (G_j = backward[j+1]).
        a_matrix = forward[j] @ v_dag @ backward[j + 1]
        a_tilde = w.conj().T @ a_matrix @ w
        weight = a_tilde.T * phi
        for k in range(num_controls):
            m_k = w.conj().T @ operators[k] @ w
            dz = np.sum(weight * m_k)
            gradient[j, k] = (
                -2.0 * np.real(np.conj(overlap) * dz) / dim**2
            )
    return loss, gradient, total
