"""The optimal control unit (OCU): latency and pulse oracle (Sec. 3.5).

Two backends share one interface:

* ``"model"`` (default) — the calibrated analytic latency model; fast
  enough for the aggregation loop's thousands of queries.
* ``"grape"`` — real numeric pulse optimization with a minimal-time
  search, used for Table 1, the Figure 4 pulses and verification; falls
  back to the model above :attr:`grape_qubit_limit` qubits.

Latencies (and synthesized pulses) are cached by a structural signature of
the instruction, so repeated instructions across a circuit are optimized
once — the "partial compilation" direction the paper's future-work section
proposes.  The cache itself lives in a :class:`~repro.control.cache.PulseCache`
(pass one in to share it across units, batch workers or — with the disk
backend — whole processes); every entry is namespaced by a fingerprint of
the device/compiler/GRAPE configuration, so a shared store never confuses
units with different physics.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import (
    CompilerConfig,
    DEFAULT_COMPILER,
    DEFAULT_DEVICE,
    DeviceConfig,
)
from repro.control.cache import CacheDelta, PulseCache, config_fingerprint
from repro.control.cache.store import LATENCY
from repro.control.grape import GrapeResult
from repro.control.hamiltonian import xy_hamiltonian
from repro.control.latency_model import AnalyticLatencyModel
from repro.control.time_search import minimal_pulse_time
from repro.device.device import Device
from repro.errors import ControlError
from repro.gates.gate import Gate
from repro.linalg.embed import embed_operator

_BACKENDS = ("model", "grape")


class OptimalControlUnit:
    """Latency/pulse oracle for gates and aggregated instructions.

    ``device`` accepts either a bare :class:`DeviceConfig` (homogeneous
    physics, the paper's setting) or a full
    :class:`~repro.device.device.Device`.  A heterogeneous device (per-
    edge coupling-limit overrides) changes the oracle in three ways:
    the analytic model and the GRAPE Hamiltonian price each coupling at
    its edge's limit, the cache fingerprint folds in the device
    signature, and cache keys gain the instruction's *absolute* qubit
    support — the same gate structure on two differently-calibrated
    edges must not share an entry.
    """

    def __init__(
        self,
        device: DeviceConfig | Device = DEFAULT_DEVICE,
        compiler: CompilerConfig = DEFAULT_COMPILER,
        backend: str = "model",
        grape_qubit_limit: int = 3,
        seed: int = 20190413,
        cache: PulseCache | None = None,
    ) -> None:
        """``cache`` is the store the unit reads and writes straight
        through (a fresh in-memory one when omitted); share one store
        across units to share their work.  The GRAPE time step is
        ``compiler.grape_dt_ns``, and every synthesis runs
        :func:`~repro.control.time_search.minimal_pulse_time` with its
        default (fast-path) search."""
        if backend not in _BACKENDS:
            raise ControlError(f"unknown backend {backend!r}; use {_BACKENDS}")
        if isinstance(device, Device):
            self.target: Device | None = device
            self.device = device.config
        else:
            self.target = None
            self.device = device
        self.compiler = compiler
        self.backend = backend
        self.grape_qubit_limit = int(grape_qubit_limit)
        self.grape_dt = compiler.grape_dt_ns
        self.seed = seed
        self.model = AnalyticLatencyModel(self.device, target=self.target)
        self.cache = cache if cache is not None else PulseCache()
        self._position_dependent = (
            self.target is not None and self.target.has_heterogeneous_couplings
        )
        # Pre-placement queries (positional=False) price at the
        # homogeneous baseline: logical indices carry no edge identity.
        self._homogeneous_model = (
            AnalyticLatencyModel(self.device)
            if self._position_dependent
            else self.model
        )
        self.fingerprint = config_fingerprint(
            device=self.device,
            compiler=compiler,
            grape_qubit_limit=self.grape_qubit_limit,
            seed=self.seed,
            target=self.target,
        )
        self.cache_hits = 0
        self.grape_calls = 0
        self.grape_fallbacks = 0
        self.model_evals = 0
        self.grape_evals = 0
        self.grape_wall_seconds = 0.0
        #: Every entry this unit computed and wrote to :attr:`cache` — a
        #: process worker ships it back for the parent's store to merge.
        self.written = CacheDelta()

    def _node_signature(self, node, positional: bool = True) -> tuple:
        """Cache signature: structural, plus absolute support when the
        target prices edges heterogeneously (position matters then).

        Non-positional queries keep the plain structural signature —
        they price homogeneously, and the missing ``support`` suffix
        keeps their entries from ever answering a positional query.
        """
        signature = _signature_of(node)
        if self._position_dependent and positional:
            return signature + (("support",) + support_of(node),)
        return signature

    def grape_eligible(self, node) -> bool:
        """Whether this unit would answer ``latency(node)`` with GRAPE."""
        return (
            self.backend == "grape"
            and len(support_of(node)) <= self.grape_qubit_limit
        )

    # ------------------------------------------------------------------
    # Latency

    def latency(self, node, positional: bool = True) -> float:
        """Pulse latency (ns) of a gate or aggregated instruction.

        Args:
            node: Gate or aggregated instruction.
            positional: Whether the node's qubit indices are *physical*
                (post-placement).  Pre-placement callers — the logical
                scheduling stage — pass False so a heterogeneous target
                prices at the homogeneous baseline instead of reading
                edge overrides through logical indices that have not
                been assigned to edges yet.  Ignored on homogeneous
                devices.
        """
        key = (
            self.fingerprint,
            self.backend,
            self._node_signature(node, positional),
        )
        return self._cached_latency(key, self._price, node, positional)

    def model_latency(self, node) -> float:
        """Analytic-model latency regardless of the configured backend.

        Cached by structural signature: the aggregator probes the same
        candidate-pair structures across rounds.
        """
        key = (self.fingerprint, "model", self._node_signature(node))
        return self._cached_latency(key, self._evaluate_model, node, self.model)

    def _cached_latency(self, key, compute, *args) -> float:
        """The latency under ``key``; on a miss, ``compute(*args)`` once.

        The one miss path of :meth:`latency` and :meth:`model_latency`.
        A miss takes the store's single-flight guard, so the threads
        sharing the store compute each key once: a thread that waited
        adopts the value its peer wrote.  A computed value goes straight
        into the store and into :attr:`written`.
        """
        cached = self.cache.get_latency(key)
        if cached is None:
            with self.cache.single_flight(LATENCY, key) as cached:
                if cached is None:
                    value = compute(*args)
                    self.cache.put_latency(key, value)
                    self.written.latencies[key] = float(value)
                    return value
        self.cache_hits += 1
        return cached

    def _price(self, node, positional: bool) -> float:
        """Price a missed node through the configured backend."""
        if self.grape_eligible(node):
            return self._grape_latency(node, positional)
        if self.backend == "grape":
            self.grape_fallbacks += 1
        model = self.model if positional else self._homogeneous_model
        return self._evaluate_model(node, model)

    def _evaluate_model(self, node, model: AnalyticLatencyModel) -> float:
        self.model_evals += 1
        return model.sequence_latency(gates_of(node))

    def _grape_latency(self, node, positional: bool) -> float:
        result = self.synthesize_pulse(node, positional)
        # GRAPE busy time plus the same fixed setup overhead the model
        # charges (ramp-up is not simulated by the piecewise model).
        uses_coupling = any(len(g.qubits) >= 2 for g in gates_of(node))
        setup = (
            self.device.setup_time_2q_ns
            if uses_coupling
            else self.device.setup_time_1q_ns
        )
        return setup + result.duration

    # ------------------------------------------------------------------
    # Pulses

    def synthesize_pulse(self, node, positional: bool = True) -> GrapeResult:
        """Run GRAPE (with minimal-time search) for a node's unitary.

        ``positional`` as in :meth:`latency`: non-positional synthesis
        on a heterogeneous target bounds every coupling field at the
        homogeneous baseline.
        """
        key = (self.fingerprint, self._node_signature(node, positional))
        cached = self.cache.get_pulse(key)
        if cached is None:
            support = support_of(node)
            if len(support) > self.grape_qubit_limit:
                raise ControlError(
                    f"instruction width {len(support)} exceeds the GRAPE "
                    f"limit {self.grape_qubit_limit}"
                )
            with self.cache.exclusive(key):
                # The re-check is the point of the guard: while we
                # blocked on it, a peer (thread, process or another
                # machine, depending on the store) may have synthesized
                # this signature and published it, and content-addressed
                # keys make its pulse interchangeable with ours.
                cached = self.cache.get_pulse(key)
                if cached is None:
                    return self._synthesize(key, node, support, positional)
        self.cache_hits += 1
        return cached

    def _synthesize(self, key, node, support, positional) -> GrapeResult:
        """Solve one missed pulse under the store's single-flight guard,
        putting it before the guard releases, so the store holds it (and
        the fleet-wide stores publish it) before a blocked peer re-checks.
        """
        gates = gates_of(node)
        target, hamiltonian = self._local_problem(support, gates, positional)
        self.model_evals += 1
        # The search estimate must respect the same positional policy as
        # the Hamiltonian: a non-positional estimate read through edge
        # overrides would vary with logical labels the cache key omits.
        model = self.model if positional else self._homogeneous_model
        estimate = max(
            model.sequence_latency(gates) - self.device.setup_time_2q_ns,
            4 * self.grape_dt,
        )
        self.grape_calls += 1
        started = time.perf_counter()
        search = minimal_pulse_time(
            target,
            hamiltonian,
            estimate=estimate,
            fidelity_threshold=self.compiler.fidelity_threshold,
            dt=self.grape_dt,
            seed=self.seed,
        )
        self.grape_wall_seconds += time.perf_counter() - started
        self.grape_evals += search.evaluations
        self.cache.put_pulse(key, search.grape)
        self.written.pulses[key] = search.grape
        return search.grape

    def _local_problem(self, support, gates, positional: bool = True):
        """Target unitary and Hamiltonian in instruction-local indices."""
        index = {qubit: position for position, qubit in enumerate(support)}
        width = len(support)
        target = np.eye(2**width, dtype=complex)
        edges = set()
        for gate in gates:
            positions = [index[q] for q in gate.qubits]
            target = embed_operator(gate.matrix, positions, width) @ target
            if len(positions) == 2:
                edges.add((min(positions), max(positions)))
        if width > 1 and not edges:
            # Drive-only instruction spanning several qubits: give GRAPE
            # the chain couplings so the Hamiltonian stays connected.
            edges = {(i, i + 1) for i in range(width - 1)}
        coupling_rates = None
        if self._position_dependent and positional:
            # Map each local edge back to its physical pair and price the
            # coupling field at that edge's override.
            coupling_rates = {
                (a, b): self.target.coupling_rate_of(support[a], support[b])
                for a, b in edges
            }
        hamiltonian = xy_hamiltonian(
            width, sorted(edges), self.device, coupling_rates=coupling_rates
        )
        return target, hamiltonian

    # ------------------------------------------------------------------
    # Statistics

    def cache_info(self) -> dict:
        """Cache and backend usage counters (partial-compilation stats).

        ``latency_entries``/``pulse_entries`` count the backing store
        (which other units may share); the remaining counters are local
        to this unit.  ``grape_evals`` counts GRAPE loss+gradient
        evaluations and ``grape_wall_seconds`` the wall-clock spent
        inside the minimal-time search — the two numbers that show
        where a cold batch's time goes (``BENCH_batch.json``).  The
        backing store's own :meth:`~...PulseCache.stats` fields (backend
        tag, store hit/miss/eviction counters, and any backend-specific
        extras such as shard flushes or remote round trips) are folded in
        underneath — unit-local keys win on collision.
        """
        info = {
            "latency_entries": self.cache.latency_count,
            "pulse_entries": self.cache.pulse_count,
            "cache_hits": self.cache_hits,
            "grape_calls": self.grape_calls,
            "grape_fallbacks": self.grape_fallbacks,
            "model_evals": self.model_evals,
            "grape_evals": self.grape_evals,
            "grape_wall_seconds": self.grape_wall_seconds,
        }
        for key, value in self.cache.stats().items():
            info.setdefault(key, value)
        return info


def gates_of(node) -> list[Gate]:
    """The plain gates a node executes: ``[node]`` for a
    :class:`~repro.gates.gate.Gate`, the member list for anything
    exposing ``gates`` (aggregated and hand-optimized instructions)."""
    if isinstance(node, Gate):
        return [node]
    gates = getattr(node, "gates", None)
    if gates is None:
        raise ControlError(f"cannot extract gates from {node!r}")
    return list(gates)


def support_of(node) -> tuple[int, ...]:
    """A node's qubit support, sorted and deduplicated.

    This is the instruction-local qubit order every dense representation
    uses (``AggregatedInstruction.matrix``, the OCU's local problems, the
    pulse propagator), so callers embedding such a matrix into a register
    must place its axes on exactly this tuple.
    """
    return tuple(sorted(set(node.qubits)))


def _signature_of(node) -> tuple:
    """Structural identity: gate signatures + relative qubit geometry.

    Read off the node's memoized ``signature``: a gate's is its one part
    (name, rounded params, qubit ranks), and an instruction's is
    ``("AGG", width, parts)`` with the same parts over its sorted support.
    """
    if isinstance(node, Gate):
        return (node.num_qubits, (node.signature,))
    return node.signature[1:]
