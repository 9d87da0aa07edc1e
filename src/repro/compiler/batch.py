"""Batch compilation: many (circuit, strategy) jobs over one shared cache.

The single-shot :func:`~repro.compiler.pipeline.compile_circuit` API
compiles one circuit under one strategy.  Every real workload — the
Figure 9 strategy sweep, the Figure 10 width sweep, a VQE driver
recompiling parameterized ansatz variants — compiles *many* circuits, and
most of the optimal-control work repeats across them: the same CNOT,
SWAP and diagonal-block structures appear in every job.

:class:`BatchCompiler` exploits that.  It owns one shared
:class:`~repro.control.cache.PulseCache` (optionally a disk-persistent
one) and fans jobs across ``concurrent.futures`` workers.  Each worker
compiles through a :class:`~repro.control.cache.CacheSession` — a private
read-through view of the shared store — so workers never contend on the
store lock for writes; when a job finishes, its delta of newly computed
latencies/pulses is merged back into the store, and later jobs see it.

Two executors share that contract:

* ``executor="thread"`` (default) — worker threads over the shared
  in-memory store.  Cheap to start, full cache sharing, but the pure-
  Python pass pipeline serializes on the GIL.
* ``executor="process"`` — worker *processes*.  Each job ships to a
  worker as a :mod:`repro.ir` wire payload (circuit, device, configs —
  nothing process-local crosses the boundary), compiles there against a
  worker-resident cache, and returns a serialized result plus the
  :class:`~repro.control.cache.CacheDelta` of newly computed entries,
  which the parent merges into the shared store.  This sidesteps the
  GIL entirely — the speedup on many-core machines is what
  ``benchmarks/bench_batch.py`` records — at the cost of per-job
  serialization and no *cross-worker* cache sharing during one batch
  (each worker is seeded with a snapshot of the shared store at pool
  start and then warms up over its own job stream; the merged store
  carries everything forward to the next batch).  Jobs carrying
  in-memory pass objects (``BatchJob.passes``) or engines with
  ``pass_callbacks`` cannot cross a process boundary and are rejected
  with a :class:`~repro.errors.ConfigError`; strategies ship by
  registered key.

Results are returned in job order and are bit-identical to serial
:func:`compile_circuit` calls: the latency model and GRAPE are
deterministic functions of instruction structure, so neither sharing
cached values across jobs nor the choice of executor can change any
result (``tests/compiler/test_batch_process.py`` pins thread/process
parity on the canonical wire form).
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)

from repro.circuit.circuit import Circuit
from repro.compiler.manager import PassCallback
from repro.compiler.passes import Pass, strategy_pulse_backend
from repro.compiler.pipeline import compile_with_pipeline
from repro.compiler.result import CompilationResult
from repro.compiler.strategies import ISA, Strategy, strategy_by_key
from repro.config import (
    CompilerConfig,
    DEFAULT_COMPILER,
    DEFAULT_DEVICE,
    DeviceConfig,
)
from repro.control.cache import (
    CacheSession,
    DiskPulseCache,
    PulseCache,
    resolve_cache,
)
from repro.compiler.result_cache import (
    DiskResultCache,
    ResultCache,
    engine_component,
    result_key,
    target_payload,
)
from repro.control.unit import OptimalControlUnit, support_of
from repro.device.device import Device
from repro.device.presets import device_by_key
from repro.device.topology import Topology
from repro.errors import ConfigError, JobCancelledError, SerializationError

_COUNTER_KEYS = (
    "cache_hits",
    "grape_calls",
    "grape_fallbacks",
    "model_evals",
    "grape_evals",
    "grape_wall_seconds",
)

_EXECUTORS = ("thread", "process")

_PREWARM_MODES = (True, False, "auto")


@dataclasses.dataclass(frozen=True)
class BatchJob:
    """One unit of batch work: a circuit compiled under one strategy.

    ``strategy`` also accepts the key of a registered strategy (built-in
    or added via :func:`~repro.compiler.strategies.register_strategy`).
    ``device`` pins this job to its own compilation target — a
    :class:`~repro.device.device.Device` or a preset key like
    ``"heavy-hex-2"`` — overriding the engine's default; one batch can
    therefore sweep the same circuit across machines (the pulse-cache
    fingerprint keeps per-device entries apart).  ``passes`` overrides
    the strategy's pipeline with an explicit pass list for this job
    only; the strategy still labels the result, and block pricing is
    derived from the pass list (whether it contains an
    ``AggregatePass``) unless ``pulse_backend`` overrides it — set it
    for a custom backend pass the auto-detection cannot see.
    """

    circuit: Circuit
    strategy: Strategy | str = ISA
    width_limit: int | None = None
    topology: Topology | None = None
    label: str | None = None
    passes: tuple[Pass, ...] | None = None
    pulse_backend: bool | None = None
    device: Device | str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.strategy, str):
            object.__setattr__(
                self, "strategy", strategy_by_key(self.strategy)
            )
        if self.passes is not None:
            object.__setattr__(self, "passes", tuple(self.passes))
        if isinstance(self.device, str):
            object.__setattr__(self, "device", device_by_key(self.device))
        if self.device is not None and self.topology is not None:
            raise ConfigError(
                "a job takes either device= or topology=, not both"
            )

    @property
    def key(self) -> str:
        """Display label (circuit/strategy unless overridden)."""
        if self.label is not None:
            return self.label
        return f"{self.circuit.name}/{self.strategy.key}"

    def pipeline(self) -> list[Pass]:
        """The pass list this job compiles with."""
        if self.passes is not None:
            return list(self.passes)
        return self.strategy.pipeline()


@dataclasses.dataclass
class BatchReport:
    """Everything one batch run produced, results in job order."""

    results: list[CompilationResult]
    seconds: list[float]
    """Wall-clock seconds per job.  Measured inside the worker, so with
    several threads each span includes time spent waiting on the GIL —
    comparable between jobs of one run, but not to serial compile times."""
    wall_seconds: float
    """Wall-clock of the whole batch (less than ``sum(seconds)`` when
    workers overlap)."""
    workers: int
    cache_info: dict[str, int]
    """OCU counters summed across all jobs, plus final store entry counts."""
    executor: str = "thread"
    """Which worker pool ran the batch (``"thread"`` or ``"process"``)."""
    prewarm: dict | None = None
    """Pre-warm planner statistics when the planner ran, else None:
    ``signatures`` (distinct GRAPE-eligible control problems across the
    batch), ``demand`` (the same problems counted once per job that
    needs them), ``dedup_ratio`` (``demand / signatures`` — how much
    duplicate optimal-control work the planner eliminated),
    ``synthesized`` (problems actually solved; the rest were already
    cached), ``plan_seconds`` and ``synthesis_seconds``."""
    result_cache: dict | None = None
    """Result-cache statistics when the engine has one attached, else
    None: ``hits`` (jobs served whole from the store, zero passes run),
    ``deduped`` (in-batch repeats fanned out from one compilation),
    ``stores`` (fresh results written back), ``uncacheable`` (jobs whose
    envelope cannot serialize — explicit pass lists, unregistered
    strategies — always compiled), ``compiled`` (jobs that actually ran
    the pipeline)."""

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def total_latency_ns(self) -> float:
        """Sum of all result makespans (batch-level throughput metric)."""
        return sum(result.latency_ns for result in self.results)

    @property
    def pass_seconds(self) -> dict[str, float]:
        """Wall-clock per compiler pass summed over all jobs.

        The batch-level view of the per-pass instrumentation: where the
        whole sweep's compile time went, keyed by pass name.  A property
        so it reads like ``CompilationResult.pass_seconds``.
        """
        totals: dict[str, float] = {}
        for result in self.results:
            for name, value in result.pass_seconds.items():
                totals[name] = totals.get(name, 0.0) + value
        return totals


class BatchCompiler:
    """Compiles batches of jobs against one shared pulse/latency cache.

    Args:
        device: The default compilation target, shared by every job that
            does not pin its own ``BatchJob.device``: a full
            :class:`~repro.device.device.Device`, a preset key, or a
            bare :class:`DeviceConfig` (paper physics, auto-sized grid).
        compiler_config: Width limits, detection depth, etc.
        cache: Shared store; a fresh in-memory one when omitted.  Pass a
            :class:`~repro.control.cache.DiskPulseCache` (or use
            :meth:`with_disk_cache`) for persistence across processes,
            any other :class:`~repro.control.cache.PulseCache` backend
            (sharded directory, remote client), or a string spec —
            ``"tcp://host:port"`` mounts a cache server, any other
            string is a disk path (a directory mounts the sharded
            store, a file stem the single-pair cache).
        backend: OCU backend, ``"model"`` or ``"grape"``.
        max_workers: Worker-thread count; ``None`` picks
            ``min(cpu_count, job count)``.
        grape_qubit_limit / grape_dt / seed: Forwarded to every OCU, and
            part of the cache fingerprint.
        pass_callbacks: Per-pass instrumentation hooks forwarded to every
            job's :class:`~repro.compiler.manager.PassManager`; invoked
            as ``(pass_, context, elapsed_seconds)``.  With several
            workers, hooks run concurrently — keep them thread-safe.
            Incompatible with ``executor="process"`` (hooks cannot cross
            a process boundary).
        executor: ``"thread"`` (default) or ``"process"``.  Process
            workers receive each job as a serialized :mod:`repro.ir`
            payload and return serialized results plus a cache delta,
            so the pure-Python pipeline runs GIL-free in parallel; see
            the module docstring for the trade-offs.
        verify_ir: Debug mode — every job compiles with between-pass IR
            verification (:mod:`repro.analysis`), raising
            :class:`~repro.errors.IRVerificationError` on the first pass
            that breaks an invariant.  Travels to process workers as part
            of the engine configuration payload.
        result_cache: Content-addressed store of whole compiled results
            (:class:`~repro.compiler.result_cache.ResultCache`, or a
            string path mounting a
            :class:`~repro.compiler.result_cache.DiskResultCache`
            directory).  Batches dedupe byte-identical jobs within a
            run (compile once, fan the result out) and serve repeats —
            across batches, engines, even processes when disk-backed —
            without running a single pass; ``run_job`` hits report zero
            optimal-control counters.
    """

    def __init__(
        self,
        device: Device | DeviceConfig | str = DEFAULT_DEVICE,
        compiler_config: CompilerConfig = DEFAULT_COMPILER,
        cache: PulseCache | None = None,
        backend: str = "model",
        max_workers: int | None = None,
        grape_qubit_limit: int = 3,
        grape_dt: float | None = None,
        seed: int = 20190413,
        pass_callbacks: Sequence[PassCallback] = (),
        executor: str = "thread",
        verify_ir: bool = False,
        prewarm: bool | str = "auto",
        grape_kernel: str = "vectorized",
        grape_warm_start: bool = True,
        grape_plateau_iterations: int | None = 60,
        result_cache: ResultCache | str | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigError("max_workers must be at least 1")
        if executor not in _EXECUTORS:
            raise ConfigError(
                f"executor must be one of {_EXECUTORS}, got {executor!r}"
            )
        if prewarm not in _PREWARM_MODES:
            raise ConfigError(
                f"prewarm must be one of {_PREWARM_MODES}, got {prewarm!r}"
            )
        if executor == "process" and pass_callbacks:
            raise ConfigError(
                "pass_callbacks cannot cross a process boundary; use "
                "executor='thread' for per-pass instrumentation hooks"
            )
        if isinstance(device, str):
            device = device_by_key(device)
        self.device = device
        self.compiler_config = compiler_config
        if isinstance(cache, str):
            # A string selects a shared backend: "tcp://host:port" mounts
            # the cache server, anything else is a disk path (a directory
            # or sharded layout mounts the sharded store, a stem the
            # single-pair cache).
            if cache.startswith("tcp://"):
                cache = resolve_cache(url=cache)
            else:
                cache = resolve_cache(path=cache)
        self.cache = cache if cache is not None else PulseCache()
        self.backend = backend
        self.max_workers = max_workers
        self.grape_qubit_limit = grape_qubit_limit
        self.grape_dt = grape_dt
        self.seed = seed
        self.pass_callbacks = list(pass_callbacks)
        self.executor = executor
        self.verify_ir = bool(verify_ir)
        self.prewarm = prewarm
        self.grape_kernel = grape_kernel
        self.grape_warm_start = grape_warm_start
        self.grape_plateau_iterations = grape_plateau_iterations
        if isinstance(result_cache, str):
            result_cache = DiskResultCache(result_cache)
        #: Optional content-addressed store of whole compiled results;
        #: when set, byte-identical jobs (same canonical envelope, same
        #: engine settings) are served from it instead of recompiling,
        #: both within one batch and across batches/engines sharing the
        #: store.  A string mounts a :class:`DiskResultCache` directory.
        self.result_cache = result_cache
        # Memoized engine-component strings keyed by the target's
        # canonical JSON: jobs deserialized from envelopes carry fresh
        # but equal Device objects, so an identity key would grow with
        # every submission.
        self._result_components: dict[str, str] = {}
        #: Counters summed over every batch this engine has compiled
        #: (the per-batch view is ``BatchReport.cache_info``), plus the
        #: planner's total ``prewarm_synthesized``.  Drivers running
        #: several sweeps over one engine read their optimal-control
        #: bill here.
        self.lifetime_info: dict[str, float] = dict.fromkeys(
            _COUNTER_KEYS + ("prewarm_synthesized",), 0
        )

    @classmethod
    def from_ocu(
        cls,
        ocu: OptimalControlUnit,
        max_workers: int | None = None,
    ) -> BatchCompiler:
        """An engine sharing an existing unit's cache and configuration."""
        cache = ocu.cache
        if isinstance(cache, CacheSession):
            cache = cache.store
        return cls(
            device=ocu.target if ocu.target is not None else ocu.device,
            compiler_config=ocu.compiler,
            cache=cache,
            backend=ocu.backend,
            max_workers=max_workers,
            grape_qubit_limit=ocu.grape_qubit_limit,
            grape_dt=ocu.grape_dt,
            seed=ocu.seed,
            grape_kernel=ocu.grape_kernel,
            grape_warm_start=ocu.grape_warm_start,
            grape_plateau_iterations=ocu.grape_plateau_iterations,
        )

    @classmethod
    def with_disk_cache(
        cls, path: str | os.PathLike, **kwargs
    ) -> BatchCompiler:
        """An engine over a persistent cache at ``path`` (stem)."""
        return cls(cache=DiskPulseCache(path), **kwargs)

    # ------------------------------------------------------------------

    def make_ocu(
        self,
        cache: PulseCache | CacheSession | None = None,
        device: Device | DeviceConfig | None = None,
        backend: str | None = None,
    ) -> OptimalControlUnit:
        """A fresh OCU bound to the shared store (or a session view).

        ``device`` overrides the engine's default target — the batch
        loop builds each job's OCU against the job's own device so
        per-edge limits and cache fingerprints match that machine.
        ``backend`` overrides the engine's pulse backend (the pre-warm
        planner dry-runs jobs against the analytic model).
        """
        return OptimalControlUnit(
            device=device if device is not None else self.device,
            compiler=self.compiler_config,
            backend=backend if backend is not None else self.backend,
            grape_qubit_limit=self.grape_qubit_limit,
            grape_dt=self.grape_dt,
            seed=self.seed,
            cache=cache if cache is not None else self.cache,
            grape_kernel=self.grape_kernel,
            grape_warm_start=self.grape_warm_start,
            grape_plateau_iterations=self.grape_plateau_iterations,
        )

    def compile(
        self,
        circuit: Circuit,
        strategy: Strategy | str = ISA,
        width_limit: int | None = None,
        topology: Topology | None = None,
        device: Device | str | None = None,
    ) -> CompilationResult:
        """Compile one circuit through the shared cache (no workers)."""
        job = BatchJob(
            circuit=circuit,
            strategy=strategy,
            width_limit=width_limit,
            topology=topology,
            device=device,
        )
        key = self._cache_key(job)
        if key is not None:
            cached = self.result_cache.get(key)
            if cached is not None:
                return cached
        result = self._compile_job(
            job, self.make_ocu(device=self._job_target(job))
        )
        if key is not None:
            self.result_cache.put(key, result)
        return result

    def _result_engine(self, job: BatchJob) -> str:
        """The engine-component string for one job's compilation target.

        Memoized per target value: the component folds the OCU cache
        fingerprint in, and probing it costs one throwaway unit.
        """
        target = self._job_target(job)
        memo_key = json.dumps(target_payload(target), sort_keys=True)
        component = self._result_components.get(memo_key)
        if component is None:
            probe = self.make_ocu(cache=PulseCache(), device=target)
            component = engine_component(
                target, self.compiler_config, self.backend, probe.fingerprint
            )
            self._result_components[memo_key] = component
        return component

    def result_key(self, job: BatchJob) -> str | None:
        """The job's identity under this engine: its result-cache key.

        The label-stripped job envelope plus this engine's settings
        (default device, compiler config, backend, OCU fingerprint), so
        a differently configured engine never shares an identity.  The
        compile service keys its jobs, breaker and coalescing on it.
        None when the job's envelope cannot serialize (explicit
        ``passes=`` lists, unregistered strategies) — such jobs never
        cache.
        """
        from repro.ir.serialize import batch_job_to_dict

        try:
            envelope = batch_job_to_dict(job)
        except SerializationError:
            return None
        return result_key(envelope, self._result_engine(job))

    def _cache_key(self, job: BatchJob) -> str | None:
        """:meth:`result_key`, or None when no result cache is attached."""
        if self.result_cache is None:
            return None
        return self.result_key(job)

    def compile_batch(self, jobs: Iterable) -> BatchReport:
        """Compile every job, fanning across workers; results in order.

        Args:
            jobs: :class:`BatchJob` instances, bare circuits, or
                ``(circuit, strategy)`` / ``(circuit, strategy,
                width_limit)`` tuples.
        """
        jobs = [_as_job(job) for job in jobs]
        if not jobs:
            return BatchReport(
                results=[],
                seconds=[],
                wall_seconds=0.0,
                workers=0,
                cache_info=self._store_info(dict.fromkeys(_COUNTER_KEYS, 0)),
                executor=self.executor,
                result_cache=self._fresh_result_stats(),
            )
        workers = self.max_workers
        if workers is None:
            workers = min(len(jobs), os.cpu_count() or 1)
        workers = max(1, min(workers, len(jobs)))

        started = time.perf_counter()
        counters = {key: 0 for key in _COUNTER_KEYS}
        results: list[CompilationResult | None] = [None] * len(jobs)
        seconds = [0.0] * len(jobs)
        # Triage against the result cache: serve repeats, collapse
        # in-batch duplicates onto one primary, compile the rest.
        result_stats = self._fresh_result_stats()
        dedup_of: dict[int, int] = {}
        result_keys: dict[int, str] = {}
        if self.result_cache is None:
            pending = list(enumerate(jobs))
        else:
            pending = []
            primary_by_key: dict[str, int] = {}
            for index, job in enumerate(jobs):
                key = self.result_key(job)
                if key is None:
                    result_stats["uncacheable"] += 1
                    pending.append((index, job))
                    continue
                cached = self.result_cache.get(key)
                if cached is not None:
                    results[index] = cached
                    result_stats["hits"] += 1
                    continue
                primary = primary_by_key.get(key)
                if primary is not None:
                    dedup_of[index] = primary
                    result_stats["deduped"] += 1
                    continue
                primary_by_key[key] = index
                result_keys[index] = key
                pending.append((index, job))
            result_stats["compiled"] = len(pending)
        prewarm_stats = None
        if pending and self.prewarm_active():
            prewarm_stats = self._prewarm_batch(
                [job for _, job in pending], workers, counters
            )
        if not pending:
            pass
        elif self.executor == "process":
            # Even a single worker goes through the pool: the point of
            # the mode is the serialized-job path, and silently running
            # inline would hide wire-format regressions.
            self._run_parallel_processes(
                pending, workers, counters, results, seconds
            )
        elif workers == 1:
            for index, job in pending:
                results[index], seconds[index], used = self._run_job(job)
                for key in _COUNTER_KEYS:
                    counters[key] += used[key]
        else:
            self._run_parallel(pending, workers, counters, results, seconds)
        if self.result_cache is not None:
            for index, key in result_keys.items():
                if results[index] is not None:
                    self.result_cache.put(key, results[index])
                    result_stats["stores"] += 1
            if dedup_of:
                from repro.ir.serialize import (
                    result_from_dict,
                    result_to_dict,
                )

                for index, primary in dedup_of.items():
                    # Fan out a fresh deserialized copy — identical to a
                    # cache serve, never a shared mutable schedule.
                    results[index] = result_from_dict(
                        result_to_dict(results[primary], include_source=True)
                    )
                    seconds[index] = 0.0
        for key in _COUNTER_KEYS:
            self.lifetime_info[key] += counters[key]
        if prewarm_stats is not None:
            self.lifetime_info["prewarm_synthesized"] += prewarm_stats[
                "synthesized"
            ]
        return BatchReport(
            results=results,
            seconds=seconds,
            wall_seconds=time.perf_counter() - started,
            workers=workers,
            cache_info=self._store_info(counters),
            executor=self.executor,
            prewarm=prewarm_stats,
            result_cache=result_stats,
        )

    def _fresh_result_stats(self) -> dict | None:
        """Zeroed per-batch result-cache stats, or None without a cache."""
        if self.result_cache is None:
            return None
        return {
            "hits": 0,
            "deduped": 0,
            "stores": 0,
            "uncacheable": 0,
            "compiled": 0,
        }

    # ------------------------------------------------------------------

    def _job_target(self, job: BatchJob) -> Device | DeviceConfig:
        """The device argument a job's compilation (and OCU) should see.

        A job-level ``device`` wins outright.  A job-level bare
        ``topology`` overrides the engine's default *machine* while
        keeping its physics baseline — forwarding a full default Device
        alongside it would be rejected downstream as contradictory.
        """
        if job.device is not None:
            return job.device
        if job.topology is not None and isinstance(self.device, Device):
            return self.device.config
        return self.device

    def _compile_job(
        self,
        job: BatchJob,
        ocu: OptimalControlUnit,
        verify_ir: bool | None = None,
        extra_callbacks: Sequence[PassCallback] = (),
    ) -> CompilationResult:
        """Run one job's pipeline through the pass-manager core.

        ``extra_callbacks`` are per-job hooks appended after the
        engine-level ``pass_callbacks`` for this compilation only — the
        compile service threads its cancellation probe and per-job
        instrumentation through here without touching engine state.
        """
        pipeline = job.pipeline()
        if job.pulse_backend is not None:
            pulse_backend = job.pulse_backend
        elif job.passes is not None:
            # Explicit per-job pipeline: the pass list alone is the
            # source of truth; None lets compile_with_pipeline apply its
            # own auto-detection (one rule, one place).
            pulse_backend = None
        else:
            # Strategy-resolved pipeline: one shared pricing policy with
            # compile_circuit.
            pulse_backend = strategy_pulse_backend(job.strategy, pipeline)
        return compile_with_pipeline(
            job.circuit,
            pipeline,
            strategy_key=job.strategy.key,
            pulse_backend=pulse_backend,
            device=self._job_target(job),
            compiler_config=self.compiler_config,
            ocu=ocu,
            topology=job.topology,
            width_limit=job.width_limit,
            callbacks=list(self.pass_callbacks) + list(extra_callbacks),
            verify_ir=self.verify_ir if verify_ir is None else verify_ir,
        )

    def _run_job(
        self,
        job: BatchJob,
        cancel: Callable[[], str | None] | None = None,
        extra_callbacks: Sequence[PassCallback] = (),
    ) -> tuple[CompilationResult, float, dict[str, int]]:
        """Compile one job through a session view and merge its delta.

        ``cancel`` is an optional cooperative probe polled at every pass
        boundary; returning a non-empty string aborts the job with a
        :class:`~repro.errors.JobCancelledError` carrying that reason.
        The session delta is merged into the shared store even when the
        job fails or is cancelled mid-pipeline — optimal-control work
        already finished stays warm, so a retry (or the next job sharing
        blocks with this one) never re-synthesizes it.
        """
        callbacks = list(extra_callbacks)
        if cancel is not None:

            def _abort_if_cancelled(pass_, context, elapsed) -> None:
                reason = cancel()
                if reason:
                    raise JobCancelledError(
                        f"job {job.key!r} cancelled: {reason}"
                    )

            callbacks.append(_abort_if_cancelled)
        job_started = time.perf_counter()
        session = CacheSession(self.cache)
        ocu = self.make_ocu(cache=session, device=self._job_target(job))
        try:
            result = self._compile_job(job, ocu, extra_callbacks=callbacks)
        finally:
            self.cache.merge_delta(session.delta)
        used = {key: getattr(ocu, key) for key in _COUNTER_KEYS}
        return result, time.perf_counter() - job_started, used

    def run_job(
        self,
        job,
        cancel: Callable[[], str | None] | None = None,
        extra_callbacks: Sequence[PassCallback] = (),
    ) -> tuple[CompilationResult, float, dict[str, int]]:
        """Compile one job now, on the calling thread; the service entry.

        Accepts anything :meth:`compile_batch` accepts as a job.  Unlike
        the internal batch path this also folds the job's counters into
        :attr:`lifetime_info`, so a long-running front door (the compile
        service) reads its cumulative optimal-control bill the same way
        sweep drivers do.

        Returns:
            ``(result, seconds, counters)`` — the compiled result, its
            wall-clock, and the per-job OCU counter dict.  A result-cache
            hit returns the lookup wall-clock and all-zero counters (no
            pass ran, no model was evaluated).
        """
        job = _as_job(job)
        cache_key = self._cache_key(job)
        if cache_key is not None:
            lookup_started = time.perf_counter()
            cached = self.result_cache.get(cache_key)
            if cached is not None:
                return (
                    cached,
                    time.perf_counter() - lookup_started,
                    dict.fromkeys(_COUNTER_KEYS, 0),
                )
        result, seconds, used = self._run_job(
            job, cancel=cancel, extra_callbacks=extra_callbacks
        )
        if cache_key is not None:
            self.result_cache.put(cache_key, result)
        for key in _COUNTER_KEYS:
            self.lifetime_info[key] += used[key]
        return result, seconds, used

    def _run_parallel(
        self, pending, workers, counters, results, seconds
    ) -> None:
        """Submit at most ``workers`` jobs at a time.

        ``pending`` is the batch's to-compile worklist as ``(index,
        job)`` pairs — indexes into the full results array, so cache
        triage can skip served jobs without renumbering.  A bounded
        submission window (rather than submitting everything up front)
        means a job launched late in the batch sees every earlier job's
        merged cache delta, maximizing reuse.
        """
        pending_jobs = iter(pending)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            active = {}
            for index, job in pending_jobs:
                active[pool.submit(self._run_job, job)] = index
                if len(active) >= workers:
                    break
            while active:
                done, _ = wait(active, return_when=FIRST_COMPLETED)
                for future in done:
                    index = active.pop(future)
                    results[index], seconds[index], used = future.result()
                    for key in _COUNTER_KEYS:
                        counters[key] += used[key]
                for index, job in pending_jobs:
                    active[pool.submit(self._run_job, job)] = index
                    if len(active) >= workers:
                        break

    # -- pre-warm planner ----------------------------------------------

    def prewarm_active(self) -> bool:
        """Whether :meth:`compile_batch` will run the pre-warm planner.

        ``prewarm="auto"`` (the default) enables it exactly when the
        engine prices through GRAPE — the planner's dry-run phase is
        pure overhead when the analytic model answers every query.
        """
        if self.prewarm == "auto":
            return self.backend == "grape"
        return bool(self.prewarm)

    def plan_prewarm(self, jobs: Sequence[BatchJob]) -> tuple[dict, int]:
        """Extract the batch's distinct GRAPE worklist without GRAPE.

        Every job is dry-run against the analytic model through a
        :class:`_PlanningUnit` that records each GRAPE-eligible latency
        query under the unit's cache-signature convention
        (:meth:`~repro.control.unit.OptimalControlUnit.node_signature`).
        The dry-runs also warm every ``"model"``-keyed latency entry in
        the shared store, so the real jobs' aggregation searches answer
        their candidate probes from cache.

        Returns:
            ``(worklist, demand)`` — ``worklist`` maps
            ``(fingerprint, signature)`` to ``(node, positional,
            job_index)`` for every distinct control problem in the
            batch; ``demand`` counts the same problems once per job
            that needs them, so ``demand / len(worklist)`` is the
            batch's dedup ratio.
        """
        worklist: dict[tuple, tuple] = {}
        demand = 0

        def dry_run(indexed) -> dict:
            index, job = indexed
            recorded: dict[tuple, tuple] = {}
            session = CacheSession(self.cache)
            unit = _PlanningUnit(
                recorded,
                device=self._job_target(job),
                compiler=self.compiler_config,
                grape_qubit_limit=self.grape_qubit_limit,
                grape_dt=self.grape_dt,
                seed=self.seed,
                cache=session,
                grape_kernel=self.grape_kernel,
                grape_warm_start=self.grape_warm_start,
                grape_plateau_iterations=self.grape_plateau_iterations,
            )
            # Result discarded: only the recorded worklist and the
            # model-latency cache entries matter.  IR verification (if
            # configured) runs on the real compilation, not twice.
            self._compile_job(job, unit, verify_ir=False)
            self.cache.merge_delta(session.delta)
            return {
                key: (node, positional, index)
                for key, (node, positional) in recorded.items()
            }

        indexed_jobs = list(enumerate(jobs))
        pool_size = min(len(indexed_jobs), self._worker_count(len(indexed_jobs)))
        if pool_size <= 1:
            per_job = [dry_run(item) for item in indexed_jobs]
        else:
            with ThreadPoolExecutor(max_workers=pool_size) as pool:
                per_job = list(pool.map(dry_run, indexed_jobs))
        for recorded in per_job:
            demand += len(recorded)
            for key, value in recorded.items():
                worklist.setdefault(key, value)
        return worklist, demand

    def _worker_count(self, jobs: int) -> int:
        workers = self.max_workers
        if workers is None:
            workers = min(jobs, os.cpu_count() or 1)
        return max(1, min(workers, jobs))

    def _prewarm_batch(self, jobs, workers, counters) -> dict:
        """Run the planner, then solve each distinct problem exactly once.

        The synthesis stage fans the worklist across workers (threads,
        or a dedicated process pool in process mode) and merges every
        delta into the shared store *before* any job is dispatched, so
        no two workers — and in process mode, no two worker-resident
        caches — ever solve the same control problem.
        """
        plan_started = time.perf_counter()
        worklist, demand = self.plan_prewarm(jobs)
        plan_seconds = time.perf_counter() - plan_started
        synthesis_started = time.perf_counter()
        if self.executor == "process":
            synthesized = self._prewarm_synthesize_processes(
                jobs, worklist, workers, counters
            )
        else:
            synthesized = self._prewarm_synthesize_threads(
                jobs, worklist, workers, counters
            )
        return {
            "signatures": len(worklist),
            "demand": demand,
            "dedup_ratio": demand / len(worklist) if worklist else 1.0,
            "synthesized": synthesized,
            "plan_seconds": plan_seconds,
            "synthesis_seconds": time.perf_counter() - synthesis_started,
        }

    def _prewarm_synthesize_threads(self, jobs, worklist, workers, counters):
        def synthesize(entry) -> dict:
            node, positional, job_index = entry
            session = CacheSession(self.cache)
            unit = self.make_ocu(
                cache=session, device=self._job_target(jobs[job_index])
            )
            unit.latency(node, positional)
            self.cache.merge_delta(session.delta)
            return {key: getattr(unit, key) for key in _COUNTER_KEYS}

        entries = list(worklist.values())
        if not entries:
            return 0
        pool_size = min(workers, len(entries))
        if pool_size <= 1:
            infos = [synthesize(entry) for entry in entries]
        else:
            with ThreadPoolExecutor(max_workers=pool_size) as pool:
                infos = list(pool.map(synthesize, entries))
        synthesized = 0
        for used in infos:
            synthesized += self._synthesized_of(used)
            for key in _COUNTER_KEYS:
                counters[key] += used[key]
        return synthesized

    def _synthesized_of(self, used: dict) -> int:
        """How many problems one synthesis call actually solved (0 when
        the entry was already cached).  Grape-backed syntheses also burn
        one model eval for the search estimate, so count by backend."""
        if self.backend == "grape":
            return used["grape_calls"]
        return used["model_evals"]

    def _prewarm_synthesize_processes(self, jobs, worklist, workers, counters):
        from repro.ir.serialize import cache_delta_from_dict, node_to_dict

        entries = []
        for node, positional, job_index in worklist.values():
            payload = {"node": node_to_dict(node), "positional": positional}
            target = self._job_target(jobs[job_index])
            if target is not self.device:
                payload["device"] = target_payload(target)
            entries.append(payload)
        if not entries:
            return 0
        config = self._config_payload()
        synthesized = 0
        with self._seeded_pool(min(workers, len(entries))) as pool:
            futures = [
                pool.submit(_prewarm_item_payload, config, entry)
                for entry in entries
            ]
            for future in futures:
                delta_payload, used = future.result()
                self.cache.merge_delta(cache_delta_from_dict(delta_payload))
                synthesized += self._synthesized_of(used)
                for key in _COUNTER_KEYS:
                    counters[key] += used[key]
        return synthesized

    # -- process executor ----------------------------------------------

    def _seeded_pool(self, workers: int) -> ProcessPoolExecutor:
        """Worker processes, each seeded once with a snapshot of the store."""
        from repro.ir.serialize import cache_delta_to_dict

        snapshot = cache_delta_to_dict(self.cache.snapshot_delta())
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_seed_worker_store, initargs=(snapshot,)
        )

    def _config_payload(self) -> dict:
        """Engine-level settings as one :mod:`repro.ir` wire payload."""
        from repro.ir.serialize import compiler_config_to_dict

        return {
            "device": target_payload(self.device),
            "compiler": compiler_config_to_dict(self.compiler_config),
            "backend": self.backend,
            "grape_qubit_limit": self.grape_qubit_limit,
            "grape_dt": self.grape_dt,
            "seed": self.seed,
            "verify_ir": self.verify_ir,
            "grape_kernel": self.grape_kernel,
            "grape_warm_start": self.grape_warm_start,
            "grape_plateau_iterations": self.grape_plateau_iterations,
        }

    def _run_parallel_processes(
        self, pending, workers, counters, results, seconds
    ) -> None:
        """Fan serialized jobs across worker processes.

        ``pending`` carries ``(index, job)`` pairs exactly like
        :meth:`_run_parallel`.  All jobs are submitted up front (unlike
        the thread path's bounded
        window: workers hold process-local caches, so delaying submission
        would not improve reuse).  Each worker is seeded once, at pool
        start, with a serialized snapshot of the shared store — a warm
        (e.g. disk-loaded) cache therefore skips optimal-control work in
        process mode too.  Each completed future contributes its
        serialized result and its cache delta; the delta merges into the
        shared store so subsequent batches — process or thread — start
        warm.  (Within one batch, workers do not see each other's
        deltas; each warms up over its own job stream.)
        """
        from repro.ir.serialize import (
            batch_job_to_dict,
            cache_delta_from_dict,
            result_from_dict,
        )

        config = self._config_payload()
        # Jobs ship as their repro-ir-v1 envelope, the compile service's
        # submission unit: strategies travel by registered key (under a
        # ``fork`` start method custom registrations are inherited, under
        # ``spawn`` only importable ones survive), and in-memory pass
        # objects cannot travel at all.
        try:
            payloads = [(index, batch_job_to_dict(job)) for index, job in pending]
        except SerializationError as error:
            raise ConfigError(
                f"{error} (so it cannot cross a process boundary either: "
                f"use executor='thread')"
            ) from None
        with self._seeded_pool(workers) as pool:
            active = {
                pool.submit(_compile_job_payload, config, payload): index
                for index, payload in payloads
            }
            while active:
                done, _ = wait(active, return_when=FIRST_COMPLETED)
                for future in done:
                    index = active.pop(future)
                    result_payload, delta_payload, elapsed, used = (
                        future.result()
                    )
                    results[index] = result_from_dict(result_payload)
                    seconds[index] = elapsed
                    self.cache.merge_delta(
                        cache_delta_from_dict(delta_payload)
                    )
                    for key in _COUNTER_KEYS:
                        counters[key] += used[key]

    def _store_info(self, counters) -> dict:
        info = dict(counters)
        info["latency_entries"] = self.cache.latency_count
        info["pulse_entries"] = self.cache.pulse_count
        # The store's own counters (hits/misses/evictions, plus backend
        # extras like shard flushes or remote round trips) ride along so
        # BatchReport.cache_info is the one-stop cache bill; the OCU
        # counter sums above win on collision.
        for key, value in self.cache.stats().items():
            info.setdefault(key, value)
        return info

    def cache_stats(self) -> dict:
        """The shared store's backend-level counters (see ``stats()``)."""
        return self.cache.stats()

    def result_cache_stats(self) -> dict | None:
        """The attached result cache's lifetime counters, or None."""
        if self.result_cache is None:
            return None
        return self.result_cache.stats()

    def save_cache(self) -> int:
        """Persist/flush the store; returns entries written upstream.

        Every backend implements ``save()`` (a no-op returning 0 for the
        plain in-memory store), so drivers call this unconditionally:
        disk caches write their pair, sharded caches flush dirty shards
        under their locks, remote caches upload the pending delta.
        """
        return self.cache.save()


#: Process-local cache each worker accumulates across its job stream.
#: One store per worker process is safe for mixed configurations because
#: every cache key carries its configuration fingerprint.
_WORKER_STORE: PulseCache | None = None


def _worker_store() -> PulseCache:
    global _WORKER_STORE
    if _WORKER_STORE is None:
        _WORKER_STORE = PulseCache()
    return _WORKER_STORE


def _target_from_payload(payload: dict) -> Device | DeviceConfig:
    """The target a :func:`target_payload` encodes."""
    from repro.ir.serialize import device_config_from_dict, device_from_dict

    if payload["kind"] == "device":
        return device_from_dict(payload)
    return device_config_from_dict(payload)


def _seed_worker_store(snapshot_payload: dict) -> None:
    """Pool initializer: warm this worker's store from the parent's.

    Runs once per worker process.  The snapshot is the parent's shared
    store serialized as one cache delta, so a warm (disk-loaded) cache
    reaches process workers instead of every worker starting cold.
    """
    from repro.ir.serialize import cache_delta_from_dict

    _worker_store().merge_delta(cache_delta_from_dict(snapshot_payload))


def _compile_job_payload(config: dict, job_payload: dict) -> tuple:
    """Worker-process entry: compile one serialized job.

    Runs in a ``ProcessPoolExecutor`` worker.  Rebuilds the job and the
    engine configuration from their wire payloads, compiles through a
    session over the worker-local store, and returns
    ``(result_payload, delta_payload, seconds, counters)`` — all wire
    payloads again, so nothing process-local leaks back to the parent.
    """
    from repro.ir.serialize import (
        batch_job_from_dict,
        cache_delta_to_dict,
        compiler_config_from_dict,
        result_to_dict,
    )

    started = time.perf_counter()
    engine = BatchCompiler(
        device=_target_from_payload(config["device"]),
        compiler_config=compiler_config_from_dict(config["compiler"]),
        cache=_worker_store(),
        backend=config["backend"],
        max_workers=1,
        grape_qubit_limit=config["grape_qubit_limit"],
        grape_dt=config["grape_dt"],
        seed=config["seed"],
        verify_ir=config["verify_ir"],
        grape_kernel=config["grape_kernel"],
        grape_warm_start=config["grape_warm_start"],
        grape_plateau_iterations=config["grape_plateau_iterations"],
        # Pre-warming happened (if at all) in the parent before this
        # worker's seed snapshot was taken; never re-plan per job.
        prewarm=False,
    )
    job = batch_job_from_dict(job_payload)
    session = CacheSession(engine.cache)
    ocu = engine.make_ocu(cache=session, device=engine._job_target(job))
    result = engine._compile_job(job, ocu)
    engine.cache.merge_delta(session.delta)
    used = {key: getattr(ocu, key) for key in _COUNTER_KEYS}
    return (
        result_to_dict(result),
        cache_delta_to_dict(session.delta),
        time.perf_counter() - started,
        used,
    )


class _PlanningUnit(OptimalControlUnit):
    """Dry-run OCU the pre-warm planner compiles jobs through.

    Prices every query with the analytic model (cheap, deterministic)
    while recording each query a ``backend="grape"`` engine would answer
    with optimal control, keyed by the unit's cache-signature convention
    (:meth:`OptimalControlUnit.node_signature`).  The planner unions
    these records across jobs into the batch's distinct worklist.  The
    configuration fingerprint deliberately excludes the backend, so the
    recorded keys are exactly the pulse-cache keys the real jobs probe.
    """

    def __init__(self, recorded: dict, **kwargs) -> None:
        kwargs["backend"] = "model"
        super().__init__(**kwargs)
        self._recorded = recorded

    def latency(self, node, positional: bool = True) -> float:
        if len(support_of(node)) <= self.grape_qubit_limit:
            key = (self.fingerprint, self._node_signature(node, positional))
            self._recorded.setdefault(key, (node, positional))
        return super().latency(node, positional)


def _prewarm_item_payload(config: dict, entry: dict) -> tuple:
    """Worker-process entry: solve one serialized control problem.

    The pre-warm analogue of :func:`_compile_job_payload`: rebuilds the
    node and target from wire payloads, prices it through the engine's
    real backend against a session over the worker-local store, and
    returns ``(delta_payload, counters)`` so the parent can merge the
    synthesized pulse/latency entries into the shared store *before*
    the job pool (whose seed snapshot must include them) starts.
    """
    from repro.ir.serialize import (
        cache_delta_to_dict,
        compiler_config_from_dict,
        node_from_dict,
    )

    store = _worker_store()
    session = CacheSession(store)
    unit = OptimalControlUnit(
        device=_target_from_payload(entry.get("device", config["device"])),
        compiler=compiler_config_from_dict(config["compiler"]),
        backend=config["backend"],
        grape_qubit_limit=config["grape_qubit_limit"],
        grape_dt=config["grape_dt"],
        seed=config["seed"],
        cache=session,
        grape_kernel=config["grape_kernel"],
        grape_warm_start=config["grape_warm_start"],
        grape_plateau_iterations=config["grape_plateau_iterations"],
    )
    unit.latency(node_from_dict(entry["node"]), entry["positional"])
    store.merge_delta(session.delta)
    used = {key: getattr(unit, key) for key in _COUNTER_KEYS}
    return cache_delta_to_dict(session.delta), used


def _as_job(job) -> BatchJob:
    """Coerce circuits and tuples into :class:`BatchJob`."""
    if isinstance(job, BatchJob):
        return job
    if isinstance(job, Circuit):
        return BatchJob(circuit=job)
    if isinstance(job, Sequence) and not isinstance(job, (str, bytes)):
        if not 1 <= len(job) <= 3:
            raise ConfigError(
                f"a job tuple needs 1-3 entries (circuit, strategy, "
                f"width_limit), got {len(job)}"
            )
        circuit = job[0]
        strategy = job[1] if len(job) > 1 else ISA
        width_limit = job[2] if len(job) > 2 else None
        if not isinstance(circuit, Circuit):
            raise ConfigError(f"job circuit must be a Circuit, got {circuit!r}")
        if not isinstance(strategy, Strategy):
            raise ConfigError(
                f"job strategy must be a Strategy, got {strategy!r}"
            )
        return BatchJob(
            circuit=circuit, strategy=strategy, width_limit=width_limit
        )
    raise ConfigError(f"cannot interpret batch job {job!r}")


def resolve_engine(
    engine: BatchCompiler | None = None,
    ocu: OptimalControlUnit | None = None,
    max_workers: int | None = None,
) -> BatchCompiler:
    """The engine a driver should use.

    An explicit ``engine`` wins; otherwise one is wrapped around ``ocu``
    (sharing its cache, so pre-batch-era call sites keep their warm
    caches); otherwise a fresh default engine.
    """
    if engine is not None:
        return engine
    if ocu is not None:
        return BatchCompiler.from_ocu(ocu, max_workers=max_workers)
    return BatchCompiler(max_workers=max_workers)


def compile_batch(
    jobs: Iterable,
    device: Device | DeviceConfig | str = DEFAULT_DEVICE,
    compiler_config: CompilerConfig = DEFAULT_COMPILER,
    cache: PulseCache | None = None,
    backend: str = "model",
    max_workers: int | None = None,
    executor: str = "thread",
) -> BatchReport:
    """Compile a batch of (circuit, strategy) jobs; results in job order.

    Convenience wrapper constructing a throwaway :class:`BatchCompiler`;
    keep an engine instance (or at least pass ``cache=``) to reuse the
    pulse cache across batches.
    """
    engine = BatchCompiler(
        device=device,
        compiler_config=compiler_config,
        cache=cache,
        backend=backend,
        max_workers=max_workers,
        executor=executor,
    )
    return engine.compile_batch(jobs)
