"""Batch compilation: many (circuit, strategy) jobs over one shared cache.

The single-shot :func:`~repro.compiler.pipeline.compile_circuit` API
compiles one circuit under one strategy.  Every real workload — the
Figure 9 strategy sweep, the Figure 10 width sweep, a VQE driver
recompiling parameterized ansatz variants — compiles *many* circuits, and
most of the optimal-control work repeats across them: the same CNOT,
SWAP and diagonal-block structures appear in every job.

:class:`BatchCompiler` exploits that.  It owns one shared
:class:`~repro.control.cache.PulseCache` (optionally a disk-persistent
one).  Every unit of work — a job, a pre-warm planner dry-run, a
pre-warm synthesis — takes one path: a fresh
:class:`~repro.control.cache.CacheSession` (a private read-through view
of the shared store, so workers never contend on the store lock for
writes), a unit built from the engine's one set of settings, the work,
and a merge of the session's delta of newly computed latencies/pulses
into the store, even when the work raises.  A job opens its session
when it starts, so it sees every delta merged before then.

Both executors fan units out with ``Executor.map``: outcomes come back
in input order, and a failed unit surfaces once the units before it
finish, after which units not yet started never run.

* ``executor="thread"`` (default) — worker threads over the shared
  in-memory store, inline when one worker suffices.  Cheap to start,
  full cache sharing, but the pure-Python pass pipeline serializes on
  the GIL.
* ``executor="process"`` — worker *processes*, each seeded at pool
  start with a snapshot of the shared store and a twin engine rebuilt
  from this engine's settings.  Jobs ship as :mod:`repro.ir` envelopes
  (pre-warm problems as serialized nodes; nothing process-local crosses
  the boundary), run through the twin's same session path, and return
  serialized results plus their :class:`~repro.control.cache.CacheDelta`,
  which the parent merges into the shared store.  This sidesteps the
  GIL — the speedup on many-core machines is what
  ``benchmarks/bench_batch.py`` records — at the cost of per-job
  serialization and no *cross-worker* cache sharing during one batch
  (the merged store carries everything forward to the next batch).
  Jobs carrying in-memory pass objects (``BatchJob.passes``) or engines
  with ``pass_callbacks`` cannot cross a process boundary and are
  rejected with a :class:`~repro.errors.ConfigError`; strategies ship
  by registered key.

Results are returned in job order and are bit-identical to serial
:func:`compile_circuit` calls: the latency model and GRAPE are
deterministic functions of instruction structure, so neither sharing
cached values across jobs nor the choice of executor can change any
result (``tests/compiler/test_batch_process.py`` pins thread/process
parity on the canonical wire form).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

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
    CacheDelta,
    CacheSession,
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

#: The optimal-control counters every unit of work reports, summed into
#: ``BatchReport.cache_info`` and :attr:`BatchCompiler.lifetime_info`.
COUNTER_KEYS = (
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
        cache: Shared store; a fresh in-memory one when omitted.  Pass
            any :class:`~repro.control.cache.PulseCache` backend (the
            :class:`~repro.control.cache.ShardedDiskPulseCache`
            directory for persistence across processes, the remote
            client), or a spec — the string ``"tcp://host:port"`` mounts
            a cache server, any other string or :class:`os.PathLike` is a
            cache directory.
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
            ``str``/:class:`os.PathLike` path mounting a
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
        cache: PulseCache | str | os.PathLike | None = None,
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
        result_cache: ResultCache | str | os.PathLike | None = None,
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
        # A string selects a shared backend: "tcp://host:port" mounts the
        # cache server, any other string or path is a cache directory.
        if isinstance(cache, str) and cache.startswith("tcp://"):
            cache = resolve_cache(url=cache)
        elif isinstance(cache, (str, os.PathLike)):
            cache = resolve_cache(path=os.fspath(cache))
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
        if isinstance(result_cache, (str, os.PathLike)):
            result_cache = DiskResultCache(result_cache)
        #: Optional content-addressed store of whole compiled results;
        #: when set, byte-identical jobs (same canonical envelope, same
        #: engine settings) are served from it instead of recompiling,
        #: both within one batch and across batches/engines sharing the
        #: store.  A path mounts a :class:`DiskResultCache` directory.
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
            COUNTER_KEYS + ("prewarm_synthesized",), 0
        )

    # ------------------------------------------------------------------

    def _unit_settings(self) -> dict:
        """The optimal-control unit keywords every unit this engine
        builds shares: everything but the target and the cache."""
        return {
            "compiler": self.compiler_config,
            "backend": self.backend,
            "grape_qubit_limit": self.grape_qubit_limit,
            "grape_dt": self.grape_dt,
            "seed": self.seed,
            "grape_kernel": self.grape_kernel,
            "grape_warm_start": self.grape_warm_start,
            "grape_plateau_iterations": self.grape_plateau_iterations,
        }

    def make_ocu(
        self,
        cache: PulseCache | CacheSession | None = None,
        device: Device | DeviceConfig | None = None,
    ) -> OptimalControlUnit:
        """A fresh OCU bound to the shared store (or a session view).

        ``device`` overrides the engine's default target, so per-edge
        limits and cache fingerprints match that machine.
        """
        return OptimalControlUnit(
            device=device if device is not None else self.device,
            cache=cache if cache is not None else self.cache,
            **self._unit_settings(),
        )

    def compile(
        self,
        circuit: Circuit,
        strategy: Strategy | str = ISA,
        width_limit: int | None = None,
        topology: Topology | None = None,
        device: Device | str | None = None,
    ) -> CompilationResult:
        """Compile one circuit now: :meth:`run_job`'s result for it."""
        job = BatchJob(
            circuit=circuit,
            strategy=strategy,
            width_limit=width_limit,
            topology=topology,
            device=device,
        )
        return self.run_job(job)[0]

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
        None when the job's envelope or its compilation target cannot
        serialize (explicit ``passes=`` lists, unregistered strategies,
        custom topology subclasses) — such jobs never cache.
        """
        from repro.ir.serialize import batch_job_to_dict

        try:
            return result_key(batch_job_to_dict(job), self._result_engine(job))
        except SerializationError:
            return None

    def compile_batch(self, jobs: Iterable) -> BatchReport:
        """Compile every job, fanning across workers; results in order.

        Args:
            jobs: :class:`BatchJob` instances, bare circuits, or
                ``(circuit, strategy)`` / ``(circuit, strategy,
                width_limit)`` tuples.
        """
        jobs = [_as_job(job) for job in jobs]
        workers = self._worker_count(len(jobs))
        started = time.perf_counter()
        counters = dict.fromkeys(COUNTER_KEYS, 0)
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
        to_compile = [job for _, job in pending]
        prewarm_stats = None
        if to_compile and self.prewarm_active():
            prewarm_stats = self._prewarm_batch(to_compile, workers, counters)
        outcomes = self._map_jobs(to_compile, workers)
        for (index, _), (result, elapsed, used) in zip(pending, outcomes):
            results[index], seconds[index] = result, elapsed
            _add_counters(counters, used)
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
        _add_counters(self.lifetime_info, counters)
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

    def _in_session(
        self,
        target: Device | DeviceConfig,
        work: Callable[[OptimalControlUnit], object],
        unit: Callable[..., OptimalControlUnit] = OptimalControlUnit,
    ) -> tuple[object, CacheDelta, dict]:
        """Run ``work(unit)`` over a fresh session of the shared store.

        The one path every unit of work takes — jobs, planner dry-runs
        and pre-warm syntheses, here and on a process worker's twin
        engine alike.  ``unit`` (the OCU class, or a factory taking its
        keywords) is built for ``target`` from :meth:`_unit_settings`
        over the session.  The session delta is merged into the shared
        store even when ``work`` raises — optimal-control work already
        finished stays warm, so a retry (or the next job sharing blocks
        with this one) never re-synthesizes it.

        Returns:
            ``(value, delta, counters)`` — what ``work`` returned, the
            session's delta, and the unit's :data:`COUNTER_KEYS`.
        """
        session = CacheSession(self.cache)
        ocu = unit(device=target, cache=session, **self._unit_settings())
        try:
            value = work(ocu)
        finally:
            self.cache.merge_delta(session.delta)
        used = {key: getattr(ocu, key) for key in COUNTER_KEYS}
        return value, session.delta, used

    def _run_job(
        self,
        job: BatchJob,
        cancel: Callable[[], str | None] | None = None,
        extra_callbacks: Sequence[PassCallback] = (),
    ) -> tuple[CompilationResult, float, dict[str, int]]:
        """Compile one job in a session; ``(result, seconds, counters)``.

        ``cancel`` is an optional cooperative probe polled at every pass
        boundary; returning a non-empty string aborts the job with a
        :class:`~repro.errors.JobCancelledError` carrying that reason
        (the session delta still merges).
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
        result, _, used = self._in_session(
            self._job_target(job),
            lambda unit: self._compile_job(job, unit, extra_callbacks=callbacks),
        )
        return result, time.perf_counter() - job_started, used

    def run_job(
        self,
        job,
        cancel: Callable[[], str | None] | None = None,
        extra_callbacks: Sequence[PassCallback] = (),
    ) -> tuple[CompilationResult, float, dict[str, int]]:
        """Compile one job now, on the calling thread; the service entry.

        Accepts anything :meth:`compile_batch` accepts as a job, and
        like it folds the job's counters into :attr:`lifetime_info`, so
        a long-running front door (the compile service) reads its
        cumulative optimal-control bill the same way sweep drivers do.

        Returns:
            ``(result, seconds, counters)`` — the compiled result, its
            wall-clock, and the per-job OCU counter dict.  A result-cache
            hit returns the lookup wall-clock and all-zero counters (no
            pass ran, no model was evaluated).
        """
        job = _as_job(job)
        cache_key = None if self.result_cache is None else self.result_key(job)
        if cache_key is not None:
            lookup_started = time.perf_counter()
            cached = self.result_cache.get(cache_key)
            if cached is not None:
                return (
                    cached,
                    time.perf_counter() - lookup_started,
                    dict.fromkeys(COUNTER_KEYS, 0),
                )
        result, seconds, used = self._run_job(
            job, cancel=cancel, extra_callbacks=extra_callbacks
        )
        if cache_key is not None:
            self.result_cache.put(cache_key, result)
        _add_counters(self.lifetime_info, used)
        return result, seconds, used

    def _worker_count(self, units: int) -> int:
        """Workers for ``units`` units of work: ``max_workers``, else one
        per CPU, never more than the units."""
        workers = self.max_workers
        if workers is None:
            workers = os.cpu_count() or 1
        return min(workers, units)

    def _map_jobs(self, jobs: list[BatchJob], workers: int) -> list[tuple]:
        """``(result, seconds, counters)`` per job, in job order."""
        if self.executor == "thread":
            return _thread_map(self._run_job, jobs, workers)
        from repro.ir.serialize import batch_job_to_dict, result_from_dict

        # Jobs ship as their repro-ir-v1 envelope, the compile service's
        # submission unit: strategies travel by registered key (under a
        # ``fork`` start method custom registrations are inherited, under
        # ``spawn`` only importable ones survive), and in-memory pass
        # objects cannot travel at all.
        try:
            envelopes = [batch_job_to_dict(job) for job in jobs]
        except SerializationError as error:
            raise ConfigError(
                f"{error} (so it cannot cross a process boundary either: "
                f"use executor='thread')"
            ) from None
        return [
            (result_from_dict(payload), elapsed, used)
            for (payload, elapsed), used in self._process_map(
                _compile_in_worker, envelopes, workers
            )
        ]

    def _process_map(
        self, function: Callable, items: list, workers: int
    ) -> list[tuple]:
        """``(value, counters)`` per item, in order, from worker processes
        seeded by :func:`_seed_worker`.

        ``function`` returns ``(value, delta_payload, counters)``; each
        delta merges into the shared store as its outcome arrives.  Even
        one item goes through the pool: the point of the mode is the
        serialized path, and running inline would hide wire-format
        regressions.
        """
        if not items:
            return []
        from repro.ir.serialize import (
            cache_delta_from_dict,
            cache_delta_to_dict,
        )

        snapshot = cache_delta_to_dict(self.cache.snapshot_delta())
        outcomes = []
        with ProcessPoolExecutor(
            max_workers=min(workers, len(items)),
            initializer=_seed_worker,
            initargs=(self._config_payload(), snapshot),
        ) as pool:
            for value, delta, used in pool.map(function, items):
                self.cache.merge_delta(cache_delta_from_dict(delta))
                outcomes.append((value, used))
        return outcomes

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

        def dry_run(job: BatchJob) -> dict:
            recorded: dict[tuple, tuple] = {}
            # Result discarded: only the recorded worklist and the
            # model-latency cache entries matter.  IR verification (if
            # configured) runs on the real compilation, not twice.
            self._in_session(
                self._job_target(job),
                lambda unit: self._compile_job(job, unit, verify_ir=False),
                unit=functools.partial(_PlanningUnit, recorded),
            )
            return recorded

        worklist: dict[tuple, tuple] = {}
        demand = 0
        per_job = _thread_map(dry_run, jobs, self._worker_count(len(jobs)))
        for index, recorded in enumerate(per_job):
            demand += len(recorded)
            for key, (node, positional) in recorded.items():
                worklist.setdefault(key, (node, positional, index))
        return worklist, demand

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
        problems = [
            (node, positional, self._job_target(jobs[index]))
            for node, positional, index in worklist.values()
        ]
        if self.executor == "process":
            from repro.ir.serialize import node_to_dict

            payloads = [
                {
                    "node": node_to_dict(node),
                    "positional": positional,
                    "device": target_payload(target),
                }
                for node, positional, target in problems
            ]
            per_problem = [
                used
                for _, used in self._process_map(
                    _synthesize_in_worker, payloads, workers
                )
            ]
        else:
            per_problem = [
                used
                for _, _, used in _thread_map(
                    self._synthesize, problems, workers
                )
            ]
        # A problem already cached solves nothing; grape-backed syntheses
        # also burn one model eval for the search estimate.
        solved = "grape_calls" if self.backend == "grape" else "model_evals"
        synthesized = 0
        for used in per_problem:
            synthesized += used[solved]
            _add_counters(counters, used)
        return {
            "signatures": len(worklist),
            "demand": demand,
            "dedup_ratio": demand / len(worklist) if worklist else 1.0,
            "synthesized": synthesized,
            "plan_seconds": plan_seconds,
            "synthesis_seconds": time.perf_counter() - synthesis_started,
        }

    def _synthesize(self, problem: tuple) -> tuple:
        """Price one pre-warm problem ``(node, positional, target)``
        through the engine's backend; :meth:`_in_session`'s triple."""
        node, positional, target = problem
        return self._in_session(
            target, lambda unit: unit.latency(node, positional)
        )

    def _config_payload(self) -> dict:
        """Engine settings as one :mod:`repro.ir` wire payload: the
        :class:`BatchCompiler` keywords a worker's twin engine is built
        from (see :func:`_seed_worker`)."""
        from repro.ir.serialize import compiler_config_to_dict

        settings = self._unit_settings()
        settings["compiler"] = compiler_config_to_dict(settings["compiler"])
        settings["device"] = target_payload(self.device)
        settings["verify_ir"] = self.verify_ir
        return settings

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
        directory caches flush dirty shards under their locks, remote
        caches upload the pending delta.
        """
        return self.cache.save()


def _add_counters(total: dict, used: dict) -> None:
    """Fold one unit of work's :data:`COUNTER_KEYS` into ``total``."""
    for key in COUNTER_KEYS:
        total[key] += used[key]


def _thread_map(function: Callable, items: list, workers: int) -> list:
    """``function`` over ``items`` on up to ``workers`` threads, in order.

    Runs inline when one worker suffices.  When an item raises, the error
    surfaces once the items before it have finished, and ``Executor.map``
    cancels every item not yet started.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [function(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(function, items))


#: This worker process's twin engine: rebuilt once, at pool start, from
#: the parent's settings payload, over a worker-local store that warms
#: up across the worker's stream of items.  One store per worker is safe
#: for mixed targets because every cache key carries its configuration
#: fingerprint.
_TWIN: BatchCompiler | None = None


def _target_from_payload(payload: dict) -> Device | DeviceConfig:
    """The target a :func:`target_payload` encodes."""
    from repro.ir.serialize import device_config_from_dict, device_from_dict

    if payload["kind"] == "device":
        return device_from_dict(payload)
    return device_config_from_dict(payload)


def _seed_worker(config: dict, snapshot_payload: dict) -> None:
    """Pool initializer: build this worker's twin engine and warm its store.

    Runs once per worker process.  ``config`` is the parent's
    :meth:`BatchCompiler._config_payload`; the snapshot is the parent's
    shared store serialized as one cache delta, so a warm (disk-loaded)
    cache reaches process workers instead of every worker starting cold.
    """
    from repro.ir.serialize import cache_delta_from_dict, compiler_config_from_dict

    global _TWIN
    settings = dict(config)
    _TWIN = BatchCompiler(
        device=_target_from_payload(settings.pop("device")),
        compiler_config=compiler_config_from_dict(settings.pop("compiler")),
        **settings,
    )
    _TWIN.cache.merge_delta(cache_delta_from_dict(snapshot_payload))


def _compile_in_worker(envelope: dict) -> tuple:
    """Worker-process entry: compile one job envelope on the twin engine.

    Returns ``((result_payload, seconds), delta_payload, counters)`` —
    wire payloads again, so nothing process-local leaks back.
    """
    from repro.ir.serialize import (
        batch_job_from_dict,
        cache_delta_to_dict,
        result_to_dict,
    )

    started = time.perf_counter()
    job = batch_job_from_dict(envelope)
    result, delta, used = _TWIN._in_session(
        _TWIN._job_target(job), lambda unit: _TWIN._compile_job(job, unit)
    )
    payload = result_to_dict(result)
    return (
        (payload, time.perf_counter() - started),
        cache_delta_to_dict(delta),
        used,
    )


def _synthesize_in_worker(problem: dict) -> tuple:
    """Worker-process entry: solve one serialized pre-warm problem on the
    twin engine; returns ``(None, delta_payload, counters)`` so the parent
    merges the synthesized entries *before* the job pool (whose seed
    snapshot must include them) starts."""
    from repro.ir.serialize import cache_delta_to_dict, node_from_dict

    _, delta, used = _TWIN._synthesize(
        (
            node_from_dict(problem["node"]),
            problem["positional"],
            _target_from_payload(problem["device"]),
        )
    )
    return None, cache_delta_to_dict(delta), used


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
