"""Batch compilation: many (circuit, strategy) jobs over one shared cache.

The single-shot :func:`~repro.compiler.pipeline.compile_circuit` API
compiles one circuit under one strategy.  Every real workload — the
Figure 9 strategy sweep, the Figure 10 width sweep, a VQE driver
recompiling parameterized ansatz variants — compiles *many* circuits, and
most of the optimal-control work repeats across them: the same CNOT,
SWAP and diagonal-block structures appear in every job.

A job is one :class:`BatchJob` — circuit, strategy, width limit, label
and machine — and each setting has one spelling: the machine is a
``device=`` (a :class:`~repro.device.device.Device`, so a bare coupling
graph is ``Device(topology=...)``, or a preset key), the pipeline is a
strategy (a custom one is added with
:func:`~repro.compiler.strategies.register_strategy`), and every job
compiles through :func:`~repro.compiler.pipeline.compile_circuit`.

:class:`BatchCompiler` exploits that.  It owns one shared
:class:`~repro.control.cache.PulseCache` (optionally a disk-persistent
one).  Every unit of work — a job, a pre-warm planner dry-run, a
pre-warm synthesis — takes one path: a fresh optimal-control unit built
from the engine's one set of settings over the shared store, then the
work.  Units write straight through, so concurrent jobs see each
other's entries at once, and their misses are single-flighted
(:meth:`~repro.control.cache.PulseCache.single_flight`,
:meth:`~repro.control.cache.PulseCache.exclusive`): the threads sharing
the store compute each latency and synthesize each pulse once, so the
thread executor's work counters depend on the batch alone, not on the
worker count.

Both executors fan units out with ``Executor.map``: outcomes come back
in input order, and a failed unit surfaces once the units before it
finish, after which units not yet started never run.

* ``executor="thread"`` (default) — worker threads over the shared
  in-memory store, inline when one worker suffices.  Cheap to start,
  full cache sharing, but the pure-Python pass pipeline serializes on
  the GIL.
* ``executor="process"`` — worker *processes*, each seeded at pool
  start with a snapshot of the shared store and a twin engine rebuilt
  from this engine's settings.  Over a ``tcp://`` store the twins mount
  the cache server itself instead of a snapshot: the parent's client
  holds only the entries it has seen, not the server's.  Jobs ship as
  :mod:`repro.ir` envelopes (pre-warm problems as serialized nodes;
  nothing process-local crosses the boundary), run through the twin's
  same unit path, and return serialized results plus the
  :class:`~repro.control.cache.CacheDelta` of entries their unit
  computed, which the parent merges into the shared store (over a
  cache server, into the client's local copy only: each worker uploads
  its own entries after every job).  This sidesteps the GIL — the
  speedup on many-core machines is what ``benchmarks/bench_batch.py``
  records — at the cost of per-job serialization and no *cross-worker*
  cache sharing during one batch beyond what workers have uploaded to
  a cache server (the merged store carries everything forward to the
  next batch).  So a GRAPE-backed process batch first runs the
  pre-warm planner (:meth:`BatchCompiler.plan_prewarm`): it dry-runs
  the jobs against the analytic model, synthesizes each distinct
  control problem once across the worker pool, and only then seeds the
  job pool, whose workers find every planned pulse in their snapshot
  (or on the server).
  Strategies ship by registered key, so jobs with an unregistered
  strategy, like engines with ``pass_callbacks``, cannot cross a process
  boundary and are rejected with a :class:`~repro.errors.ConfigError`.

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
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from repro.circuit.circuit import Circuit
from repro.compiler.manager import PassCallback
from repro.compiler.pipeline import compile_circuit
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
    PulseCache,
    RemotePulseCache,
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


@dataclasses.dataclass(frozen=True)
class BatchJob:
    """One unit of batch work: a circuit compiled under one strategy.

    ``strategy`` also accepts the key of a registered strategy (built-in
    or added via :func:`~repro.compiler.strategies.register_strategy`,
    the one way to give a job a custom pipeline).  ``width_limit``
    overrides ``CompilerConfig.max_instruction_width``.  ``device`` pins
    this job to its own compilation target — a
    :class:`~repro.device.device.Device` (``Device(topology=...)`` for a
    bare coupling graph) or a preset key like ``"heavy-hex-2"`` —
    overriding the engine's default; one batch can therefore sweep the
    same circuit across machines (the pulse-cache fingerprint keeps
    per-device entries apart).

    Every field is validated on construction, so a malformed job — one
    deserialized from a service submission included — fails with a
    :class:`~repro.errors.ConfigError` before it is keyed or queued.
    """

    circuit: Circuit
    strategy: Strategy | str = ISA
    width_limit: int | None = None
    label: str | None = None
    device: Device | str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.circuit, Circuit):
            raise ConfigError(
                f"job circuit must be a Circuit, got {self.circuit!r}"
            )
        if isinstance(self.strategy, str):
            object.__setattr__(
                self, "strategy", strategy_by_key(self.strategy)
            )
        elif not isinstance(self.strategy, Strategy):
            raise ConfigError(
                f"job strategy must be a Strategy or a registered key, "
                f"got {self.strategy!r}"
            )
        width = self.width_limit
        if width is not None and (
            isinstance(width, bool) or not isinstance(width, int) or width < 1
        ):
            raise ConfigError(
                f"job width_limit must be None or an int of at least 1, "
                f"got {width!r}"
            )
        if self.label is not None and not isinstance(self.label, str):
            raise ConfigError(
                f"job label must be None or a str, got {self.label!r}"
            )
        if isinstance(self.device, str):
            object.__setattr__(self, "device", device_by_key(self.device))

    @property
    def key(self) -> str:
        """Display label (circuit/strategy unless overridden)."""
        if self.label is not None:
            return self.label
        return f"{self.circuit.name}/{self.strategy.key}"


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
    """OCU counters summed across all jobs (and the pre-warm planner's
    dry-runs and syntheses), plus final store entry counts.  Under the
    process executor the work counters are summed over per-worker
    stores that see each other's entries during the batch only through
    a cache server, after each job, so ``model_evals`` grows with the
    worker count; ``latency_entries`` and the results do not."""
    executor: str = "thread"
    """Which worker pool ran the batch (``"thread"`` or ``"process"``)."""
    prewarm: dict | None = None
    """Pre-warm planner statistics when the planner ran (a GRAPE-backed
    process batch), else None: ``signatures`` (distinct GRAPE-eligible
    control problems across the batch), ``demand`` (the same problems
    counted once per job that needs them), ``dedup_ratio`` (``demand /
    signatures`` — how much duplicate optimal-control work the planner
    eliminated), ``synthesized`` (problems actually solved; the rest
    were already cached), ``plan_seconds`` and ``synthesis_seconds``."""
    result_cache: dict | None = None
    """Result-cache statistics when the engine has one attached, else
    None: ``hits`` (jobs served whole from the store, zero passes run),
    ``deduped`` (in-batch repeats fanned out from one compilation),
    ``stores`` (fresh results written back), ``uncacheable`` (jobs whose
    envelope cannot serialize — unregistered strategies — always
    compiled), ``compiled`` (jobs that actually ran the pipeline)."""
    pass_seconds: dict[str, float] = dataclasses.field(default_factory=dict)
    """Wall-clock per compiler pass, summed over the jobs this batch
    compiled.  Jobs served from the result cache and in-batch duplicates
    add nothing (their results carry the one compile's
    ``pass_seconds``), and neither do the process executor's pre-warm
    dry-runs, whose results are discarded."""

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def total_latency_ns(self) -> float:
        """Sum of all result makespans (batch-level throughput metric)."""
        return sum(result.latency_ns for result in self.results)


def format_pass_table(pass_seconds: dict[str, float]) -> str:
    """Per-pass wall-clock as a printable table, most expensive first."""
    if not pass_seconds:
        return "pass profile: no compilations ran"
    accounted = sum(pass_seconds.values())
    width = max(len(name) for name in pass_seconds)
    lines = [f"{'pass':<{width}}  seconds  share"]
    for name, value in sorted(
        pass_seconds.items(), key=lambda item: item[1], reverse=True
    ):
        share = value / accounted if accounted else 0.0
        lines.append(f"{name:<{width}}  {value:7.3f}  {share:5.1%}")
    lines.append(f"{'total':<{width}}  {accounted:7.3f}")
    return "\n".join(lines)


class BatchCompiler:
    """Compiles batches of jobs against one shared pulse/latency cache.

    Args:
        device: The default compilation target, shared by every job that
            does not pin its own ``BatchJob.device``: a full
            :class:`~repro.device.device.Device`, a preset key, or a
            bare :class:`DeviceConfig` (paper physics, auto-sized grid).
        compiler_config: Width limits, detection depth, etc.
        cache: Shared store: any :class:`~repro.control.cache.PulseCache`
            backend, or a setting
            :func:`~repro.control.cache.resolve_cache` builds one from
            (``"tcp://host:port"`` mounts a cache server, any other
            string or :class:`os.PathLike` is a cache directory, and
            ``None`` a fresh in-memory store).
        backend: OCU backend, ``"model"`` or ``"grape"``.
        max_workers: Worker-thread count; ``None`` picks
            ``min(cpu_count, job count)``.
        grape_qubit_limit: Forwarded to every OCU, and part of the cache
            fingerprint (as is the GRAPE time step,
            ``compiler_config.grape_dt_ns``).
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
        pass_callbacks: Sequence[PassCallback] = (),
        executor: str = "thread",
        verify_ir: bool = False,
        result_cache: ResultCache | str | os.PathLike | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigError("max_workers must be at least 1")
        if executor not in _EXECUTORS:
            raise ConfigError(
                f"executor must be one of {_EXECUTORS}, got {executor!r}"
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
        self.cache = (
            cache if isinstance(cache, PulseCache) else resolve_cache(cache)
        )
        self.backend = backend
        self.max_workers = max_workers
        self.grape_qubit_limit = grape_qubit_limit
        self.pass_callbacks = list(pass_callbacks)
        self.executor = executor
        self.verify_ir = bool(verify_ir)
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
        #: (the per-batch view is ``BatchReport.cache_info``), plus
        #: ``prewarm_synthesized``, the pulses the planner synthesized
        #: for process batches.  Drivers running several sweeps over one
        #: engine read their optimal-control bill here.
        self.lifetime_info: dict[str, float] = dict.fromkeys(
            COUNTER_KEYS + ("prewarm_synthesized",), 0
        )
        #: Wall-clock per compiler pass summed over every compilation
        #: this engine ran, batch jobs and :meth:`run_job` misses alike
        #: (the per-batch view is ``BatchReport.pass_seconds``).
        self.lifetime_pass_seconds: dict[str, float] = {}
        # Service workers call run_job concurrently.
        self._lifetime_lock = threading.Lock()

    # ------------------------------------------------------------------

    def _unit_settings(self) -> dict:
        """The optimal-control unit keywords every unit this engine
        builds shares: everything but the target and the cache."""
        return {
            "compiler": self.compiler_config,
            "backend": self.backend,
            "grape_qubit_limit": self.grape_qubit_limit,
        }

    def make_ocu(
        self,
        cache: PulseCache | None = None,
        device: Device | DeviceConfig | None = None,
    ) -> OptimalControlUnit:
        """A fresh OCU writing straight through to the shared store.

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
        device: Device | str | None = None,
    ) -> CompilationResult:
        """Compile one circuit now: :meth:`run_job`'s result for it."""
        job = BatchJob(
            circuit=circuit,
            strategy=strategy,
            width_limit=width_limit,
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
        serialize (unregistered strategies, custom topology subclasses)
        — such jobs never cache.
        """
        from repro.ir.serialize import batch_job_to_dict

        try:
            return result_key(batch_job_to_dict(job), self._result_engine(job))
        except SerializationError:
            return None

    def compile_batch(self, jobs: Iterable[BatchJob]) -> BatchReport:
        """Compile every :class:`BatchJob`, fanning across workers;
        results in job order."""
        jobs = list(jobs)
        for job in jobs:
            if not isinstance(job, BatchJob):
                raise ConfigError(f"a batch job must be a BatchJob, got {job!r}")
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
        if to_compile and self.executor == "process" and self.backend == "grape":
            # Worker stores cannot see each other's pulses, so the
            # batch's distinct problems are solved before any job ships;
            # threads share one store and single-flight every miss.
            prewarm_stats = self._prewarm_batch(to_compile, workers, counters)
        outcomes = self._map_jobs(to_compile, workers)
        pass_seconds: dict[str, float] = {}
        for (index, _), (result, elapsed, used) in zip(pending, outcomes):
            results[index], seconds[index] = result, elapsed
            _add_counters(counters, used)
            _add_seconds(pass_seconds, result.pass_seconds)
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
        self._bill(
            counters,
            pass_seconds,
            prewarm_stats["synthesized"] if prewarm_stats is not None else 0,
        )
        return BatchReport(
            results=results,
            seconds=seconds,
            wall_seconds=time.perf_counter() - started,
            workers=workers,
            cache_info=self._store_info(counters),
            executor=self.executor,
            prewarm=prewarm_stats,
            result_cache=result_stats,
            pass_seconds=pass_seconds,
        )

    def _bill(
        self, counters: dict, pass_seconds: dict, synthesized: int = 0
    ) -> None:
        """Fold compiled work into :attr:`lifetime_info` and
        :attr:`lifetime_pass_seconds`."""
        with self._lifetime_lock:
            _add_counters(self.lifetime_info, counters)
            self.lifetime_info["prewarm_synthesized"] += synthesized
            _add_seconds(self.lifetime_pass_seconds, pass_seconds)

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
        """The job's pinned device, else the engine's default."""
        return job.device if job.device is not None else self.device

    def _compile_job(
        self,
        job: BatchJob,
        ocu: OptimalControlUnit,
        verify_ir: bool | None = None,
        extra_callbacks: Sequence[PassCallback] = (),
    ) -> CompilationResult:
        """Compile one job through :func:`compile_circuit`.

        ``extra_callbacks`` are per-job hooks appended after the
        engine-level ``pass_callbacks`` for this compilation only:
        :meth:`_run_job`'s cancellation probe rides here without
        touching engine state.
        """
        return compile_circuit(
            job.circuit,
            job.strategy,
            device=self._job_target(job),
            compiler_config=self.compiler_config,
            ocu=ocu,
            width_limit=job.width_limit,
            callbacks=list(self.pass_callbacks) + list(extra_callbacks),
            verify_ir=self.verify_ir if verify_ir is None else verify_ir,
        )

    def _with_unit(
        self,
        target: Device | DeviceConfig,
        work: Callable[[OptimalControlUnit], object],
        unit: Callable[..., OptimalControlUnit] = OptimalControlUnit,
    ) -> tuple[object, CacheDelta, dict]:
        """Run ``work(unit)`` on a fresh unit over the shared store.

        The one path every unit of work takes — jobs and planner
        dry-runs here, jobs and pre-warm syntheses on a process worker's
        twin engine.  ``unit`` (the OCU class, or a factory taking its
        keywords) is built for ``target`` from :meth:`_unit_settings`
        over :attr:`cache`.  The unit writes straight through, so
        concurrent units see each other's entries at once, and work that
        raises has already stored what it finished.

        Returns:
            ``(value, written, counters)`` — what ``work`` returned, the
            entries the unit computed (:attr:`OptimalControlUnit.written`;
            process workers ship them to the parent), and the unit's
            :data:`COUNTER_KEYS`.
        """
        ocu = unit(device=target, cache=self.cache, **self._unit_settings())
        value = work(ocu)
        used = {key: getattr(ocu, key) for key in COUNTER_KEYS}
        return value, ocu.written, used

    def _run_job(
        self,
        job: BatchJob,
        cancel: Callable[[], str | None] | None = None,
    ) -> tuple[CompilationResult, float, dict[str, int]]:
        """Compile one job on its own unit; ``(result, seconds, counters)``.

        ``cancel`` is an optional cooperative probe polled at every pass
        boundary; returning a non-empty string aborts the job with a
        :class:`~repro.errors.JobCancelledError` carrying that reason
        (the entries it computed are already in the store).
        """
        callbacks = []
        if cancel is not None:

            def _abort_if_cancelled(pass_, context, elapsed) -> None:
                reason = cancel()
                if reason:
                    raise JobCancelledError(
                        f"job {job.key!r} cancelled: {reason}"
                    )

            callbacks.append(_abort_if_cancelled)
        job_started = time.perf_counter()
        result, _, used = self._with_unit(
            self._job_target(job),
            lambda unit: self._compile_job(job, unit, extra_callbacks=callbacks),
        )
        return result, time.perf_counter() - job_started, used

    def run_job(
        self,
        job: BatchJob,
        cancel: Callable[[], str | None] | None = None,
    ) -> tuple[CompilationResult, float, dict[str, int]]:
        """Compile one job now, on the calling thread; the service entry.

        Like :meth:`compile_batch` it folds a compiled job's counters and
        pass time into :attr:`lifetime_info` and
        :attr:`lifetime_pass_seconds`, so a long-running front door (the
        compile service) reads its cumulative bill the same way sweep
        drivers do; a result-cache hit adds nothing.

        Returns:
            ``(result, seconds, counters)`` — the compiled result, its
            wall-clock, and the per-job OCU counter dict.  A result-cache
            hit returns the lookup wall-clock and all-zero counters (no
            pass ran, no model was evaluated).
        """
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
        result, seconds, used = self._run_job(job, cancel=cancel)
        if cache_key is not None:
            self.result_cache.put(cache_key, result)
        self._bill(used, result.pass_seconds)
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
        # ``spawn`` only importable ones survive).
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
        regressions.  Over a cache server the workers mount the server
        itself: the client's snapshot holds only the entries it has
        seen, so it publishes them and seeds nothing, and each worker
        uploads its own entries after every item, so the merged deltas
        fill only the client's local copy.
        """
        if not items:
            return []
        from repro.ir.serialize import (
            cache_delta_from_dict,
            cache_delta_to_dict,
        )

        config = self._config_payload()
        if isinstance(self.cache, RemotePulseCache):
            self.cache.flush()
            config["cache"] = self.cache.url
            snapshot = CacheDelta()
        else:
            snapshot = self.cache.snapshot_delta()
        outcomes = []
        with ProcessPoolExecutor(
            max_workers=min(workers, len(items)),
            initializer=_seed_worker,
            initargs=(config, cache_delta_to_dict(snapshot)),
        ) as pool:
            for value, delta, used in pool.map(function, items):
                self.cache.merge_delta(cache_delta_from_dict(delta))
                outcomes.append((value, used))
        return outcomes

    # -- pre-warm planner ----------------------------------------------

    def plan_prewarm(self, jobs: Sequence[BatchJob]) -> tuple[dict, int, dict]:
        """Extract the batch's distinct GRAPE worklist without GRAPE.

        Every job is dry-run against the analytic model through a
        :class:`_PlanningUnit` that records each GRAPE-eligible latency
        query under the unit's cache-signature convention
        (:meth:`~repro.control.unit.OptimalControlUnit._node_signature`).
        The dry-runs also warm every ``"model"``-keyed latency entry in
        the shared store, so the real jobs' aggregation searches answer
        their candidate probes from cache.

        Returns:
            ``(worklist, demand, counters)`` — ``worklist`` maps
            ``(fingerprint, signature)`` to ``(node, positional,
            job_index)`` for every distinct control problem in the
            batch; ``demand`` counts the same problems once per job
            that needs them, so ``demand / len(worklist)`` is the
            batch's dedup ratio; ``counters`` sums the dry-runs'
            :data:`COUNTER_KEYS`, the model evaluations they made.
        """

        def dry_run(job: BatchJob) -> tuple[dict, dict]:
            recorded: dict[tuple, tuple] = {}
            # Result discarded: only the recorded worklist, the
            # model-latency cache entries and the bill matter.  IR
            # verification (if configured) runs on the real compilation,
            # not twice.
            _, _, used = self._with_unit(
                self._job_target(job),
                lambda unit: self._compile_job(job, unit, verify_ir=False),
                unit=functools.partial(_PlanningUnit, recorded),
            )
            return recorded, used

        worklist: dict[tuple, tuple] = {}
        demand = 0
        counters = dict.fromkeys(COUNTER_KEYS, 0)
        per_job = _thread_map(dry_run, jobs, self._worker_count(len(jobs)))
        for index, (recorded, used) in enumerate(per_job):
            demand += len(recorded)
            _add_counters(counters, used)
            for key, (node, positional) in recorded.items():
                worklist.setdefault(key, (node, positional, index))
        return worklist, demand, counters

    def _prewarm_batch(self, jobs, workers, counters) -> dict:
        """The process executor's GRAPE stage: run the planner, then
        synthesize each distinct problem exactly once.

        Worker processes compile against their own seeded stores, which
        cannot see each other's pulses, so two workers whose jobs share
        a control problem would both solve it.  Here the worklist fans
        across a process pool of its own, and every solution is in the
        shared store — and so in the job pool's seed snapshot — before
        any job ships.  The dry-runs' and the syntheses' counters are
        added to ``counters``.
        """
        from repro.ir.serialize import node_to_dict

        plan_started = time.perf_counter()
        worklist, demand, planned = self.plan_prewarm(jobs)
        plan_seconds = time.perf_counter() - plan_started
        _add_counters(counters, planned)
        synthesis_started = time.perf_counter()
        payloads = [
            {
                "node": node_to_dict(node),
                "positional": positional,
                "device": target_payload(self._job_target(jobs[index])),
            }
            for node, positional, index in worklist.values()
        ]
        synthesized = 0
        for _, used in self._process_map(
            _synthesize_in_worker, payloads, workers
        ):
            # A problem a worker's seed already held synthesizes nothing.
            synthesized += used["grape_calls"]
            _add_counters(counters, used)
        return {
            "signatures": len(worklist),
            "demand": demand,
            "dedup_ratio": demand / len(worklist) if worklist else 1.0,
            "synthesized": synthesized,
            "plan_seconds": plan_seconds,
            "synthesis_seconds": time.perf_counter() - synthesis_started,
        }

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


def _add_seconds(total: dict[str, float], seconds: dict[str, float]) -> None:
    """Fold per-pass wall-clock into ``total``."""
    for name, value in seconds.items():
        total[name] = total.get(name, 0.0) + value


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
#: up across the worker's stream of items (or over the parent's cache
#: server).  One store per worker is safe for mixed targets because
#: every cache key carries its configuration fingerprint.
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
    :meth:`BatchCompiler._config_payload`, plus the server URL when the
    parent's store is a cache server; the snapshot is the parent's
    shared store serialized as one cache delta (empty over a server), so
    a warm (disk-loaded) cache reaches process workers instead of every
    worker starting cold.
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
    wire payloads again, so nothing process-local leaks back.  Over a
    cache server the twin first uploads the job's entries itself.
    """
    from repro.ir.serialize import (
        batch_job_from_dict,
        cache_delta_to_dict,
        result_to_dict,
    )

    started = time.perf_counter()
    job = batch_job_from_dict(envelope)
    result, delta, used = _TWIN._with_unit(
        _TWIN._job_target(job), lambda unit: _TWIN._compile_job(job, unit)
    )
    _TWIN.save_cache()
    payload = result_to_dict(result)
    return (
        (payload, time.perf_counter() - started),
        cache_delta_to_dict(delta),
        used,
    )


def _synthesize_in_worker(problem: dict) -> tuple:
    """Worker-process entry: price one serialized pre-warm problem
    through the twin engine's backend; returns ``(None, delta_payload,
    counters)`` so the parent merges the synthesized entries *before*
    the job pool (whose seed snapshot must include them) starts.  Over
    a cache server the twin uploads them itself first."""
    from repro.ir.serialize import cache_delta_to_dict, node_from_dict

    node = node_from_dict(problem["node"])
    _, delta, used = _TWIN._with_unit(
        _target_from_payload(problem["device"]),
        lambda unit: unit.latency(node, problem["positional"]),
    )
    _TWIN.save_cache()
    return None, cache_delta_to_dict(delta), used


class _PlanningUnit(OptimalControlUnit):
    """Dry-run OCU the pre-warm planner compiles jobs through.

    Prices every query with the analytic model (cheap, deterministic)
    while recording each query a ``backend="grape"`` engine would answer
    with optimal control, keyed by the unit's cache-signature convention
    (:meth:`OptimalControlUnit._node_signature`).  The planner unions
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
