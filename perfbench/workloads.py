"""The three benchmark workloads.

Each workload builds its inputs from the run's seed (the program only
sees the generated circuits), sets up the system the way a user would,
repeats its unit of work until ``seconds`` of timed work have run, and
then — outside the timed window — checks every output.

* ``fig9-warm`` — the 20-job small-scale Figure 9 sweep (maxcut-line-6,
  ising-6, sqrt-9, uccsd-4 under all five strategies) on one worker
  thread over a warm in-memory :class:`PulseCache`, no result cache.
  Unit of work: one warm sweep.  Bound by the compiler passes.
* ``grape-cold`` — the 6-job GRAPE batch (3 copies of a 3-qubit chain,
  3 of a 2-qubit pair) on one worker thread, ``backend="grape"``, every
  repetition on a fresh engine mounting a fresh in-process
  :class:`CacheServer` over ``tcp://``.  Unit: one cold batch.  Bound by
  optimal-control synthesis.
* ``service-mixed`` — a closed loop of one client on one connection
  against a :class:`CompileService` deployed as ``python -m
  repro.service`` deploys it (sharded pulse-cache directory, disk result
  cache, journal, 2 workers), the client submitting 4-qubit ~30-gate
  random circuits and waiting for each result; about 30% of submissions
  repeat an earlier one.  Unit: one service episode of a fixed number of
  submissions on fresh directories (the journal's cost grows with its
  length, so episode length must not depend on speed).  Bound by the
  journal, the wire, serialization and the result store.

Within a run every repetition replays identical inputs, so work counts
can be compared across repetitions (:mod:`report`).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import random
import shutil
import statistics
import tempfile
import threading
import time

from hooks import (
    install_client,
    install_engine,
    install_result_cache,
    install_service,
    install_store,
)
from pace import Pace, at_reference, burst, scale
from spans import Patches

#: Worker threads of the batch workloads and the service, and client
#: threads driving the service.  The load comes from one thread: on a
#: host with two shared cores, a second busy thread measures the
#: scheduler and the neighbours more than the program.
FIG9_WORKERS = 1
GRAPE_WORKERS = 1
SERVICE_WORKERS = 2
SERVICE_CLIENTS = 1

#: Poll interval handed to ``ServiceClient.wait``: well below a repeat
#: submission's latency, so latencies are not rounded up to poll steps.
SERVICE_POLL_SECONDS = 0.005

#: New circuits in one service episode (two rounds of the 15 family and
#: strategy pairs), and how many earlier submissions the client repeats:
#: 30 + 13 submissions, 30% repeats.  Short episodes give a run several
#: of them.
SERVICE_NEW = 30
SERVICE_REPEATS = 13

@dataclasses.dataclass
class Run:
    """Everything one workload run measured, for :mod:`report`."""

    workload: str
    seed: int
    workers: int
    clients: int = 0
    setup_seconds: list = dataclasses.field(default_factory=list)
    #: One-off set-up outside the repeated part (input generation).
    setup_fixed_seconds: float = 0.0
    window_seconds: float = 0.0
    #: Per repetition (sweep, batch or episode), the parts its wall time
    #: splits into: a job's compile time, a GRAPE synthesis or a
    #: submission's latency, and what the repetition spent outside them;
    #: in seconds at the reference pace (:mod:`pace`), as are the
    #: latencies below.
    parts: list = dataclasses.field(default_factory=list)
    jobs: int = 0
    attempted: int = 0
    failed: int = 0
    #: Job latencies, one list per repetition: on ``service-mixed`` each
    #: submission's submit -> result.  ``fig9-warm`` keeps one list, each
    #: job's median compile time over the sweeps (one worker runs the
    #: jobs one after another); ``grape-cold`` one sample, the median
    #: batch's time (the pre-warm planner synthesizes for every job
    #: before any job runs, and the batch returns all at once).
    job_seconds: list = dataclasses.field(default_factory=list)
    #: The same for repeat jobs only (jobs whose envelope, label aside,
    #: the system has already received).
    hit_seconds: list = dataclasses.field(default_factory=list)
    #: Makespan of every distinct compiled program.
    latencies_ns: list = dataclasses.field(default_factory=list)
    #: ISA latency / cls+aggregation latency, per circuit.
    speedups: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)
    #: Per repetition: counts that must repeat exactly on equal input.
    repetitions: list = dataclasses.field(default_factory=list)
    #: Layer inputs read from the program's own counters.
    layer: dict = dataclasses.field(default_factory=dict)
    backend: str = ""


class Context:
    """What a workload needs from the runner."""

    def __init__(self, seed: int, seconds: float, scratch: str, tracer) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.tracer = tracer
        self.patches = None

    @property
    def tracing(self) -> bool:
        return self.patches is not None

    def callbacks(self) -> list:
        return [self.tracer.pass_done] if self.tracing else []

    def begin(self, phase: str, epoch: int | None = None) -> None:
        self.tracer.phase = phase
        if epoch is not None:
            self.tracer.epoch = epoch


def _probed(probe, function):
    """``function``, calling ``probe()`` before each call."""

    @functools.wraps(function)
    def probed(*args, **kwargs):
        probe()
        return function(*args, **kwargs)

    return probed


def _timed(function, into: list):
    """``function``, appending the seconds each call takes to ``into``."""

    @functools.wraps(function)
    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            into.append(time.perf_counter() - started)

    return timed


def _canonical_text(result) -> str:
    from repro.ir import canonical_result_dict

    return json.dumps(canonical_result_dict(result), sort_keys=True)


def _verify_distinct(run: Run, results) -> None:
    """Equivalence-check every distinct result; record their latencies
    and mean serialized size."""
    from repro.ir.serialize import result_to_dict
    from repro.verification.equivalence import verify_equivalence

    distinct: dict[str, object] = {}
    for result in results:
        distinct.setdefault(_canonical_text(result), result)
    for result in distinct.values():
        report = verify_equivalence(result)
        if not report.equivalent:
            run.problems.append(
                f"{result.circuit_name}/{result.strategy_key}: compiled "
                f"program is not equivalent to its source circuit"
            )
    run.latencies_ns = [result.latency_ns for result in distinct.values()]
    run.layer["result_bytes"] = sum(
        len(json.dumps(result_to_dict(result))) for result in distinct.values()
    ) / len(distinct)


# -- fig9-warm ---------------------------------------------------------------


def fig9_jobs(seed: int) -> list:
    """The 20-job sweep; the seed draws QAOA angles, Ising dt, UCCSD
    amplitudes (circuit structure fixed), near the paper's values."""
    from repro.benchmarks.grover import grover_sqrt_circuit
    from repro.benchmarks.ising import ising_model_circuit
    from repro.benchmarks.qaoa import line_graph, maxcut_qaoa_circuit
    from repro.benchmarks.uccsd import uccsd_ansatz_circuit
    from repro.compiler.batch import BatchJob
    from repro.compiler.strategies import all_strategies

    rng = random.Random(seed)
    circuits = [
        maxcut_qaoa_circuit(
            line_graph(6),
            gamma=rng.uniform(5.0, 6.3),
            beta=rng.uniform(1.0, 1.5),
            name="maxcut-line-6",
        ),
        ising_model_circuit(6, dt=rng.uniform(0.4, 0.6), name="ising-6"),
        grover_sqrt_circuit(2, name="sqrt-9"),
        uccsd_ansatz_circuit(4, seed=rng.randrange(2**31), name="uccsd-4"),
    ]
    return [
        BatchJob(circuit=circuit, strategy=strategy, label=f"{circuit.name}/{strategy.key}")
        for circuit in circuits
        for strategy in all_strategies()
    ]


def run_fig9_warm(ctx: Context) -> Run:
    from repro.compiler.batch import BatchCompiler
    from repro.control.cache import PulseCache

    run = Run("fig9-warm", ctx.seed, FIG9_WORKERS, backend="memory")
    # One set-up only: the cold fill plus a warm-up sweep cost about as
    # much as the timed window, and the run must stay short.
    ctx.begin("setup")
    started = time.perf_counter()
    jobs = fig9_jobs(ctx.seed)
    store = PulseCache()
    engine = BatchCompiler(
        cache=store, max_workers=FIG9_WORKERS, pass_callbacks=ctx.callbacks()
    )
    if ctx.tracing:
        install_engine(ctx.tracer, ctx.patches, engine)
        install_store(ctx.tracer, ctx.patches, store)
    built = at_reference(time.perf_counter() - started)
    pace = Pace()
    # ``_run_job`` runs each job of a batch; see hooks.install_engine.
    probes = Patches()
    probes.replace(engine, "_run_job", lambda f: _probed(pace.probe, f))
    reports = []
    try:
        cold, cold_parts = _sweep(engine, jobs, pace)
        # At least one warm sweep before timing: the first warm sweep
        # still fills process-wide memos.
        _, warm_parts = _sweep(engine, jobs, pace)
        run.setup_seconds.append(built + sum(cold_parts) + sum(warm_parts))
        run.repetitions.append({"ocu.model_evals": cold.cache_info["model_evals"]})
        expected = {job.label: _canonical_text(cold[i]) for i, job in enumerate(jobs)}
        store_before = store.stats()
        epoch = 0
        while run.window_seconds < ctx.seconds or not reports:
            epoch += 1
            ctx.begin("window", epoch)
            report, parts = _sweep(engine, jobs, pace)
            run.window_seconds += report.wall_seconds
            run.parts.append(parts)
            reports.append(report)
    finally:
        probes.undo()
    store_after = store.stats()
    run.jobs = run.attempted = sum(len(report) for report in reports)
    ctx.begin("check")

    # Each job's median over the sweeps: 2 of the 20 jobs take three
    # times as long as any other, so a quantile over every sweep's
    # samples together would sit between the extremes of a few samples.
    # The engine compiled every job of the sweep during set-up, so each
    # timed job is a repeat, answered by recompiling it warm.
    run.job_seconds = run.hit_seconds = [
        [statistics.median(times) for times in zip(*(p[:-1] for p in run.parts))]
    ]
    for report in reports:
        run.repetitions.append(
            {"aggregate.instructions_out": sum(len(r.schedule) for r in report)}
        )
        if report.cache_info["model_evals"]:
            run.problems.append("a warm sweep evaluated the latency model")
        for job, result in zip(jobs, report):
            if _canonical_text(result) != expected[job.label]:
                run.problems.append(f"{job.label}: warm result differs from cold")
    _verify_distinct(run, [result for report in reports for result in report])
    by_label = {job.label: result for job, result in zip(jobs, reports[0])}
    for circuit in dict.fromkeys(job.circuit.name for job in jobs):
        run.speedups.append(
            by_label[f"{circuit}/isa"].latency_ns
            / by_label[f"{circuit}/cls+aggregation"].latency_ns
        )
    run.layer.update(
        reports=reports,
        compiled_jobs=run.jobs,
        store_before=store_before,
        store_after=store_after,
    )
    return run


def _sweep(engine, jobs, pace: Pace) -> tuple:
    """One batch, and its jobs' times and the rest at the reference pace."""
    pace.take()
    report = engine.compile_batch(jobs)
    pace.probe()
    taken = pace.take()
    rest = report.wall_seconds - sum(report.seconds) - sum(taken[:-1])
    return report, scale(report.seconds, taken, rest)


# -- grape-cold --------------------------------------------------------------


def grape_jobs(seed: int) -> list:
    """3 chains + 3 pairs; the seed draws one rz angle per circuit kind,
    so every copy shares its control problems (12 distinct signatures)."""
    from repro.circuit.circuit import Circuit
    from repro.compiler.batch import BatchJob

    rng = random.Random(seed)
    chain_angle = rng.uniform(0.2, 0.4)
    pair_angle = rng.uniform(0.6, 0.8)
    jobs = []
    for index in range(3):
        chain = Circuit(3, name="chain")
        chain.h(0)
        chain.cnot(0, 1)
        chain.cnot(1, 2)
        chain.rz(chain_angle, 2)
        chain.cnot(0, 1)
        jobs.append(BatchJob(circuit=chain, strategy="aggregation", label=f"chain{index}"))
        pair = Circuit(2, name="pair")
        pair.h(0)
        pair.cnot(0, 1)
        pair.rz(pair_angle, 1)
        pair.cnot(0, 1)
        jobs.append(BatchJob(circuit=pair, strategy="aggregation", label=f"pair{index}"))
    return jobs


def run_grape_cold(ctx: Context) -> Run:
    from repro.compiler.batch import BatchCompiler
    from repro.control.cache import CacheServer, PulseCache
    from repro.control.unit import OptimalControlUnit

    run = Run("grape-cold", ctx.seed, GRAPE_WORKERS, backend="remote")
    reports, stores = [], []
    expected: dict = {}
    # A batch's time splits into its GRAPE syntheses, which one worker
    # runs in the planner's fixed order, and the rest of the batch.
    syntheses: list = []
    pace = Pace()
    timer = Patches()
    timer.replace(
        OptimalControlUnit,
        "synthesize_pulse",
        lambda f: _probed(pace.probe, _timed(f, syntheses)),
    )
    epoch = 0
    try:
        while run.window_seconds < ctx.seconds or not reports:
            epoch += 1
            ctx.begin("setup", epoch)
            started = time.perf_counter()
            jobs = grape_jobs(ctx.seed)
            server = CacheServer(PulseCache()).start()
            try:
                engine = BatchCompiler(
                    backend="grape",
                    cache=f"tcp://{server.url}",
                    max_workers=GRAPE_WORKERS,
                    pass_callbacks=ctx.callbacks(),
                )
                store = engine.cache
                if ctx.tracing:
                    install_engine(ctx.tracer, ctx.patches, engine)
                    install_store(ctx.tracer, ctx.patches, store)
                run.setup_seconds.append(at_reference(time.perf_counter() - started))
                ctx.begin("window")
                syntheses.clear()
                pace.take()
                report = engine.compile_batch(jobs)
                pace.probe()
                run.window_seconds += report.wall_seconds
                taken = pace.take()
                rest = report.wall_seconds - sum(syntheses) - sum(taken[:-1])
                run.parts.append(scale(syntheses, taken, rest))
                reports.append(report)
                stores.append(store.stats())
                if not expected:
                    expected = {
                        job.label: _canonical_text(result)
                        for job, result in zip(jobs, report)
                    }
                    ctx.begin("check")
                    isa = {
                        job.circuit.name: engine.compile(job.circuit, "isa").latency_ns
                        for job in jobs
                    }
                store.close()
            finally:
                server.stop()
    finally:
        timer.undo()
    run.jobs = run.attempted = sum(len(report) for report in reports)

    ctx.begin("check")
    # Every job's latency, copies 1 and 2 of each circuit (repeats of
    # copy 0) included, is the median batch's.
    run.job_seconds = run.hit_seconds = [
        [statistics.median(sum(parts) for parts in run.parts)]
    ]
    for report, store_stats in zip(reports, stores):
        run.repetitions.append(
            {
                "aggregate.instructions_out": sum(len(r.schedule) for r in report),
                "ocu.model_evals": report.cache_info["model_evals"],
                "grape.evals": report.cache_info["grape_evals"],
                "wire.requests": store_stats["remote_requests"],
            }
        )
        for job, result in zip(jobs, report):
            if _canonical_text(result) != expected[job.label]:
                run.problems.append(f"{job.label}: result differs between batches")
    _verify_distinct(run, [result for report in reports for result in report])
    by_circuit = {job.circuit.name: result for job, result in zip(jobs, reports[0])}
    run.speedups = [isa[name] / by_circuit[name].latency_ns for name in isa]
    run.layer.update(reports=reports, compiled_jobs=run.jobs, stores=stores)
    return run


# -- service-mixed -----------------------------------------------------------


@dataclasses.dataclass
class _Submission:
    job: object
    reference: str  # label of the new submission this one equals
    repeat: bool


def service_inputs(seed: int, run: Run) -> tuple[list, dict, list]:
    """Per-client submission sequences plus reference results.

    The new circuits run through every (family, strategy) pair in a
    shuffled order, round after round, and are dealt to the clients in
    turn; each client also repeats some of its own earlier submissions.
    The order and a pair's circuit shape (gates and qubits) in a given
    round are the same for every seed: with only a few dozen circuits
    per episode, shapes drawn per seed made the work of an episode swing
    by a quarter from seed to seed, and an order drawn per seed moved
    the latency quantiles by a fifth (the journal makes a job's latency
    grow with its place in the episode).  The seed draws every rotation
    angle.  Every new circuit is compiled in-process here, which
    screens out inputs the compiler cannot handle and records the
    reference each service artifact is checked against; the time this
    takes, at the reference pace, goes to ``run.setup_fixed_seconds``.
    Returns ``(sequences, references, speedups)``.
    """
    from repro.circuit.circuit import Circuit
    from repro.compiler.batch import BatchCompiler, BatchJob
    from repro.compiler.strategies import all_strategies
    from repro.errors import ReproError
    from repro.gates.library import gate_from_name
    from repro.testing.generators import CIRCUIT_FAMILIES, random_circuit

    rng = random.Random(seed)
    reference = BatchCompiler(max_workers=1)
    pace = Pace()
    compile_seconds: list = []
    cells = [
        (family, strategy.key)
        for family in CIRCUIT_FAMILIES
        for strategy in all_strategies()
    ]
    shuffle = random.Random("service-mixed order")
    order: list = []
    while len(order) < SERVICE_NEW:
        shuffle.shuffle(cells)
        order.extend(cells)
    references: dict = {}
    speedups: list = []
    fresh: list = [[] for _ in range(SERVICE_CLIENTS)]
    for index, (family, strategy) in enumerate(order[:SERVICE_NEW]):
        label = f"n{index}"
        shapes = random.Random(f"{family}/{strategy}/{index // len(cells)}")
        while True:
            pace.probe()
            started = time.perf_counter()
            shape = random_circuit(4, 30, shapes.randrange(2**31), family)
            circuit = Circuit.from_gates(
                shape.num_qubits,
                (
                    gate_from_name(
                        gate.name,
                        gate.qubits,
                        [rng.uniform(0.1, 2 * math.pi - 0.1) for _ in gate.params],
                    )
                    for gate in shape
                ),
                name=shape.name,
            )
            try:
                result = reference.compile(circuit, strategy)
                isa = reference.compile(circuit, "isa")
                best = reference.compile(circuit, "cls+aggregation")
            except ReproError as error:
                run.layer.setdefault("redrawn", []).append(
                    f"{circuit.name}: {type(error).__name__}"
                )
                continue
            finally:
                compile_seconds.append(time.perf_counter() - started)
            break
        references[label] = _canonical_text(result)
        speedups.append(isa.latency_ns / best.latency_ns)
        job = BatchJob(circuit=circuit, strategy=strategy, label=label)
        fresh[index % SERVICE_CLIENTS].append(_Submission(job, label, False))
    sequences = []
    for client, originals in enumerate(fresh):
        # Repeats are spread evenly through the sequence, so every seed
        # asks for them at the same journal lengths; each re-sends the
        # submission just answered, which samples the shuffled order at
        # fixed steps and so repeats a near-even mix of strategies.
        sequence: list = []
        for index, item in enumerate(originals):
            sequence.append(item)
            due = (index + 1) * SERVICE_REPEATS // len(originals)
            while sum(entry.repeat for entry in sequence) < due:
                label = f"c{client}-r{sum(entry.repeat for entry in sequence)}"
                sequence.append(
                    _Submission(
                        dataclasses.replace(item.job, label=label),
                        item.reference,
                        True,
                    )
                )
        sequences.append(sequence)
    pace.probe()
    run.setup_fixed_seconds = sum(scale(compile_seconds, pace.take(), 0.0))
    return sequences, references, speedups


def run_service_mixed(ctx: Context) -> Run:
    from repro.compiler.batch import BatchCompiler
    from repro.control.cache import resolve_cache
    from repro.service import CompileService, ServiceClient

    run = Run(
        "service-mixed", ctx.seed, SERVICE_WORKERS, SERVICE_CLIENTS, backend="sharded"
    )
    ctx.begin("setup")
    sequences, references, run.speedups = service_inputs(ctx.seed, run)

    outcomes: list = []  # per episode: (submission, seconds, result or None)
    episodes: list = []
    epoch = 0
    while run.window_seconds < ctx.seconds or not episodes:
        epoch += 1
        ctx.begin("setup", epoch)
        started = time.perf_counter()
        directory = tempfile.mkdtemp(prefix="service-", dir=ctx.scratch)
        try:
            # Deployed as `python -m repro.service --cache DIR --shards 4
            # --result-cache DIR --journal DIR --workers 2` deploys it.
            store = resolve_cache(path=os.path.join(directory, "pulses"), shards=4)
            engine = BatchCompiler(
                cache=store,
                result_cache=os.path.join(directory, "results"),
                pass_callbacks=ctx.callbacks(),
            )
            service = CompileService(
                engine=engine,
                workers=SERVICE_WORKERS,
                journal=os.path.join(directory, "journal"),
            )
            clients = [ServiceClient(service.url) for _ in sequences]
            if ctx.tracing:
                install_engine(ctx.tracer, ctx.patches, engine)
                install_store(ctx.tracer, ctx.patches, store)
                install_result_cache(ctx.tracer, ctx.patches, engine.result_cache)
                install_service(ctx.tracer, ctx.patches, service)
                for client in clients:
                    install_client(ctx.tracer, ctx.patches, client)
            service.start()
            run.setup_seconds.append(at_reference(time.perf_counter() - started))

            ctx.begin("window")
            # The pace is probed while the service is idle, before and
            # after the episode: probes between submissions would time
            # the service's own threads holding the GIL, not the host.
            before = burst()
            episode_outcomes: list = []
            threads = [
                threading.Thread(
                    target=_client_loop,
                    args=(ctx, client, sequence, episode_outcomes),
                    name=f"client-{index}",
                )
                for index, (client, sequence) in enumerate(zip(clients, sequences))
            ]
            window_started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - window_started
            run.window_seconds += elapsed

            ctx.begin("teardown")
            episode = {"stats": service.stats(), "lifetime": dict(engine.lifetime_info)}
            episode["store"] = store.stats()
            if ctx.tracing:
                episode["statuses"] = clients[0].jobs()
            episodes.append(episode)
            for client in clients:
                client.close()
            service.stop()
            latencies = [seconds for _, seconds, _ in episode_outcomes]
            parts = scale(latencies, [before, burst()], elapsed - sum(latencies))
            run.parts.append(parts)
            outcomes.append(
                [
                    (submission, seconds, result)
                    for (submission, _, result), seconds in zip(episode_outcomes, parts)
                ]
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    ctx.begin("check")
    results = []
    compiled = 0
    for episode, episode_outcomes in zip(episodes, outcomes):
        latencies, hits, instructions = [], [], 0
        for submission, seconds, result in episode_outcomes:
            run.attempted += 1
            if result is None:
                run.failed += 1
                continue
            run.jobs += 1
            latencies.append(seconds)
            if submission.repeat:
                hits.append(seconds)
            else:
                compiled += 1
                instructions += len(result.schedule)
            if _canonical_text(result) != references[submission.reference]:
                run.problems.append(
                    f"{submission.job.label}: artifact differs from an in-process compile"
                )
            results.append(result)
        run.job_seconds.append(latencies)
        run.hit_seconds.append(hits)
        run.repetitions.append(
            {
                "aggregate.instructions_out": instructions,
                "ocu.model_evals": episode["lifetime"]["model_evals"],
            }
        )
    _verify_distinct(run, results)
    run.layer.update(episodes=episodes, compiled_jobs=compiled)
    return run


def _client_loop(ctx: Context, client, sequence, outcomes: list) -> None:
    """One closed-loop client: submit, wait for the result, repeat."""
    from repro.errors import ReproError

    def cycle(job):
        job_id = client.submit_job(job)
        return client.wait(job_id, timeout=120.0, poll=SERVICE_POLL_SECONDS)

    if ctx.tracing:
        cycle = ctx.tracer.wrap(
            "client.job", cycle, job_of=lambda args, kwargs: args[0].label
        )
    for submission in sequence:
        started = time.perf_counter()
        try:
            result = cycle(submission.job)
        except (ReproError, OSError):
            result = None  # failed, cancelled, timed out or rejected
        outcomes.append((submission, time.perf_counter() - started, result))


RUNNERS = {
    "fig9-warm": run_fig9_warm,
    "grape-cold": run_grape_cold,
    "service-mixed": run_service_mixed,
}
