"""Tests for the batch engine's one path for a unit of work.

Jobs, pre-warm planner dry-runs and pre-warm syntheses all run on a
fresh unit writing straight through to the shared store, fanned out by
one map per executor.  These tests pin what that path promises beyond
the executor suites: the single-job entry bills and caches like a batch,
a running job's latencies are already in the store, the thread work
bill does not depend on the worker count (the process bill does, but
not its results or store), a failed job stops the batch, the process
executor's GRAPE stage plans, bills its dry-runs and matches thread
mode across pinned devices, and an engine whose default device cannot
serialize compiles its jobs uncached.
"""

import threading

import pytest

from repro.benchmarks.ising import ising_model_circuit
from repro.benchmarks.qaoa import line_graph, maxcut_qaoa_circuit
from repro.compiler.batch import BatchCompiler, BatchJob
from repro.compiler.result_cache import ResultCache
from repro.compiler.strategies import all_strategies
from repro.device.device import Device
from repro.device.topology import LineTopology, Topology
from repro.errors import ConfigError, MappingError
from repro.ir import canonical_result_dict
from repro.service.server import CompileService


def _canon(results):
    return [canonical_result_dict(result) for result in results]


class TestSingleJobPath:
    def test_compile_is_billed_then_served_from_the_result_cache(self):
        engine = BatchCompiler(result_cache=ResultCache())
        circuit = maxcut_qaoa_circuit(line_graph(4), name="line4")
        first = engine.compile(circuit, "cls+aggregation")
        billed = engine.lifetime_info["model_evals"]
        assert billed > 0
        again = engine.compile(circuit, "cls+aggregation")
        assert engine.lifetime_info["model_evals"] == billed
        assert engine.result_cache.stats()["hits"] == 1
        assert _canon([again]) == _canon([first])


class TestWriteThrough:
    def test_a_running_job_has_stored_its_latencies(self):
        counts = {}

        def record(pass_, context, elapsed):
            counts.setdefault(pass_.name, engine.cache.latency_count)

        engine = BatchCompiler(pass_callbacks=[record])
        engine.compile(maxcut_qaoa_circuit(line_graph(4), name="line4"), "cls")
        # CLS priced the logical nodes; the job is still running.
        assert counts["LogicalSchedulePass"] > 0


def _sweep_jobs():
    """Two small circuits under all five strategies."""
    circuits = [
        maxcut_qaoa_circuit(line_graph(4), name="line4"),
        ising_model_circuit(4, name="ising4"),
    ]
    jobs = [
        BatchJob(circuit=circuit, strategy=strategy)
        for circuit in circuits
        for strategy in all_strategies()
    ]
    assert len(jobs) == 10
    return jobs


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_each_latency_is_evaluated_once(self, workers):
        report = BatchCompiler(max_workers=workers).compile_batch(_sweep_jobs())
        info = report.cache_info
        assert info["model_evals"] == info["latency_entries"]

    def test_process_store_and_results_do_not_depend_on_workers(self):
        # Worker stores miss each other's latencies, so the process bill
        # may grow with the worker count; what lands is the same.
        reports = [
            BatchCompiler(executor="process", max_workers=workers).compile_batch(
                _sweep_jobs()
            )
            for workers in (1, 2)
        ]
        one, two = (report.cache_info for report in reports)
        assert one["latency_entries"] == two["latency_entries"]
        for info in (one, two):
            assert info["model_evals"] >= info["latency_entries"]
        assert _canon(reports[0]) == _canon(reports[1])


class TestFailedJob:
    def test_jobs_queued_behind_a_failed_one_never_start(self):
        started = set()
        lock = threading.Lock()

        def record(pass_, context, elapsed):
            with lock:
                started.add(context.circuit.name)

        # Four qubits do not fit on a 3-qubit line: the job fails in its
        # mapping pass.
        failing = BatchJob(
            circuit=ising_model_circuit(4, name="bad"), device="line-3"
        )
        good = [
            BatchJob(
                circuit=ising_model_circuit(
                    8, trotter_steps=2, field=0.1 * (k + 1), name=f"good{k}"
                ),
                strategy="aggregation",
            )
            for k in range(7)
        ]
        engine = BatchCompiler(max_workers=2, pass_callbacks=[record])
        with pytest.raises(MappingError, match="3 cells for 4"):
            engine.compile_batch([failing] + good)
        # One worker may pick up a good job while the other fails, and
        # the freed worker one more before the error reaches the caller;
        # a pool that ran its whole queue would start all seven.
        assert len(started - {"bad"}) <= 3


class TestProcessPrewarm:
    """The process executor's GRAPE stage, GRAPE-priced on one qubit so
    the planner has problems to solve while the batch stays cheap."""

    @staticmethod
    def _engine(executor):
        return BatchCompiler(
            backend="grape", grape_qubit_limit=1, executor=executor, max_workers=2
        )

    def test_parity_with_threads_across_pinned_devices(self):
        circuit = maxcut_qaoa_circuit(line_graph(4), name="line4")
        weak = Device(topology=LineTopology(4), coupling_limits_ghz={(0, 1): 0.015})
        jobs = [
            BatchJob(circuit=circuit, strategy=strategy, device=device)
            for device in ("ring-6", weak)
            for strategy in ("aggregation", "cls+aggregation")
        ]
        thread = self._engine("thread").compile_batch(jobs)
        process = self._engine("process").compile_batch(jobs)
        assert thread.prewarm is None
        stats = process.prewarm
        assert stats["signatures"] > 0
        # Each node and pinned device crossed to a worker, and each
        # planned problem was solved there once.
        assert stats["synthesized"] == stats["signatures"]
        assert _canon(process) == _canon(thread)

    def test_planned_batch_bills_its_dry_runs(self):
        circuit = maxcut_qaoa_circuit(line_graph(4), name="line4")
        engine = self._engine("process")
        report = engine.compile_batch(
            [
                BatchJob(circuit=circuit, strategy=strategy)
                for strategy in ("aggregation", "cls+aggregation")
            ]
        )
        assert report.prewarm is not None
        model_keyed = [
            key
            for key in engine.cache.snapshot_delta().latencies
            if key[1] == "model"
        ]
        # Each model-keyed entry was evaluated at least once, most of
        # them by the planner's dry-runs.
        assert report.cache_info["model_evals"] >= len(model_keyed) > 0


class Custom(Topology):
    """A topology subclass the wire format refuses to flatten."""


class TestUnserializableDefaultDevice:
    @pytest.fixture
    def device(self):
        return Device(topology=Custom(3, [(0, 1), (1, 2)]))

    def test_jobs_compile_uncached(self, device):
        engine = BatchCompiler(device=device, result_cache=ResultCache())
        circuit = maxcut_qaoa_circuit(line_graph(3), name="line3")
        job = BatchJob(circuit=circuit, strategy="cls")
        assert engine.result_key(job) is None
        report = engine.compile_batch([job])
        assert report.result_cache["uncacheable"] == 1
        assert engine.run_job(job)[0].latency_ns == report[0].latency_ns
        assert engine.compile(circuit, "cls").latency_ns == report[0].latency_ns
        assert engine.result_cache.stats()["entries"] == 0

    def test_compile_service_refuses_the_engine(self, device):
        with pytest.raises(ConfigError, match="Custom"):
            CompileService(engine=BatchCompiler(device=device))
