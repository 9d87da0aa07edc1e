"""Tests for the batch compilation engine and its shared cache."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.benchmarks.grover import grover_sqrt_circuit
from repro.benchmarks.ising import ising_model_circuit
from repro.benchmarks.qaoa import line_graph, maxcut_qaoa_circuit
from repro.compiler.batch import COUNTER_KEYS, BatchCompiler, BatchJob
from repro.compiler.pipeline import compile_circuit
from repro.compiler.strategies import CLS, CLS_AGGREGATION, ISA, all_strategies
from repro.config import DeviceConfig
from repro.control.cache import PulseCache, ShardedDiskPulseCache
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def suite_jobs():
    """Ten jobs over two circuits and all five strategies."""
    line = maxcut_qaoa_circuit(line_graph(6), name="line6")
    ising = ising_model_circuit(5)
    return [
        BatchJob(circuit=circuit, strategy=strategy)
        for circuit in (line, ising)
        for strategy in all_strategies()
    ]


class TestBatchSerialParity:
    def test_batch_matches_serial_bit_for_bit(self, suite_jobs):
        """The ISSUE acceptance check: >= 8 jobs, >= 2 workers."""
        assert len(suite_jobs) >= 8
        serial = [
            compile_circuit(job.circuit, job.strategy) for job in suite_jobs
        ]
        report = BatchCompiler(max_workers=2).compile_batch(suite_jobs)
        assert len(report) == len(suite_jobs)
        for batched, reference in zip(report, serial):
            assert batched.latency_ns == reference.latency_ns
            assert batched.swap_count == reference.swap_count
            assert batched.aggregation_merges == reference.aggregation_merges
            assert batched.strategy_key == reference.strategy_key

    def test_results_in_job_order(self, suite_jobs):
        report = BatchCompiler(max_workers=3).compile_batch(suite_jobs)
        expected = [(j.circuit.name, j.strategy.key) for j in suite_jobs]
        produced = [(r.circuit_name, r.strategy_key) for r in report]
        assert produced == expected

    def test_single_worker_path(self, suite_jobs):
        serial_report = BatchCompiler(max_workers=1).compile_batch(suite_jobs)
        threaded_report = BatchCompiler(max_workers=4).compile_batch(suite_jobs)
        for a, b in zip(serial_report, threaded_report):
            assert a.latency_ns == b.latency_ns


class TestWarmCache:
    def test_second_run_needs_far_fewer_model_evals(self, suite_jobs):
        engine = BatchCompiler(max_workers=2)
        cold = engine.compile_batch(suite_jobs)
        warm = engine.compile_batch(suite_jobs)
        assert cold.cache_info["model_evals"] > 0
        assert warm.cache_info["model_evals"] * 5 <= cold.cache_info["model_evals"]
        assert warm.cache_info["grape_calls"] == 0
        for a, b in zip(cold, warm):
            assert a.latency_ns == b.latency_ns

    def test_cache_reused_across_engines_sharing_store(self, suite_jobs):
        store = PulseCache()
        cold = BatchCompiler(cache=store, max_workers=2).compile_batch(suite_jobs)
        warm = BatchCompiler(cache=store, max_workers=2).compile_batch(suite_jobs)
        assert warm.cache_info["model_evals"] * 5 <= cold.cache_info["model_evals"]

    def test_disk_round_trip_warms_new_process_engine(self, tmp_path, suite_jobs):
        directory = tmp_path / "pulse_cache"
        engine = BatchCompiler(
            cache=ShardedDiskPulseCache(directory), max_workers=2
        )
        cold = engine.compile_batch(suite_jobs)
        assert engine.save_cache() > 0

        # A brand-new engine over freshly loaded files: simulates a new
        # process picking the cache up from disk.
        warm_engine = BatchCompiler(
            cache=ShardedDiskPulseCache(directory), max_workers=2
        )
        warm = warm_engine.compile_batch(suite_jobs)
        assert warm.cache_info["model_evals"] * 5 <= cold.cache_info["model_evals"]
        for a, b in zip(cold, warm):
            assert a.latency_ns == b.latency_ns

    def test_device_change_invalidates_fingerprint(self, suite_jobs):
        # Serial workers: concurrent jobs can duplicate an uncached
        # evaluation (deltas merge at job completion), which would make
        # the eval counts nondeterministic.
        store = PulseCache()
        cold = BatchCompiler(cache=store, max_workers=1).compile_batch(suite_jobs)
        other_device = DeviceConfig(coupling_limit_ghz=0.04)
        other = BatchCompiler(
            device=other_device, cache=store, max_workers=1
        ).compile_batch(suite_jobs)
        # Different physics: no entry may be reused, so the second run
        # re-evaluates every unique structure (and computes different
        # latencies).
        assert other.cache_info["model_evals"] == cold.cache_info["model_evals"]
        assert other.cache_info["model_evals"] > 0
        assert store.latency_count == 2 * cold.cache_info["model_evals"]
        assert any(
            a.latency_ns != b.latency_ns for a, b in zip(cold, other)
        )


class TestJobShape:
    """A batch job is a BatchJob, and each field is checked when built."""

    def test_only_batch_jobs_accepted(self):
        circuit = maxcut_qaoa_circuit(line_graph(4), name="line4")
        engine = BatchCompiler()
        for not_a_job in (42, circuit, (circuit, "isa"), (circuit, ISA, 3)):
            with pytest.raises(ConfigError, match="BatchJob"):
                engine.compile_batch([not_a_job])

    def test_job_key_label(self):
        circuit = maxcut_qaoa_circuit(line_graph(4), name="line4")
        assert BatchJob(circuit=circuit, strategy=CLS).key == "line4/cls"
        assert BatchJob(circuit=circuit, label="custom").key == "custom"

    def test_exactly_five_fields(self):
        import dataclasses

        assert [field.name for field in dataclasses.fields(BatchJob)] == [
            "circuit",
            "strategy",
            "width_limit",
            "label",
            "device",
        ]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("circuit", "not a circuit"),
            ("strategy", 7),
            ("strategy", None),
            ("strategy", "no-such-strategy"),
            ("width_limit", "3"),
            ("width_limit", 1.5),
            ("width_limit", True),
            ("width_limit", 0),
            ("label", 5),
        ],
    )
    def test_malformed_field_rejected(self, field, value):
        fields = {"circuit": maxcut_qaoa_circuit(line_graph(4), name="line4")}
        fields[field] = value
        with pytest.raises(ConfigError, match=field):
            BatchJob(**fields)

    def test_valid_fields_kept(self):
        job = BatchJob(
            circuit=maxcut_qaoa_circuit(line_graph(4), name="line4"),
            strategy="cls+aggregation",
            width_limit=1,
            label="w1",
            device="line-4",
        )
        assert job.strategy is CLS_AGGREGATION
        assert job.width_limit == 1
        assert job.device.name == "line-4"


class TestEngineBasics:
    def test_empty_batch(self):
        report = BatchCompiler().compile_batch([])
        assert len(report) == 0
        assert report.workers == 0

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigError):
            BatchCompiler(max_workers=0)

    def test_compile_single_through_shared_cache(self):
        engine = BatchCompiler()
        circuit = grover_sqrt_circuit(2)
        first = engine.compile(circuit, CLS_AGGREGATION)
        reference = compile_circuit(circuit, CLS_AGGREGATION)
        assert first.latency_ns == reference.latency_ns

    def test_path_string_mounts_directory_store(self, tmp_path):
        engine = BatchCompiler(cache=str(tmp_path / "store"))
        assert isinstance(engine.cache, ShardedDiskPulseCache)
        assert engine.cache.directory == str(tmp_path / "store")

    def test_concurrent_billing_loses_no_update(self):
        """Compile-service workers call run_job, and so bill the engine's
        lifetime totals, at once; no update may be lost."""
        engine = BatchCompiler()
        counters = dict.fromkeys(COUNTER_KEYS, 1)
        workers, rounds = 8, 10000
        start = threading.Barrier(workers)

        def worker() -> None:
            start.wait(timeout=30)
            for _ in range(rounds):
                engine._bill(counters, {"LowerPass": 1.0})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(worker) for _ in range(workers)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        total = workers * rounds
        assert engine.lifetime_pass_seconds == {"LowerPass": total}
        for key in COUNTER_KEYS:
            assert engine.lifetime_info[key] == total

    def test_report_total_latency(self, suite_jobs):
        report = BatchCompiler(max_workers=2).compile_batch(suite_jobs[:3])
        assert report.total_latency_ns() == pytest.approx(
            sum(r.latency_ns for r in report.results)
        )
