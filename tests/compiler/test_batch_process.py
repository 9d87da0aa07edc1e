"""Process-executor tests: thread/process parity, deltas, rejections."""

import pytest

from repro.benchmarks.ising import ising_model_circuit
from repro.benchmarks.qaoa import line_graph, maxcut_qaoa_circuit
from repro.compiler.batch import BatchCompiler, BatchJob
from repro.compiler.strategies import Strategy, all_strategies
from repro.control.cache import CacheServer, RemotePulseCache
from repro.errors import ConfigError
from repro.ir import canonical_result_dict


@pytest.fixture(scope="module")
def sweep_jobs():
    """Two circuits x all five strategies, one with a pinned device."""
    line = maxcut_qaoa_circuit(line_graph(5), name="line5")
    ising = ising_model_circuit(4)
    jobs = [
        BatchJob(circuit=circuit, strategy=strategy)
        for circuit in (line, ising)
        for strategy in all_strategies()
    ]
    jobs.append(BatchJob(circuit=ising, strategy="cls", device="ring-6"))
    return jobs


class TestThreadProcessParity:
    def test_reports_bit_identical_on_canonical_form(self, sweep_jobs):
        """The ISSUE acceptance check: process == thread on every job.

        Identity is judged on the canonical wire form: everything except
        wall-clock timings and the process-global auto-name counter of
        aggregated instructions (renumbered identically on both sides).
        """
        thread = BatchCompiler(max_workers=2).compile_batch(sweep_jobs)
        process = BatchCompiler(
            max_workers=2, executor="process"
        ).compile_batch(sweep_jobs)
        assert thread.executor == "thread"
        assert process.executor == "process"
        assert len(thread) == len(process) == len(sweep_jobs)
        for a, b in zip(thread, process):
            assert a.latency_ns == b.latency_ns
            assert a.swap_count == b.swap_count
            assert a.aggregation_merges == b.aggregation_merges
            assert canonical_result_dict(a) == canonical_result_dict(b)

    def test_process_results_in_job_order(self, sweep_jobs):
        report = BatchCompiler(
            max_workers=2, executor="process"
        ).compile_batch(sweep_jobs)
        expected = [(j.circuit.name, j.strategy.key) for j in sweep_jobs]
        produced = [(r.circuit_name, r.strategy_key) for r in report]
        assert produced == expected

    def test_process_results_verify_against_local_source(self, sweep_jobs):
        report = BatchCompiler(executor="process").compile_batch(
            sweep_jobs[:3]
        )
        for job, result in zip(sweep_jobs, report):
            # The result crossed the process boundary: its embedded
            # source circuit is a deserialized copy, and it must still
            # implement the parent's original circuit.
            assert result.source_circuit is not job.circuit
            assert result.verify_equivalence(job.circuit)


class TestDeltaMerging:
    def test_worker_deltas_land_in_shared_store(self, sweep_jobs):
        engine = BatchCompiler(max_workers=2, executor="process")
        assert engine.cache.latency_count == 0
        report = engine.compile_batch(sweep_jobs)
        assert engine.cache.latency_count > 0
        assert report.cache_info["latency_entries"] == engine.cache.latency_count

    def test_warm_store_seeds_worker_processes(self, sweep_jobs):
        """A warm shared store must reach process workers (pool seeding)."""
        engine = BatchCompiler(max_workers=1, executor="process")
        cold = engine.compile_batch(sweep_jobs)
        assert cold.cache_info["model_evals"] > 0
        # Same engine, fresh pool: workers are seeded with the merged
        # store and must answer every repeated structure from cache.
        warm = engine.compile_batch(sweep_jobs)
        assert warm.cache_info["model_evals"] == 0
        for a, b in zip(cold, warm):
            assert a.latency_ns == b.latency_ns

    def test_merged_store_warms_thread_mode(self, sweep_jobs):
        store_engine = BatchCompiler(max_workers=1, executor="process")
        store_engine.compile_batch(sweep_jobs)
        warm = BatchCompiler(
            cache=store_engine.cache, max_workers=1
        ).compile_batch(sweep_jobs)
        cold = BatchCompiler(max_workers=1).compile_batch(sweep_jobs)
        assert warm.cache_info["model_evals"] * 5 <= max(
            cold.cache_info["model_evals"], 1
        )
        for a, b in zip(warm, cold):
            assert a.latency_ns == b.latency_ns

    def test_worker_deltas_reach_a_cache_server(self):
        """Over a ``tcp://`` store, every worker entry reaches the server
        from the worker's own client, which uploads at the end of each
        job; the parent client holds the merged entries locally."""
        circuit = maxcut_qaoa_circuit(line_graph(4))
        jobs = [
            BatchJob(circuit=circuit, strategy=strategy)
            for strategy in ("isa", "aggregation", "cls+aggregation")
        ]
        with CacheServer() as server:
            url = f"tcp://{server.url}"
            engine = BatchCompiler(cache=url, executor="process", max_workers=2)
            cold = engine.compile_batch(jobs)
            engine.save_cache()
            assert cold.cache_info["model_evals"] > 0
            assert engine.cache.latency_count > 0
            assert server.store.latency_count == engine.cache.latency_count
            # A second engine on the same URL finds every entry there.
            warm = BatchCompiler(cache=url).compile_batch(jobs)
            assert warm.cache_info["model_evals"] == 0
            for a, b in zip(cold, warm):
                assert canonical_result_dict(a) == canonical_result_dict(b)

    def test_workers_upload_each_entry_once(self, sweep_jobs):
        """Over a cache server the server's writes are the workers'
        evaluations: each worker uploads its own entries, and the parent
        client keeps the returned deltas local instead of forwarding
        them again.  The sweep's entries cross the client's write-behind
        threshold, and one worker keeps the count deterministic."""
        with CacheServer() as server:
            engine = BatchCompiler(
                cache=f"tcp://{server.url}", executor="process", max_workers=1
            )
            report = engine.compile_batch(sweep_jobs)
            engine.save_cache()
            evaluations = report.cache_info["model_evals"]
            assert evaluations > 33
            assert server.store.stats()["store_writes"] == evaluations
            assert server.store.latency_count == engine.cache.latency_count

    def test_workers_over_a_warm_cache_server_start_warm(self):
        """Process workers mount the server itself: the parent client's
        own entries are only those it has seen, so seeding the workers
        with them would leave them cold over a warm server."""
        circuit = maxcut_qaoa_circuit(line_graph(4))
        jobs = [
            BatchJob(circuit=circuit, strategy=strategy)
            for strategy in ("isa", "aggregation", "cls+aggregation")
        ]
        with CacheServer() as server:
            first = BatchCompiler(cache=f"tcp://{server.url}", max_workers=2)
            cold = first.compile_batch(jobs)
            first.save_cache()
            assert server.store.latency_count > 0
            # A client built on the scheme-less address: the workers
            # still mount the server, not a directory of that name.
            engine = BatchCompiler(
                cache=RemotePulseCache(server.url),
                executor="process",
                max_workers=2,
            )
            warm = engine.compile_batch(jobs)
            assert warm.cache_info["model_evals"] == 0
            for a, b in zip(cold, warm):
                assert canonical_result_dict(a) == canonical_result_dict(b)


class TestProcessModeRejections:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigError, match="executor"):
            BatchCompiler(executor="fiber")

    def test_pass_callbacks_rejected(self):
        with pytest.raises(ConfigError, match="pass_callbacks"):
            BatchCompiler(
                executor="process",
                pass_callbacks=[lambda *args: None],
            )

    def test_unregistered_strategy_rejected(self):
        unregistered = Strategy(
            key="process-unregistered",
            description="never registered",
            commutativity_detection=False,
            cls_scheduling=False,
            aggregation=False,
            hand_optimization=False,
        )
        job = BatchJob(
            circuit=maxcut_qaoa_circuit(line_graph(3), name="tiny"),
            strategy=unregistered,
        )
        engine = BatchCompiler(executor="process")
        with pytest.raises(ConfigError, match="cannot cross a process"):
            engine.compile_batch([job])
