"""Tests for the experiment runner CLI."""

import json
import os

import pytest

from repro.compiler.result import CompilationResult
from repro.compiler.batch import BatchCompiler
from repro.experiments.runner import (
    artifact_filename,
    load_artifacts_report,
    main,
    run_experiment,
    submit_report,
)
from repro.service.server import CompileService


@pytest.fixture(scope="module")
def engine():
    return BatchCompiler()


class TestRunExperiment:
    @pytest.mark.parametrize(
        "name", ["table1", "table3", "figure4", "figure11"]
    )
    def test_fast_experiments_produce_reports(self, name, engine):
        report = run_experiment(name, scale="small", engine=engine)
        assert isinstance(report, str)
        assert len(report.splitlines()) >= 3

    def test_unknown_experiment(self, engine):
        with pytest.raises(ValueError):
            run_experiment("figure99", scale="small", engine=engine)


class TestCli:
    def test_single_experiment_cli(self, capsys):
        exit_code = main(["--experiment", "table1", "--scale", "small"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "finished in" in captured.out

    def test_bad_choice_rejected(self):
        with pytest.raises(SystemExit):
            main(["--experiment", "nope"])

    def test_cache_flags_match_the_service_and_cache_server(self, tmp_path):
        # --shards and --max-bytes, the names `python -m repro.service`
        # and `python -m repro.control.cache_server` use.
        directory = tmp_path / "cache"
        exit_code = main([
            "--experiment", "table1", "--scale", "small",
            "--cache", str(directory),
            "--shards", "3",
            "--max-bytes", "50000000",
        ])
        assert exit_code == 0
        manifest = json.loads((directory / "sharding.json").read_text())
        assert manifest["shards"] == 3
        # The byte budget reaches the store, which refuses a zero one.
        with pytest.raises(ValueError, match="max_bytes"):
            main([
                "--experiment", "table1", "--scale", "small",
                "--cache", str(directory), "--max-bytes", "0",
            ])
        for old_flag in ("--cache-shards", "--cache-max-bytes"):
            with pytest.raises(SystemExit):
                main(["--experiment", "table1", old_flag, "3"])


class TestArtifacts:
    _SWEEP = [
        "--experiment", "figure9",
        "--scale", "small",
        "--benchmarks", "maxcut-line-6",
        "--strategies", "isa,cls+aggregation",
    ]

    def test_save_then_load_round_trip(self, tmp_path, capsys):
        directory = str(tmp_path / "artifacts")
        assert main([*self._SWEEP, "--save-artifacts", directory]) == 0
        saved = sorted(os.listdir(directory))
        assert len(saved) == 2  # one per strategy
        assert all(name.endswith(".json") for name in saved)
        capsys.readouterr()

        assert main(["--load-artifacts", directory]) == 0
        out = capsys.readouterr().out
        assert "all verified" in out
        assert "Figure 9" in out

        # The loaded artifacts carry the full results.
        for name in saved:
            result = CompilationResult.load(os.path.join(directory, name))
            assert result.verify_equivalence()
            assert artifact_filename(result) == name

    def test_load_tolerates_inconsistent_strategy_sets(self, tmp_path):
        """A directory mixing sweeps must print a table, not crash."""
        directory = str(tmp_path / "artifacts")
        assert main([*self._SWEEP, "--save-artifacts", directory]) == 0
        # Drop one strategy's artifact for one benchmark by adding a
        # second benchmark compiled under only one strategy.
        assert main([
            "--experiment", "figure9", "--scale", "small",
            "--benchmarks", "ising-6", "--strategies", "isa",
            "--save-artifacts", directory,
        ]) == 0
        report, ok = load_artifacts_report(directory)
        assert ok, report
        assert "Figure 9" in report  # restricted to the common strategies

    def test_load_flags_corrupt_artifact(self, tmp_path):
        directory = tmp_path / "artifacts"
        directory.mkdir()
        (directory / "junk.json").write_text("{not json")
        report, ok = load_artifacts_report(directory)
        assert not ok
        assert "UNREADABLE" in report

    def test_load_empty_directory_fails(self, tmp_path):
        report, ok = load_artifacts_report(tmp_path)
        assert not ok
        assert "no .json artifacts" in report


class TestSubmit:
    def test_sweep_through_a_compile_service(self):
        with CompileService(workers=2) as service:
            report, ok = submit_report(
                service.url,
                strategies=["isa", "cls"],
                benchmarks=["maxcut-line-6"],
                timeout=120.0,
            )
        assert ok, report
        assert "submitting 2 jobs" in report
        assert "Figure 9: normalized latency (isa = 1.0)" in report
        assert "maxcut-line-6" in report
        assert "2/2 artifacts verified" in report
