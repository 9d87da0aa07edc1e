"""Tests for the experiment runner CLI."""

import os

import pytest

from repro.compiler.result import CompilationResult
from repro.compiler.batch import BatchCompiler
from repro.experiments.runner import (
    artifact_filename,
    load_artifacts_report,
    main,
    run_experiment,
)


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
