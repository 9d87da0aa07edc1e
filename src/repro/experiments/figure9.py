"""Figure 9: normalized circuit latency of every strategy per benchmark.

The paper's headline result: across the Table 3 suite, CLS+aggregation
reduces pulse latency by a geometric-mean 5.07x (max ~10x) relative to
gate-based (ISA) compilation, with CLS+hand at 2.34x.
"""

from __future__ import annotations

import dataclasses
import math

from repro.benchmarks.registry import table3_suite
from repro.compiler.batch import BatchCompiler, BatchJob
from repro.compiler.result import CompilationResult
from repro.compiler.strategies import Strategy, all_strategies, strategy_by_key
from repro.device.device import Device
from repro.device.presets import device_by_key
from repro.errors import ConfigError

PAPER_GEOMEAN_CLS_AGGREGATION = 5.07
PAPER_GEOMEAN_CLS_HAND = 2.338
PAPER_MAX_SPEEDUP = 10.0


@dataclasses.dataclass
class Figure9Row:
    """One benchmark's latency under every strategy."""

    benchmark: str
    qubits: int
    results: dict[str, CompilationResult] = dataclasses.field(repr=False)
    """Full :class:`~repro.compiler.result.CompilationResult` per
    strategy, in sweep order — what ``--save-artifacts`` persists as
    JSON artifacts, and what every other column is read from."""
    seconds: dict[str, float] = dataclasses.field(default_factory=dict)
    """Per-job wall-clock.  Under a multi-worker engine each entry
    includes GIL wait while other jobs run; treat as relative cost, not
    serial compile time."""
    device: str | None = None
    """Device the row compiled onto (None: auto-sized paper grid)."""

    @property
    def latencies_ns(self) -> dict[str, float]:
        """Schedule makespan per strategy."""
        return {key: result.latency_ns for key, result in self.results.items()}

    @property
    def baseline_key(self) -> str:
        """Normalization baseline: ISA when present, else the first
        strategy in the sweep (custom sweeps may omit ISA)."""
        return "isa" if "isa" in self.latencies_ns else next(iter(self.latencies_ns))

    def normalized(self) -> dict[str, float]:
        """Latency over the baseline (the paper's y-axis)."""
        baseline = self.latencies_ns[self.baseline_key]
        return {
            key: value / baseline for key, value in self.latencies_ns.items()
        }

    def speedup(self, strategy_key: str) -> float:
        return (
            self.latencies_ns[self.baseline_key]
            / self.latencies_ns[strategy_key]
        )


def run_figure9(
    scale: str = "paper",
    strategies: list[Strategy | str] | None = None,
    benchmark_keys: list[str] | None = None,
    engine: BatchCompiler | None = None,
    device: Device | str | None = None,
) -> list[Figure9Row]:
    """Compile the suite under every strategy through the batch engine.

    Args:
        scale: ``"paper"`` (Table 3 sizes) or ``"small"`` (fast).
        strategies: Defaults to all five Figure 9 strategies.  Entries
            may be :class:`Strategy` objects or registered keys, so
            custom strategies added via ``register_strategy`` sweep
            alongside (or instead of) the paper's five.
        benchmark_keys: Restrict to a subset of the suite.
        engine: Batch engine (shared, possibly disk-persistent cache);
            a default one when omitted.
        device: Compilation target for every job — a
            :class:`~repro.device.device.Device` or a preset key such as
            ``"ring-6"``.  Benchmarks wider than the device are skipped
            (a fixed machine cannot hold them); None keeps the paper's
            per-circuit auto-sized grid.
    """
    strategies = [
        entry if isinstance(entry, Strategy) else strategy_by_key(entry)
        for entry in (strategies or all_strategies())
    ]
    if isinstance(device, str):
        device = device_by_key(device)
    engine = engine if engine is not None else BatchCompiler()
    suite = table3_suite(scale)
    if benchmark_keys:
        known = {spec.key for spec in suite}
        unknown = [key for key in benchmark_keys if key not in known]
        if unknown:
            raise ConfigError(
                f"unknown benchmark keys {unknown}; the {scale!r} suite "
                f"has: {', '.join(sorted(known))}"
            )
    specs = [
        spec for spec in suite if not benchmark_keys or spec.key in benchmark_keys
    ]
    if device is not None:
        specs = [
            spec for spec in specs if spec.qubits <= device.num_qubits
        ]
        if not specs:
            raise ConfigError(
                f"no benchmark in the sweep fits on {device.num_qubits}-qubit "
                f"device {device.name or device!r}; a silent empty sweep "
                f"would report nothing while exiting green"
            )
    jobs: list[BatchJob] = []
    for spec in specs:
        circuit = spec.build()
        jobs.extend(
            BatchJob(
                circuit=circuit,
                strategy=strategy,
                label=f"{spec.key}/{strategy.key}",
                device=device,
            )
            for strategy in strategies
        )
    report = engine.compile_batch(jobs)
    rows: list[Figure9Row] = []
    cursor = 0
    for spec in specs:
        results: dict[str, CompilationResult] = {}
        seconds: dict[str, float] = {}
        for strategy in strategies:
            results[strategy.key] = report.results[cursor]
            seconds[strategy.key] = report.seconds[cursor]
            cursor += 1
        rows.append(
            Figure9Row(
                benchmark=spec.key,
                qubits=spec.qubits,
                results=results,
                seconds=seconds,
                # Unnamed custom devices keep their provenance via repr;
                # only the default auto-sized paper grid reports None.
                device=(device.name or repr(device))
                if device is not None
                else None,
            )
        )
    return rows


def geometric_mean_speedups(rows: list[Figure9Row]) -> dict[str, float]:
    """Geomean speedup per strategy over the sweep's baseline.

    The baseline is ISA when it is part of the sweep (the paper's 5.07x
    metric); a custom sweep without ISA is normalized to its first
    strategy instead (see :attr:`Figure9Row.baseline_key`).
    """
    if not rows:
        return {}
    keys = [k for k in rows[0].latencies_ns if k != rows[0].baseline_key]
    means: dict[str, float] = {}
    for key in keys:
        log_sum = sum(math.log(row.speedup(key)) for row in rows)
        means[key] = math.exp(log_sum / len(rows))
    return means


def max_speedup(rows: list[Figure9Row], strategy_key: str) -> float:
    """Best single-benchmark speedup of a strategy."""
    return max(row.speedup(strategy_key) for row in rows)


def format_figure9(rows: list[Figure9Row]) -> str:
    """Paper-style text table of normalized latencies."""
    if not rows:
        return "Figure 9: (no rows)"
    keys = list(rows[0].latencies_ns)
    baseline_key = rows[0].baseline_key
    header = f"{'benchmark':22s}" + "".join(f"{k:>16s}" for k in keys)
    device_tag = f" on {rows[0].device}" if rows[0].device else ""
    lines = [
        f"Figure 9: normalized latency ({baseline_key} = 1.0){device_tag}",
        header,
    ]
    for row in rows:
        normalized = row.normalized()
        lines.append(
            f"{row.benchmark:22s}"
            + "".join(f"{normalized[k]:16.3f}" for k in keys)
        )
    means = geometric_mean_speedups(rows)
    lines.append("")
    for key, value in means.items():
        lines.append(f"geomean speedup {key}: {value:.2f}x")
    if baseline_key == "isa":
        # The paper's numbers are speedups over ISA; comparing them to a
        # custom-baseline sweep would be misleading, so only print them
        # when the sweep is ISA-normalized.
        lines.append(
            f"paper: cls+aggregation {PAPER_GEOMEAN_CLS_AGGREGATION}x, "
            f"cls+hand {PAPER_GEOMEAN_CLS_HAND}x, max {PAPER_MAX_SPEEDUP}x"
        )
    return "\n".join(lines)
