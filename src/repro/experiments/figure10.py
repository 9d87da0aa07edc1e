"""Figure 10: allowed instruction width vs normalized latency.

For three parallel applications (MAXCUT, Ising) and three serial ones
(square root, UCCSD), the paper sweeps the maximum aggregated-instruction
width from 2 to 10 and plots (a) total circuit latency normalized to the
ISA baseline (black line) and (b) the band between the least- and
most-optimized instruction on the critical path (filled area).  Parallel
applications saturate at small widths; serial ones keep improving until
the optimal-control scalability limit.
"""

from __future__ import annotations

import dataclasses

from repro.benchmarks.registry import benchmark_by_key
from repro.compiler.batch import BatchCompiler, BatchJob
from repro.compiler.strategies import CLS_AGGREGATION, ISA

PARALLEL_BENCHMARKS = ("maxcut-line-20", "maxcut-reg4-30", "ising-30")
SERIAL_BENCHMARKS = ("sqrt-17", "uccsd-4", "uccsd-6-b")


@dataclasses.dataclass
class Figure10Point:
    """One width setting of one benchmark."""

    width: int
    normalized_latency: float
    least_optimized: float
    most_optimized: float


@dataclasses.dataclass
class Figure10Series:
    """The width sweep of one benchmark."""

    benchmark: str
    classification: str  # "parallel" | "serial"
    points: list[Figure10Point]

    def saturation_width(self, tolerance: float = 0.02) -> int:
        """Smallest width within ``tolerance`` of the final latency."""
        final = self.points[-1].normalized_latency
        for point in self.points:
            if point.normalized_latency <= final * (1 + tolerance):
                return point.width
        return self.points[-1].width


def run_figure10(
    benchmarks: dict[str, str] | None = None,
    widths: range | None = None,
    scale: str = "paper",
    engine: BatchCompiler | None = None,
) -> list[Figure10Series]:
    """Sweep the allowed instruction width per benchmark (batched).

    Every (benchmark, width) pair plus each benchmark's ISA baseline is
    one independent job; the whole sweep runs as a single batch over the
    engine's shared cache.

    Args:
        benchmarks: Map benchmark key -> "parallel"/"serial"; defaults to
            the paper's six applications.
        widths: Width settings to sweep; default the paper's 2..10.
        scale: Suite scale.
        engine: Batch engine (shared, possibly disk-persistent cache);
            a default one when omitted.
    """
    if widths is None:
        widths = range(2, 11)
    if benchmarks is None:
        benchmarks = {key: "parallel" for key in PARALLEL_BENCHMARKS}
        benchmarks.update({key: "serial" for key in SERIAL_BENCHMARKS})
    engine = engine if engine is not None else BatchCompiler()
    widths = list(widths)
    jobs: list[BatchJob] = []
    for key in benchmarks:
        spec = benchmark_by_key(key, scale=scale)
        circuit = spec.build()
        jobs.append(
            BatchJob(circuit=circuit, strategy=ISA, label=f"{key}/isa")
        )
        jobs.extend(
            BatchJob(
                circuit=circuit,
                strategy=CLS_AGGREGATION,
                width_limit=width,
                label=f"{key}/w{width}",
            )
            for width in widths
        )
    report = engine.compile_batch(jobs)
    band_ocu = engine.make_ocu()
    series: list[Figure10Series] = []
    cursor = 0
    for key, classification in benchmarks.items():
        baseline = report.results[cursor]
        cursor += 1
        points: list[Figure10Point] = []
        for width in widths:
            result = report.results[cursor]
            cursor += 1
            least, most = _critical_path_optimization_band(result, band_ocu)
            points.append(
                Figure10Point(
                    width=width,
                    normalized_latency=result.latency_ns / baseline.latency_ns,
                    least_optimized=least,
                    most_optimized=most,
                )
            )
        series.append(
            Figure10Series(
                benchmark=key, classification=classification, points=points
            )
        )
    return series


def _critical_path_optimization_band(result, ocu) -> tuple[float, float]:
    """Min/max pulse-optimization ratio among critical-path instructions.

    The ratio compares each instruction's single-pulse latency to the
    serial per-gate latency of its members: 1.0 means no optimization,
    smaller is more optimized (the paper's filled band edges).
    """
    if not len(result.schedule):
        return 1.0, 1.0
    makespan = result.schedule.makespan
    ratios = []
    for operation in result.schedule:
        if abs(operation.end - makespan) > 1e-6:
            continue  # keep only instructions finishing on the horizon
        node = operation.node
        gates = getattr(node, "gates", None)
        if not gates:
            ratios.append(1.0)
            continue
        serial = sum(ocu.latency(gate) for gate in gates)
        if serial <= 0:
            continue
        ratios.append(operation.duration / serial)
    if not ratios:
        return 1.0, 1.0
    return max(ratios), min(ratios)


def format_figure10(series: list[Figure10Series]) -> str:
    """Paper-style text series."""
    lines = ["Figure 10: allowed instruction width vs normalized latency"]
    for entry in series:
        lines.append(f"\n{entry.benchmark} ({entry.classification})")
        lines.append(
            f"{'width':>6s} {'latency':>9s} {'least-opt':>10s} {'most-opt':>9s}"
        )
        for point in entry.points:
            lines.append(
                f"{point.width:6d} {point.normalized_latency:9.3f} "
                f"{point.least_optimized:10.3f} {point.most_optimized:9.3f}"
            )
        lines.append(f"saturates at width {entry.saturation_width()}")
    return "\n".join(lines)
