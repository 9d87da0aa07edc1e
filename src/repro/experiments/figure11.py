"""Figure 11: spatial locality vs aggregation benefit.

The three MAXCUT instances share the same instruction mix after CLS
(CNOT-Rz-CNOT diagonal blocks plus 1-qubit gates); they differ in spatial
locality, hence in inserted SWAPs.  The paper normalizes each instance's
aggregated latency to its own CLS latency and finds that *lower* locality
leaves *more* room for aggregation: line ~0.8, reg4 ~0.65, cluster ~0.5.
"""

from __future__ import annotations

import dataclasses

from repro.benchmarks.registry import benchmark_by_key
from repro.compiler.batch import BatchCompiler, BatchJob
from repro.compiler.strategies import CLS, CLS_AGGREGATION

MAXCUT_INSTANCES = ("maxcut-line-20", "maxcut-reg4-30", "maxcut-cluster-30")
MAXCUT_INSTANCES_SMALL = ("maxcut-line-6", "maxcut-reg4-8", "maxcut-cluster-8")


@dataclasses.dataclass
class Figure11Row:
    """One MAXCUT instance: aggregated latency normalized to CLS."""

    benchmark: str
    locality: str
    cls_latency_ns: float
    aggregated_latency_ns: float
    swap_count: int

    @property
    def normalized(self) -> float:
        return self.aggregated_latency_ns / self.cls_latency_ns


def run_figure11(
    scale: str = "paper",
    engine: BatchCompiler | None = None,
) -> list[Figure11Row]:
    """Measure the three MAXCUT instances (one batch of six jobs)."""
    engine = engine if engine is not None else BatchCompiler()
    keys = MAXCUT_INSTANCES if scale == "paper" else MAXCUT_INSTANCES_SMALL
    locality_labels = ("high", "medium", "low")
    jobs: list[BatchJob] = []
    for key in keys:
        circuit = benchmark_by_key(key, scale=scale).build()
        jobs.append(BatchJob(circuit=circuit, strategy=CLS, label=f"{key}/cls"))
        jobs.append(
            BatchJob(
                circuit=circuit,
                strategy=CLS_AGGREGATION,
                label=f"{key}/cls+aggregation",
            )
        )
    report = engine.compile_batch(jobs)
    rows: list[Figure11Row] = []
    for position, (key, locality) in enumerate(zip(keys, locality_labels)):
        cls_result = report.results[2 * position]
        aggregated = report.results[2 * position + 1]
        rows.append(
            Figure11Row(
                benchmark=key,
                locality=locality,
                cls_latency_ns=cls_result.latency_ns,
                aggregated_latency_ns=aggregated.latency_ns,
                swap_count=aggregated.swap_count,
            )
        )
    return rows


def format_figure11(rows: list[Figure11Row]) -> str:
    """Paper-style text table."""
    lines = [
        "Figure 11: aggregated latency normalized to each instance's CLS",
        f"{'instance':22s} {'locality':>9s} {'normalized':>11s} {'swaps':>6s}",
    ]
    for row in rows:
        lines.append(
            f"{row.benchmark:22s} {row.locality:>9s} {row.normalized:11.3f} "
            f"{row.swap_count:6d}"
        )
    lines.append(
        "paper shape: lower locality -> lower normalized latency "
        "(line highest, cluster lowest)"
    )
    return "\n".join(lines)
