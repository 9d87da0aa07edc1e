"""Run every experiment and print a paper-style report.

All compilations go through the batch engine, which fans independent
(circuit, strategy) jobs across worker threads and shares one pulse/latency
cache.  Pass ``--cache DIR`` to persist that cache on disk: the first run
pays for every optimal-control query, subsequent runs answer them from the
cache and the whole sweep completes dramatically faster.  The cache can
also be *shared across processes and machines*: the ``--cache DIR``
directory is a lock-protected sharded store many concurrent runners warm
together, and ``--cache tcp://HOST:PORT`` connects to a ``python -m
repro.control.cache_server`` fleet cache; either way every distinct
pulse is synthesized once fleet-wide.  ``--max-bytes N`` bounds the
store, in memory too, and the exit bill prints a one-line cache summary.

The Figure 9 sweep also regenerates on any registered device: pass
``--device`` (repeatable) with a preset key — ``paper-grid-NxM``,
``line-N``, ``ring-N``, ``heavy-hex-D``, ``all-to-all-N``, or a key
added via :func:`repro.device.register_device` — and the sweep compiles
onto that coupling graph instead of the paper's auto-sized grid.

Compiled artifacts can leave the process: ``--save-artifacts DIR``
writes every Figure 9 compilation result as a versioned JSON artifact
(:mod:`repro.ir` wire format, source circuit embedded), and
``--load-artifacts DIR`` re-reads a directory of artifacts *without
recompiling*, re-verifies each against its embedded source circuit, and
reprints the Figure 9 table from the loaded results.  ``--executor
process`` fans batch jobs across worker processes instead of threads,
which sidesteps the GIL on multi-core machines.  ``--submit-url
HOST:PORT`` skips local compilation entirely: the sweep's jobs are
submitted to a resident compile service (``python -m repro.service``),
polled to completion, downloaded, and re-verified locally.

Usage::

    python -m repro.experiments.runner --scale small
    python -m repro.experiments.runner --experiment figure9 --scale paper
    python -m repro.experiments.runner --cache results/pulse_cache --workers 4
    python -m repro.experiments.runner --cache tcp://127.0.0.1:7777 --max-bytes 50000000
    python -m repro.experiments.runner --experiment figure9 --scale small \\
        --device ring-6 --device heavy-hex-1 --benchmarks maxcut-line-6
    python -m repro.experiments.runner --experiment figure9 --scale small \\
        --save-artifacts results/artifacts --executor process
    python -m repro.experiments.runner --load-artifacts results/artifacts
    python -m repro.experiments.runner --scale small \\
        --submit-url 127.0.0.1:7788 --benchmarks maxcut-line-6
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from collections import defaultdict

from repro.compiler.batch import BatchCompiler, format_pass_table
from repro.compiler.result import CompilationResult
from repro.control.cache import (
    add_cache_arguments,
    cache_summary,
    resolve_cache,
)
from repro.experiments.figure4 import format_figure4, run_figure4
from repro.experiments.figure9 import Figure9Row, format_figure9, run_figure9
from repro.experiments.figure10 import format_figure10, run_figure10
from repro.experiments.figure11 import format_figure11, run_figure11
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table3 import format_table3, run_table3

_EXPERIMENTS = ("table1", "table3", "figure4", "figure9", "figure10", "figure11")


def run_experiment(
    name: str,
    scale: str,
    engine: BatchCompiler | None = None,
    strategies: list[str] | None = None,
    devices: list[str] | None = None,
    benchmarks: list[str] | None = None,
    artifact_dir: str | None = None,
) -> str:
    """Run one experiment by name, returning its formatted report.

    ``strategies`` restricts the Figure 9 sweep to the named registered
    strategy keys (built-in or custom), ``benchmarks`` to a subset of
    the Table 3 suite, and ``devices`` reruns the sweep once per named
    device preset; ``artifact_dir`` saves every Figure 9 compilation
    result there as a JSON artifact.  Other experiments ignore all four.
    """
    engine = engine if engine is not None else BatchCompiler()
    if name == "table1":
        return format_table1(run_table1(ocu=engine.make_ocu()))
    if name == "table3":
        return format_table3(run_table3(scale=scale))
    if name == "figure4":
        return format_figure4(run_figure4(ocu=engine.make_ocu()))
    if name == "figure9":
        reports = []
        for device in devices or [None]:
            rows = run_figure9(
                scale=scale,
                engine=engine,
                strategies=strategies,
                benchmark_keys=benchmarks,
                device=device,
            )
            if artifact_dir is not None:
                written = save_figure9_artifacts(rows, artifact_dir)
                reports.append(
                    format_figure9(rows)
                    + f"\n[{written} artifacts -> {artifact_dir}]"
                )
            else:
                reports.append(format_figure9(rows))
        return "\n\n".join(reports)
    if name == "figure10":
        if scale == "small":
            width_sweep_benchmarks = {
                "maxcut-line-6": "parallel",
                "ising-6": "parallel",
                "sqrt-9": "serial",
                "uccsd-4": "serial",
            }
            return format_figure10(
                run_figure10(
                    benchmarks=width_sweep_benchmarks,
                    widths=range(2, 7),
                    scale=scale,
                    engine=engine,
                )
            )
        return format_figure10(run_figure10(scale=scale, engine=engine))
    if name == "figure11":
        return format_figure11(run_figure11(scale=scale, engine=engine))
    raise ValueError(f"unknown experiment {name!r}")


def artifact_filename(result: CompilationResult) -> str:
    """Deterministic artifact name for one result.

    ``<circuit>__<strategy>[__<device>].json`` with path separators
    sanitized, so a sweep's artifacts land as a flat, greppable set.
    """
    parts = [result.circuit_name, result.strategy_key]
    if result.device_name:
        parts.append(result.device_name)
    stem = "__".join(part.replace("/", "-").replace(os.sep, "-") for part in parts)
    return f"{stem}.json"


def save_figure9_artifacts(rows, directory: str | os.PathLike) -> int:
    """Persist every result of a Figure 9 sweep; returns files written."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    written = 0
    for row in rows:
        for result in row.results.values():
            result.save(os.path.join(directory, artifact_filename(result)))
            written += 1
    return written


def load_artifacts_report(directory: str | os.PathLike) -> tuple[str, bool]:
    """Reload a directory of result artifacts without recompiling.

    Every ``*.json`` artifact is loaded, re-verified against its
    embedded source circuit (artifacts saved without one are reported
    as unverifiable, not failed), and regrouped into Figure 9 rows.

    Returns:
        ``(report_text, ok)`` — ``ok`` is False when any artifact fails
        verification or cannot be read.
    """
    directory = os.fspath(directory)
    names = sorted(
        name for name in os.listdir(directory) if name.endswith(".json")
    )
    if not names:
        return f"no .json artifacts in {directory}", False
    loaded: list[CompilationResult] = []
    lines = [f"loaded artifacts from {directory}:"]
    ok = True
    unverified = 0
    for name in names:
        path = os.path.join(directory, name)
        try:
            result = CompilationResult.load(path)
        except Exception as error:  # corrupt artifact: report, keep going
            lines.append(f"  {name}: UNREADABLE ({error})")
            ok = False
            continue
        if result.source_circuit is None:
            unverified += 1
            lines.append(f"  {result.summary()} [no source circuit]")
        else:
            report = result.verify_equivalence()
            if not report:
                ok = False
            lines.append(
                f"  {result.summary()} "
                f"[{'verified' if report else 'VERIFICATION FAILED'}]"
            )
        loaded.append(result)

    # Regroup into Figure 9 rows per (device, circuit) so the loaded
    # artifacts reprint as the same table the sweep produced.  Rows of
    # one table must share a strategy-key set (the formatter indexes
    # every row by the first row's keys), so each device's table is
    # restricted to the strategies present in all of its rows — a
    # directory mixing sweeps, or one with an unreadable artifact,
    # still prints instead of crashing.
    grouped: dict[tuple, dict[str, CompilationResult]] = defaultdict(dict)
    for result in loaded:
        grouped[(result.device_name, result.circuit_name)][
            result.strategy_key
        ] = result
    rows = [
        Figure9Row(
            benchmark=circuit_name,
            qubits=next(iter(cells.values())).logical_qubits,
            results=cells,
            device=device_name,
        )
        for (device_name, circuit_name), cells in sorted(
            grouped.items(), key=lambda item: (item[0][0] or "", item[0][1])
        )
    ]
    by_device: dict[str | None, list[Figure9Row]] = defaultdict(list)
    for row in rows:
        by_device[row.device].append(row)
    for device_rows in by_device.values():
        common = set(device_rows[0].results)
        for row in device_rows[1:]:
            common &= set(row.results)
        if not common:
            lines.append("")
            lines.append(
                "(rows share no common strategy; no table for device "
                f"{device_rows[0].device or 'auto-sized grid'})"
            )
            continue
        table_rows = [
            dataclasses.replace(
                row,
                results={k: r for k, r in row.results.items() if k in common},
            )
            for row in device_rows
        ]
        lines.append("")
        lines.append(format_figure9(table_rows))
    verdict = "all verified" if ok else "FAILURES above"
    if unverified:
        verdict += f" ({unverified} without source circuits)"
    lines.append("")
    lines.append(f"{len(loaded)} artifacts: {verdict}")
    return "\n".join(lines), ok


def submit_report(
    url: str,
    scale: str = "small",
    strategies: list[str] | None = None,
    benchmarks: list[str] | None = None,
    timeout: float = 600.0,
) -> tuple[str, bool]:
    """Run the Figure 9 sweep through a remote compile service.

    Instead of compiling in-process, every (benchmark, strategy) job is
    submitted to a ``python -m repro.service`` server (honoring
    backpressure hints on a full queue), polled to completion, and the
    downloaded artifacts are re-verified locally against their embedded
    source circuits before the table prints — the wire round trip is
    part of what is being checked.

    Returns:
        ``(report_text, ok)`` — ``ok`` is False when any job failed or
        any downloaded artifact failed verification.
    """
    from repro.benchmarks.registry import table3_suite
    from repro.compiler.batch import BatchJob
    from repro.compiler.strategies import all_strategies, strategy_by_key
    from repro.errors import ServiceError
    from repro.service import ServiceClient

    strategy_keys = (
        [strategy_by_key(key).key for key in strategies]
        if strategies
        else [strategy.key for strategy in all_strategies()]
    )
    suite = table3_suite(scale)
    specs = [
        spec for spec in suite if not benchmarks or spec.key in benchmarks
    ]
    lines = [f"submitting {len(specs) * len(strategy_keys)} jobs to {url}:"]
    ok = True
    with ServiceClient(url) as client:
        client.ping()
        submitted: list[tuple[str, str, str, object]] = []
        for spec in specs:
            circuit = spec.build()
            for key in strategy_keys:
                job = BatchJob(
                    circuit=circuit,
                    strategy=key,
                    label=f"{spec.key}/{key}",
                )
                job_id = client.submit_retrying(job)
                submitted.append((spec.key, key, job_id, circuit))
        by_benchmark: dict[str, dict[str, CompilationResult]] = defaultdict(dict)
        for benchmark, key, job_id, circuit in submitted:
            try:
                result = client.wait(job_id, timeout=timeout)
            except ServiceError as error:
                lines.append(f"  {benchmark}/{key}: FAILED ({error})")
                ok = False
                continue
            report = result.verify_equivalence(circuit=circuit)
            if not report:
                lines.append(f"  {benchmark}/{key}: VERIFICATION FAILED")
                ok = False
                continue
            by_benchmark[benchmark][key] = result
        stats = client.stats()
    rows = [
        Figure9Row(
            benchmark=benchmark,
            qubits=next(iter(cells.values())).logical_qubits,
            results=cells,
        )
        for benchmark, cells in by_benchmark.items()
        if len(cells) == len(strategy_keys)
    ]
    if rows:
        lines.append("")
        lines.append(format_figure9(rows))
    verified = sum(len(cells) for cells in by_benchmark.values())
    lines.append("")
    lines.append(
        f"{verified}/{len(submitted)} artifacts verified; server: "
        f"{stats['completed']} jobs completed, "
        f"{stats['cache'].get('store_hits', 0)} cache store hits"
    )
    return "\n".join(lines), ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner", description=__doc__
    )
    parser.add_argument(
        "--experiment",
        choices=_EXPERIMENTS + ("all",),
        default="all",
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--scale",
        choices=("paper", "small"),
        default="paper",
        help="benchmark sizes: the paper's or fast reduced instances",
    )
    add_cache_arguments(parser)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="batch workers (default: one per CPU)",
    )
    parser.add_argument(
        "--executor",
        choices=("thread", "process"),
        default="thread",
        help="batch worker pool: threads (shared cache, GIL-bound) or "
        "processes (serialized jobs, GIL-free on multi-core machines)",
    )
    parser.add_argument(
        "--backend",
        choices=("model", "grape"),
        default="model",
        help="optimal-control backend: the analytic latency model "
        "(fast) or GRAPE pulse synthesis (the paper's full pipeline)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a cumulative per-pass compile-time table when the "
        "run finishes (the pass_seconds of every compilation the batch "
        "engine ran, under either executor)",
    )
    parser.add_argument(
        "--verify-ir",
        action="store_true",
        help="verify compiler IR between passes on every compilation "
        "(repro.analysis rule packs); an invariant break aborts with the "
        "offending pass and rule IDs instead of a corrupt result",
    )
    parser.add_argument(
        "--save-artifacts",
        default=None,
        metavar="DIR",
        help="write every figure9 compilation result to DIR as versioned "
        "JSON artifacts (repro.ir wire format, source circuit embedded)",
    )
    parser.add_argument(
        "--load-artifacts",
        default=None,
        metavar="DIR",
        help="skip compiling: reload artifacts from DIR, re-verify each "
        "against its embedded source circuit, and reprint the figure9 "
        "table; exits nonzero on verification failure",
    )
    parser.add_argument(
        "--strategies",
        default=None,
        metavar="KEY[,KEY...]",
        help="comma-separated strategy keys for the figure9 sweep "
        "(built-in or registered via register_strategy); default: all five",
    )
    parser.add_argument(
        "--device",
        action="append",
        default=None,
        metavar="KEY",
        help="device preset for the figure9 sweep (paper-grid-NxM, line-N, "
        "ring-N, heavy-hex-D, all-to-all-N, or a registered key); "
        "repeatable — the sweep reruns once per device; default: the "
        "paper's auto-sized grid",
    )
    parser.add_argument(
        "--benchmarks",
        default=None,
        metavar="KEY[,KEY...]",
        help="comma-separated benchmark keys restricting the figure9 "
        "sweep to a subset of the Table 3 suite",
    )
    parser.add_argument(
        "--submit-url",
        default=None,
        metavar="HOST:PORT",
        help="skip local compilation: submit the figure9 sweep to a "
        "compile service (python -m repro.service), honor its "
        "backpressure, download and re-verify every artifact, and print "
        "the table from the returned results; exits nonzero on any "
        "failed job or verification",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.load_artifacts:
        report, ok = load_artifacts_report(args.load_artifacts)
        print(report)
        return 0 if ok else 1
    strategies = (
        [key.strip() for key in args.strategies.split(",") if key.strip()]
        if args.strategies
        else None
    )
    benchmarks = (
        [key.strip() for key in args.benchmarks.split(",") if key.strip()]
        if args.benchmarks
        else None
    )
    if args.submit_url:
        report, ok = submit_report(
            args.submit_url,
            scale=args.scale,
            strategies=strategies,
            benchmarks=benchmarks,
        )
        print(report)
        return 0 if ok else 1
    cache = resolve_cache(args.cache, args.shards, args.max_bytes)
    engine = BatchCompiler(
        cache=cache,
        backend=args.backend,
        max_workers=args.workers,
        executor=args.executor,
        verify_ir=args.verify_ir,
    )
    if getattr(cache, "loaded_entries", 0):
        print(f"[warm cache: {cache.loaded_entries} entries from {args.cache}]")
    names = _EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    try:
        for name in names:
            started = time.perf_counter()
            report = run_experiment(
                name,
                args.scale,
                engine=engine,
                strategies=strategies,
                devices=args.device,
                benchmarks=benchmarks,
                artifact_dir=args.save_artifacts,
            )
            elapsed = time.perf_counter() - started
            print(report)
            print(f"[{name} finished in {elapsed:.1f}s]\n")
    finally:
        if args.profile:
            print(format_pass_table(engine.lifetime_pass_seconds))
        info = engine.lifetime_info
        if info["grape_calls"] or info["grape_wall_seconds"]:
            print(
                f"[grape: {info['grape_calls']:.0f} syntheses, "
                f"{info['grape_evals']:.0f} GRAPE evaluations, "
                f"{info['grape_wall_seconds']:.1f}s wall"
                + (
                    f"; prewarm solved {info['prewarm_synthesized']:.0f}"
                    if info["prewarm_synthesized"]
                    else ""
                )
                + "]"
            )
        # Persist even when a sweep dies halfway: hours of paper-scale
        # optimal-control work must survive for the next warm run.
        if args.cache is not None:
            written = engine.save_cache()
            print(f"[cache saved: {written} entries -> {args.cache}]")
        print(f"[{cache_summary(engine.cache_stats())}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
