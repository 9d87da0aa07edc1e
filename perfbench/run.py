"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig9-warm --seed 1 --seconds 25 --trace 0

``--workload`` is ``fig9-warm``, ``grape-cold`` or ``service-mixed``
(see :mod:`workloads`).  The program is imported from ``src/`` of the
checkout the command runs in, never from an installed copy.  The run
builds its inputs from ``--seed``, measures ``--seconds`` of timed work,
checks every output, prints a human-readable table, and ends with one
JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run is instrumented and the metrics are the per-layer ones, and the
spans are written as Chrome trace-event JSON to
``.perfbench/trace-<workload>-s<seed>.json`` (open it in Perfetto).
Exit status: 0 when every output checked out, 1 when a check failed,
2 when the program cannot be imported or the arguments are bad.
"""

from __future__ import annotations

import os

#: Threads numpy's BLAS may use, fixed before numpy loads.  On a host with
#: a couple of shared cores a second BLAS thread makes the same GRAPE
#: batch take anywhere from 0.7x to 1x its single-thread time, depending
#: on the neighbours; one thread measures the program, not the scheduler.
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTPUT = os.path.join(ROOT, ".perfbench")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


SOURCE = os.path.join(ROOT, "src")

#: Everything a workload touches, so set-up time counts its imports.
IMPORTS = (
    "repro.compiler.batch",
    "repro.service",
    "repro.testing.generators",
    "repro.verification.equivalence",
)

#: Fresh interpreters timed importing the program.
IMPORT_SAMPLES = 3


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with 2."""
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        _fail(f"no program sources under {SOURCE}")
    sys.path.insert(0, SOURCE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        _fail(f"imported repro from {repro.__file__}, not {SOURCE}")
    for name in IMPORTS:
        __import__(name)


def import_seconds(at_reference) -> float:
    """The median time a fresh interpreter takes to import the program,
    each at the reference pace: one import in this process is a single
    sample of a cost that swings by half from run to run."""
    code = (
        "import sys, time\n"
        "started = time.perf_counter()\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"import {', '.join(IMPORTS)}\n"
        "print(time.perf_counter() - started)\n"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        child = subprocess.run(
            [sys.executable, "-c", code, SOURCE],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(at_reference(float(child.stdout.strip().splitlines()[-1])))
    return statistics.median(samples)


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def provenance(run, seconds: float, trace: int) -> dict:
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except Exception:  # older numpy: no dict mode; provenance stays partial
        pass
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "git_sha": git_sha(),
        "workers": run.workers,
        "clients": run.clients,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, HERE)
    from hooks import install_program
    from pace import at_reference
    from report import PER_LAYER, end_to_end, per_layer, sample_counts
    from spans import Patches, Tracer
    from workloads import RUNNERS, Context

    if args.workload not in RUNNERS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(RUNNERS)}")
    imports = import_seconds(at_reference)

    os.makedirs(OUTPUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUTPUT)
    tracer = Tracer()
    context = Context(args.seed, args.seconds, scratch, tracer)
    if args.trace:
        context.patches = Patches()
        install_program(tracer, context.patches)
        tracer.enabled = True
    try:
        run = RUNNERS[args.workload](context)
    finally:
        tracer.enabled = False
        if context.patches is not None:
            context.patches.undo()
        shutil.rmtree(scratch, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stamp = provenance(run, args.seconds, args.trace)
    print("provenance " + json.dumps(stamp, sort_keys=True))
    print("samples " + json.dumps(sample_counts(run), sort_keys=True))
    e2e = end_to_end(run, imports, peak_rss_mb)
    if args.trace:
        metrics, facts = per_layer(run, tracer, e2e["jobs_per_s"][0])
        path = os.path.join(OUTPUT, f"trace-{args.workload}-s{args.seed}.json")
        tracer.write_chrome_trace(path, {"provenance": stamp, "facts": facts})
        width = max(len(name) for name in metrics)
        for name, (value, unit) in metrics.items():
            print(f"{name:<{width}}  {value:14.6g} {unit:<10}  moves: {PER_LAYER[name][1]}")
        print("pulse-cache backend: " + run.backend)
        print("repeatability " + json.dumps(_repeat_lines(facts["repeatability"])))
        print("rationale " + json.dumps(facts["rationale"], sort_keys=True))
        print(f"trace written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = e2e
        for name, (value, unit) in metrics.items():
            print(f"{name:<26}  {value:14.6g} {unit}")
    for problem in run.problems:
        print("CHECK FAILED: " + problem)
    failed = min(run.attempted, run.failed + len(run.problems))
    correct = not run.problems and run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _repeat_lines(ranges: dict) -> dict:
    lines = {}
    for name, (low, high, count) in ranges.items():
        if count < 2:
            lines[name] = "not repeated" if count else "not exercised"
        elif low == high:
            lines[name] = f"exact over {count} repetitions"
        else:
            lines[name] = f"varies {low}..{high} over {count} repetitions"
    return lines


if __name__ == "__main__":
    sys.exit(main())
