"""Save a compilation result to disk and reload it in a fresh process.

Compiles a QAOA circuit under aggregated compilation, saves the whole
:class:`~repro.compiler.result.CompilationResult` — schedule, pulsed
instructions, routing mappings, metrics and the source circuit — as a
versioned JSON artifact (wire format ``repro-ir-v1``), then *reloads it
in a subprocess* and re-verifies the loaded schedule against its
embedded source circuit there.  That is the round trip a compile
service needs: expensive artifacts computed once, shipped anywhere,
still checkable.

Exits nonzero when any round-trip invariant regresses, so CI can run it
as a smoke check.

Run:  python examples/save_load_result.py
"""

import os
import subprocess
import sys
import tempfile

from repro import CLS_AGGREGATION, CompilationResult, compile_circuit, dumps
from repro.benchmarks.qaoa import line_graph, maxcut_qaoa_circuit

_CHILD_CODE = """
import sys
from repro import CompilationResult

loaded = CompilationResult.load(sys.argv[1])
report = loaded.verify_equivalence()
print(f"child process: {loaded.summary()}")
print(f"child process: {report.summary()}")
sys.exit(0 if report else 1)
"""


def main() -> int:
    circuit = maxcut_qaoa_circuit(line_graph(6), name="maxcut-line-6")
    result = compile_circuit(circuit, CLS_AGGREGATION)
    print(f"compiled:  {result.summary()}")

    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "maxcut-line-6.json")
        result.save(path)
        size_kib = os.path.getsize(path) / 1024
        print(f"saved:     {path} ({size_kib:.1f} KiB)")

        # Same-process reload: metrics must round-trip exactly.
        loaded = CompilationResult.load(path)
        if loaded.latency_ns != result.latency_ns:
            print("FAIL: latency changed across the round trip")
            return 1
        if loaded.final_mapping != result.final_mapping:
            print("FAIL: routing mapping changed across the round trip")
            return 1
        if dumps(loaded) != dumps(result):
            print("FAIL: wire payload is not a fixed point of the round trip")
            return 1
        print(f"reloaded:  {loaded.summary()}")

        # Fresh-process reload: nothing may depend on in-memory state.
        child = subprocess.run(
            [sys.executable, "-c", _CHILD_CODE, path],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": _pythonpath()},
        )
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            print("FAIL: fresh-process verification failed")
            return 1

    print("ok: artifact round trip verified in a fresh process")
    return 0


def _pythonpath() -> str:
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    existing = os.environ.get("PYTHONPATH")
    return f"{src}{os.pathsep}{existing}" if existing else src


if __name__ == "__main__":
    sys.exit(main())
