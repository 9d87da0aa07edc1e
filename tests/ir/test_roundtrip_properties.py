"""Hypothesis round-trip properties over the repro.testing strategies.

The acceptance contract of the wire format: for every generator family
and device preset, ``loads(dumps(x))`` and the ``x_from_dict(x_to_dict(x))``
pairs preserve fingerprints and signatures, and a deserialized
:class:`CompilationResult` still passes ``verify_equivalence()`` against
its deserialized source circuit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit.circuit import Circuit
from repro.compiler.pipeline import compile_circuit
from repro.control.cache import PulseCache, config_fingerprint
from repro.control.unit import OptimalControlUnit
from repro.device.presets import device_by_key
from repro.ir import (
    canonical_result_dict,
    device_from_dict,
    device_to_dict,
    dumps,
    loads,
    result_from_dict,
    result_to_dict,
)
from repro.testing import circuits, device_presets

# One shared store across examples: the same gate structures recur, so
# the pulse/latency work is paid once per structural signature.
_CACHE = PulseCache()

_relaxed = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCircuitRoundTrip:
    @given(circuit=circuits(max_qubits=5, max_gates=16))
    @_relaxed
    def test_json_round_trip_preserves_signatures_and_matrices(
        self, circuit: Circuit
    ):
        rebuilt = loads(dumps(circuit))
        assert rebuilt.name == circuit.name
        assert rebuilt.num_qubits == circuit.num_qubits
        assert [g.signature for g in rebuilt.gates] == [
            g.signature for g in circuit.gates
        ]
        for original, copy in zip(circuit.gates, rebuilt.gates):
            assert np.array_equal(original.matrix, copy.matrix)


class TestDeviceRoundTrip:
    @given(key=device_presets(2, 9))
    @_relaxed
    def test_signature_and_fingerprint_survive(self, key: str):
        device = device_by_key(key)
        rebuilt = device_from_dict(device_to_dict(device))
        assert rebuilt.signature() == device.signature()
        unit = OptimalControlUnit(device=device)
        rebuilt_unit = OptimalControlUnit(device=rebuilt)
        assert config_fingerprint(
            device.config,
            unit.compiler,
            grape_qubit_limit=3,
            seed=unit.seed,
            target=device,
        ) == config_fingerprint(
            rebuilt.config,
            rebuilt_unit.compiler,
            grape_qubit_limit=3,
            seed=rebuilt_unit.seed,
            target=rebuilt,
        )


class TestCompiledResultRoundTrip:
    @pytest.mark.slow
    @given(
        circuit=circuits(min_qubits=2, max_qubits=4, max_gates=10),
        device_key=device_presets(4, 6),
        strategy=st.sampled_from(["isa", "cls+aggregation", "cls+hand"]),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_deserialized_result_still_verifies(
        self, circuit: Circuit, device_key: str, strategy: str
    ):
        device = device_by_key(device_key)
        ocu = OptimalControlUnit(device=device, cache=_CACHE)
        result = compile_circuit(circuit, strategy, device=device, ocu=ocu)
        rebuilt = result_from_dict(result_to_dict(result))
        # The rebuilt artifact is semantically the same compilation...
        assert canonical_result_dict(rebuilt) == canonical_result_dict(result)
        assert rebuilt.latency_ns == result.latency_ns
        # ...and still implements its (deserialized) source circuit.
        assert rebuilt.source_circuit is not circuit
        assert rebuilt.verify_equivalence()
