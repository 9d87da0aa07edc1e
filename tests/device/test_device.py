"""Tests for the Device dataclass: overrides, validation, signatures."""

import dataclasses

import pytest

from repro.config import DeviceConfig, TWO_PI
from repro.device.device import Device, coerce_device
from repro.device.topology import GridTopology, LineTopology, RingTopology
from repro.errors import ConfigError


class TestConstruction:
    def test_defaults_are_paper_physics(self):
        device = Device(topology=GridTopology(2, 2))
        assert device.config == DeviceConfig()
        assert device.num_qubits == 4
        assert not device.is_heterogeneous

    def test_frozen(self):
        device = Device(topology=GridTopology(2, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            device.name = "mutated"

    def test_override_maps_are_read_only(self):
        # Attribute freezing alone would still allow in-place dict
        # mutation, silently desynchronizing cache fingerprints.
        device = Device(
            topology=LineTopology(3),
            t1_us={0: 40.0},
            coupling_limits_ghz={(0, 1): 0.01},
        )
        with pytest.raises(TypeError):
            device.coupling_limits_ghz[(1, 2)] = 0.005
        with pytest.raises(TypeError):
            device.t1_us[1] = 1.0

    def test_rejects_non_topology(self):
        with pytest.raises(ConfigError):
            Device(topology="not-a-topology")

    def test_rejects_non_config(self):
        with pytest.raises(ConfigError):
            Device(topology=GridTopology(2, 2), config=object())

    def test_override_for_missing_qubit_rejected(self):
        with pytest.raises(ConfigError, match="not on the"):
            Device(topology=LineTopology(3), t1_us={5: 40.0})

    def test_nonpositive_override_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            Device(topology=LineTopology(3), t2_us={1: 0.0})

    def test_coupling_override_for_non_edge_rejected(self):
        with pytest.raises(ConfigError, match="not an edge"):
            Device(
                topology=LineTopology(3),
                coupling_limits_ghz={(0, 2): 0.01},
            )

    def test_coupling_override_keys_canonicalized(self):
        device = Device(
            topology=LineTopology(3),
            coupling_limits_ghz={(1, 0): 0.01},
        )
        assert device.coupling_limits_ghz == {(0, 1): 0.01}


class TestOverrideResolution:
    def test_per_edge_limit_and_rate(self):
        device = Device(
            topology=LineTopology(3),
            coupling_limits_ghz={(0, 1): 0.01},
        )
        assert device.coupling_limit_ghz_of(1, 0) == 0.01
        assert device.coupling_limit_ghz_of(1, 2) == pytest.approx(0.02)
        assert device.coupling_rate_of(0, 1) == pytest.approx(TWO_PI * 0.01)

    def test_non_edge_falls_back_to_baseline(self):
        # Latency queries on logical circuits probe non-edges; they
        # price at nominal strength rather than erroring.
        device = Device(
            topology=LineTopology(3),
            coupling_limits_ghz={(0, 1): 0.01},
        )
        assert device.coupling_limit_ghz_of(0, 2) == pytest.approx(0.02)

    def test_per_qubit_decoherence(self):
        device = Device(
            topology=LineTopology(3), t1_us={0: 20.0}, t2_us={2: 10.0}
        )
        assert device.t1_of(0) == 20.0
        assert device.t1_of(1) == device.config.t1_us
        assert device.t2_of(2) == 10.0
        assert device.is_heterogeneous
        assert not device.has_heterogeneous_couplings


class TestSignature:
    def test_same_device_same_signature(self):
        a = Device(topology=RingTopology(5))
        b = Device(topology=RingTopology(5))
        assert a.signature() == b.signature()

    def test_topology_changes_signature(self):
        a = Device(topology=RingTopology(5))
        b = Device(topology=LineTopology(5))
        assert a.signature() != b.signature()

    def test_overrides_change_signature(self):
        base = Device(topology=LineTopology(3))
        overridden = Device(
            topology=LineTopology(3), coupling_limits_ghz={(0, 1): 0.01}
        )
        assert base.signature() != overridden.signature()

    def test_signature_is_a_pure_literal(self):
        import ast

        device = Device(
            topology=RingTopology(4),
            t1_us={1: 12.5},
            coupling_limits_ghz={(0, 1): 0.015},
        )
        assert ast.literal_eval(repr(device.signature())) == device.signature()


class TestCoerceDevice:
    def test_none_yields_default_config_and_no_device(self):
        device, config = coerce_device(None)
        assert device is None
        assert config == DeviceConfig()

    def test_bare_config_leaves_the_topology_open(self):
        custom = DeviceConfig(coupling_limit_ghz=0.04)
        device, config = coerce_device(custom)
        assert device is None and config is custom

    def test_full_device_passthrough(self):
        original = Device(topology=RingTopology(4), name="ring-4")
        device, config = coerce_device(original)
        assert device is original
        assert config is original.config

    def test_bare_graph_is_a_default_physics_device(self):
        line = LineTopology(3)
        device, config = coerce_device(Device(topology=line))
        assert device.topology is line
        assert config == DeviceConfig()

    def test_no_topology_argument(self):
        with pytest.raises(TypeError):
            coerce_device(None, LineTopology(3))

    def test_preset_key_resolves(self):
        device, _ = coerce_device("ring-6")
        assert device.name == "ring-6"
        assert device.num_qubits == 6

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            coerce_device(42)
        with pytest.raises(ConfigError):
            coerce_device(LineTopology(3))
