"""The compilation target: a coupling graph plus its physics.

A :class:`Device` bundles *which machine* a circuit compiles onto — the
coupling :class:`~repro.device.topology.Topology`, the homogeneous
:class:`~repro.config.DeviceConfig` baseline (field limits, pulse setup
times, decoherence times) and optional per-qubit / per-edge overrides
for heterogeneous hardware:

* ``t1_us`` / ``t2_us`` — per-qubit decoherence overrides, consumed by
  the decoherence model.
* ``coupling_limits_ghz`` — per-edge XY control-field limits, consumed
  by the optimal-control unit (both the analytic latency model and the
  GRAPE Hamiltonian) in place of the global
  ``DeviceConfig.coupling_limit_ghz`` on the overridden edges.

Devices are frozen: compiler passes, the batch engine and the pulse
cache all hold references, and an in-flight mutation would desynchronize
cached latencies from the physics that produced them.  The
:meth:`Device.signature` feeds the pulse-cache fingerprint so entries
computed for differently-wired or differently-calibrated devices can
never be confused.
"""

from __future__ import annotations

import dataclasses
import types
from collections.abc import Mapping

from repro.config import DEFAULT_DEVICE, TWO_PI, DeviceConfig
from repro.errors import ConfigError
from repro.device.topology import Topology


@dataclasses.dataclass(frozen=True)
class Device:
    """A compilation target: coupling graph + physics + overrides.

    Attributes:
        topology: The coupling graph.
        config: Homogeneous baseline physics (paper values by default).
        name: Optional display name (preset keys set it).
        t1_us: Per-qubit relaxation-time overrides (microseconds).
        t2_us: Per-qubit dephasing-time overrides (microseconds).
        coupling_limits_ghz: Per-edge control-field-limit overrides,
            keyed by ``(min, max)`` qubit pairs that must be topology
            edges.
    """

    topology: Topology
    config: DeviceConfig = DEFAULT_DEVICE
    name: str | None = None
    t1_us: Mapping[int, float] = dataclasses.field(default_factory=dict)
    t2_us: Mapping[int, float] = dataclasses.field(default_factory=dict)
    coupling_limits_ghz: Mapping[tuple[int, int], float] = dataclasses.field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if not isinstance(self.topology, Topology):
            raise ConfigError(
                f"Device.topology must be a Topology, got {self.topology!r}"
            )
        if not isinstance(self.config, DeviceConfig):
            raise ConfigError(
                f"Device.config must be a DeviceConfig, got {self.config!r}"
            )
        for label, overrides in (("t1_us", self.t1_us), ("t2_us", self.t2_us)):
            clean: dict[int, float] = {}
            for qubit, value in overrides.items():
                qubit = int(qubit)
                if not 0 <= qubit < self.topology.num_qubits:
                    raise ConfigError(
                        f"{label} override for qubit {qubit}, which is not on "
                        f"the {self.topology.num_qubits}-qubit topology"
                    )
                if value <= 0:
                    raise ConfigError(
                        f"{label} override for qubit {qubit} must be positive"
                    )
                clean[qubit] = float(value)
            # Read-only views: dataclass freezing only stops attribute
            # rebinding, and a mutated override map would desynchronize
            # cache fingerprints from the physics that produced them.
            object.__setattr__(self, label, types.MappingProxyType(clean))
        edges = set(self.topology.edges())
        clean_limits: dict[tuple[int, int], float] = {}
        for pair, value in self.coupling_limits_ghz.items():
            a, b = int(pair[0]), int(pair[1])
            key = (min(a, b), max(a, b))
            if key not in edges:
                raise ConfigError(
                    f"coupling-limit override for {key}, which is not an "
                    f"edge of {self.topology!r}"
                )
            if value <= 0:
                raise ConfigError(
                    f"coupling-limit override for edge {key} must be positive"
                )
            clean_limits[key] = float(value)
        object.__setattr__(
            self, "coupling_limits_ghz", types.MappingProxyType(clean_limits)
        )

    # -- convenience -------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self.topology.num_qubits

    @property
    def is_heterogeneous(self) -> bool:
        """Whether any per-qubit or per-edge override is present."""
        return bool(self.t1_us or self.t2_us or self.coupling_limits_ghz)

    @property
    def has_heterogeneous_couplings(self) -> bool:
        """Whether per-edge coupling overrides are present.

        Only these overrides change pulse latencies (t1/t2 only feed the
        decoherence model), so only these force position-dependent
        optimal-control cache keys.
        """
        return bool(self.coupling_limits_ghz)

    def coupling_limit_ghz_of(self, qubit_a: int, qubit_b: int) -> float:
        """Control-field limit of the edge ``(a, b)`` in GHz.

        Non-edges fall back to the homogeneous baseline rather than
        erroring, so an off-graph query prices at nominal strength.
        (Pre-placement *logical* queries never reach this method at all:
        the optimal-control unit prices them homogeneously via its
        ``positional=False`` path.)
        """
        key = (min(qubit_a, qubit_b), max(qubit_a, qubit_b))
        return self.coupling_limits_ghz.get(key, self.config.coupling_limit_ghz)

    def coupling_rate_of(self, qubit_a: int, qubit_b: int) -> float:
        """Angular rate ``2*pi*mu`` of an edge's coupling field (rad/ns)."""
        return TWO_PI * self.coupling_limit_ghz_of(qubit_a, qubit_b)

    def t1_of(self, qubit: int) -> float:
        """Relaxation time of one qubit (override or baseline), in us."""
        return self.t1_us.get(qubit, self.config.t1_us)

    def t2_of(self, qubit: int) -> float:
        """Dephasing time of one qubit (override or baseline), in us."""
        return self.t2_us.get(qubit, self.config.t2_us)

    def signature(self) -> tuple:
        """Identity of everything device-specific (pure literals).

        Topology wiring plus every override, canonically ordered; the
        baseline :class:`DeviceConfig` is hashed separately by the cache
        fingerprint, so it is deliberately absent here.
        """
        return (
            self.topology.signature(),
            tuple(sorted(self.t1_us.items())),
            tuple(sorted(self.t2_us.items())),
            tuple(sorted(self.coupling_limits_ghz.items())),
        )

    def coupling_signature(self) -> tuple:
        """Identity of everything that affects instruction *pricing*.

        Topology wiring plus the per-edge coupling overrides — t1/t2
        overrides feed only the decoherence model, so two devices with
        equal coupling signatures produce identical latencies and
        pulses.  This is what the pulse-cache fingerprint and the
        matched-oracle check compare.
        """
        return (
            self.topology.signature(),
            tuple(sorted(self.coupling_limits_ghz.items())),
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        tags = []
        if self.coupling_limits_ghz:
            tags.append(f"{len(self.coupling_limits_ghz)} edge overrides")
        if self.t1_us or self.t2_us:
            tags.append(f"{len(set(self.t1_us) | set(self.t2_us))} qubit overrides")
        suffix = f", {', '.join(tags)}" if tags else ""
        return f"Device({self.topology!r}{label}{suffix})"


def coerce_device(
    device: Device | DeviceConfig | str | None,
) -> tuple[Device | None, DeviceConfig]:
    """Normalize the ``device=`` argument of a compiler entry point.

    The one spelling of "which machine" is a device argument:

    * a :class:`Device` — a bare coupling graph ``T`` is
      ``Device(topology=T)`` (paper physics);
    * a preset key string — resolved through the registry;
    * a bare :class:`DeviceConfig` — physics only, the topology is left
      for the mapping pass to size a paper grid;
    * ``None`` — the paper-default :class:`DeviceConfig`.

    Returns:
        ``(device, config)`` where ``device`` is None only when the
        topology is not yet known (auto-sized at mapping time).
    """
    if isinstance(device, str):
        from repro.device.presets import device_by_key

        device = device_by_key(device)
    if isinstance(device, Device):
        return device, device.config
    config = device if device is not None else DEFAULT_DEVICE
    if not isinstance(config, DeviceConfig):
        raise ConfigError(
            f"device must be a Device, DeviceConfig or preset key, got {device!r}"
        )
    return None, config
