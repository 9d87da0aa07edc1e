"""Quantum optimal control: Hamiltonians, GRAPE, latency model, OCU."""

from repro.control.cache import (
    CacheDelta,
    PulseCache,
    ShardedDiskPulseCache,
    config_fingerprint,
)
from repro.control.grape import GrapeOptimizer, GrapeResult
from repro.control.hamiltonian import ControlHamiltonian, ControlTerm, xy_hamiltonian
from repro.control.latency_model import AnalyticLatencyModel
from repro.control.pulse import Pulse
from repro.control.time_search import minimal_pulse_time
from repro.control.unit import OptimalControlUnit

__all__ = [
    "AnalyticLatencyModel",
    "CacheDelta",
    "ControlHamiltonian",
    "ControlTerm",
    "GrapeOptimizer",
    "GrapeResult",
    "OptimalControlUnit",
    "Pulse",
    "PulseCache",
    "ShardedDiskPulseCache",
    "config_fingerprint",
    "minimal_pulse_time",
    "xy_hamiltonian",
]
