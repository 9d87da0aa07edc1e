"""Pulse containers: piecewise-constant control amplitudes over time."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.errors import ControlError

TWO_PI = 2.0 * math.pi


@dataclasses.dataclass
class Pulse:
    """Piecewise-constant amplitudes for one instruction.

    Attributes:
        control_names: One name per control field.
        amplitudes: Array of shape ``(steps, controls)`` in rad/ns.
        dt: Step duration (ns).
    """

    control_names: list[str]
    amplitudes: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=float)
        if self.amplitudes.ndim != 2:
            raise ControlError("amplitudes must be a (steps, controls) array")
        if self.amplitudes.shape[1] != len(self.control_names):
            raise ControlError(
                f"{self.amplitudes.shape[1]} amplitude columns for "
                f"{len(self.control_names)} control names"
            )
        if self.dt <= 0:
            raise ControlError("dt must be positive")

    @property
    def num_steps(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def duration(self) -> float:
        """Total pulse length in ns."""
        return self.num_steps * self.dt

    def amplitudes_ghz(self) -> np.ndarray:
        """Amplitudes converted from rad/ns to GHz (``u / 2*pi``)."""
        return self.amplitudes / TWO_PI

    def channel(self, name: str) -> np.ndarray:
        """Amplitude series of one named control."""
        try:
            index = self.control_names.index(name)
        except ValueError:
            raise ControlError(f"unknown control channel {name!r}") from None
        return self.amplitudes[:, index].copy()
