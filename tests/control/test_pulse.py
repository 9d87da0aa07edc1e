"""Tests for pulse containers."""

import numpy as np
import pytest

from repro.control.pulse import Pulse
from repro.errors import ControlError


def _pulse(steps=4, controls=2, dt=0.5):
    return Pulse(
        control_names=[f"c{i}" for i in range(controls)],
        amplitudes=np.ones((steps, controls)),
        dt=dt,
    )


class TestPulse:
    def test_duration(self):
        assert _pulse(steps=8, dt=0.25).duration == pytest.approx(2.0)

    def test_shape_validation(self):
        with pytest.raises(ControlError):
            Pulse(["a"], np.ones((3, 2)), 0.5)
        with pytest.raises(ControlError):
            Pulse(["a"], np.ones(3), 0.5)

    def test_dt_validation(self):
        with pytest.raises(ControlError):
            Pulse(["a"], np.ones((3, 1)), 0.0)

    def test_ghz_conversion(self):
        pulse = _pulse()
        assert np.allclose(pulse.amplitudes_ghz(), 1.0 / (2 * np.pi))

    def test_channel_lookup(self):
        pulse = _pulse()
        assert np.allclose(pulse.channel("c1"), 1.0)
        with pytest.raises(ControlError):
            pulse.channel("missing")
