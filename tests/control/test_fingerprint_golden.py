"""Golden cache-fingerprint regression tests.

The pulse cache namespaces every entry by ``config_fingerprint``; any
change to the fingerprint silently cold-starts every persistent cache on
disk (this happened once: PR 2 excluded ``max_aggregation_rounds`` and
invalidated all pre-existing caches).  These tests freeze the current
values for the paper's homogeneous configuration and one heterogeneous
device, so future invalidations are deliberate decisions — when one of
these fails, either revert the fingerprint change or bump the golden
value *and* call out the cache cold-start in the changelog.
"""

from __future__ import annotations

from repro.config import DEFAULT_COMPILER, DEFAULT_DEVICE
from repro.control.cache import config_fingerprint
from repro.control.unit import OptimalControlUnit
from repro.device.device import Device
from repro.device.presets import device_by_key

#: Frozen digest of the paper's default (homogeneous) configuration.
PAPER_GRID_FINGERPRINT = "446e874149f3fc43"

#: Frozen digest of a heterogeneous line-3 device (one weak edge, one
#: short-lived qubit).  Covers the ``target=`` folding path.
HETEROGENEOUS_FINGERPRINT = "42786c0ed797f439"


def _heterogeneous_device() -> Device:
    base = device_by_key("line-3")
    return Device(
        topology=base.topology,
        config=base.config,
        name="golden-hetero",
        coupling_limits_ghz={(0, 1): 0.015},
        t1_us={1: 40.0},
    )


class TestGoldenFingerprints:
    def test_paper_configuration_fingerprint_is_frozen(self):
        fingerprint = config_fingerprint(
            device=DEFAULT_DEVICE,
            compiler=DEFAULT_COMPILER,
            grape_qubit_limit=3,
            seed=20190413,
        )
        assert fingerprint == PAPER_GRID_FINGERPRINT, (
            "config_fingerprint changed for the paper configuration: "
            "every persistent pulse cache on disk will cold-start. If "
            "this is deliberate, update PAPER_GRID_FINGERPRINT and note "
            "the invalidation in CHANGES.md."
        )

    def test_heterogeneous_device_fingerprint_is_frozen(self):
        device = _heterogeneous_device()
        fingerprint = config_fingerprint(
            device=device.config,
            compiler=DEFAULT_COMPILER,
            grape_qubit_limit=3,
            seed=20190413,
            target=device,
        )
        assert fingerprint == HETEROGENEOUS_FINGERPRINT, (
            "config_fingerprint changed for heterogeneous devices: "
            "their cache entries will cold-start. If deliberate, update "
            "HETEROGENEOUS_FINGERPRINT and note it in CHANGES.md."
        )

    def test_default_ocu_agrees_with_golden_value(self):
        # The unit builds its fingerprint from its own constructor
        # defaults; drifting defaults invalidate caches just as surely
        # as fingerprint-algorithm changes.
        assert OptimalControlUnit().fingerprint == PAPER_GRID_FINGERPRINT
        assert (
            OptimalControlUnit(device=_heterogeneous_device()).fingerprint
            == HETEROGENEOUS_FINGERPRINT
        )

    def test_t1_override_alone_does_not_change_the_fingerprint(self):
        # t1/t2 feed the decoherence model, never pulse latencies: a
        # t1-only variant must share cache entries with the homogeneous
        # baseline (warm-cache coverage, not a collision).
        base = device_by_key("line-3")
        t1_only = Device(
            topology=base.topology, config=base.config, t1_us={0: 25.0}
        )
        assert (
            OptimalControlUnit(device=t1_only).fingerprint
            == PAPER_GRID_FINGERPRINT
        )
