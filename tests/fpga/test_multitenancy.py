"""Tests for the serving fleet specification."""

import pytest

from repro.errors import ConfigurationError


class TestFleetSpec:
    def test_defaults(self):
        from repro.fpga.multitenancy import FleetSpec

        fleet = FleetSpec()
        assert fleet.slots_per_device == 4
        assert (fleet.gpu_tenants, fleet.cpu_assist) == (0, False)

    def test_validation(self):
        from repro.fpga.multitenancy import FleetSpec

        with pytest.raises(ConfigurationError):
            FleetSpec(slots_per_device=0)
        # Keyword-only: ``FleetSpec(1, 1)`` once meant one device with
        # one slot, and must not silently mean one slot plus a GPU tenant.
        with pytest.raises(TypeError):
            FleetSpec(1, 1)

    @pytest.mark.parametrize("field, value", [
        ("slots_per_device", 2.0),
        ("slots_per_device", -1),
        ("gpu_tenants", 0.5),
        ("gpu_tenants", False),
        ("gpu_tenants", -1),
    ])
    def test_counts_must_be_integers(self, field, value):
        from repro.fpga.multitenancy import FleetSpec

        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            FleetSpec(**{field: value})

    def test_exported_from_package(self):
        from repro.fpga import FleetSpec as exported
        from repro.fpga.multitenancy import FleetSpec

        assert exported is FleetSpec
