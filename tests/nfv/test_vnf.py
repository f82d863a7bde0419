"""Unit tests for the VNF model object."""

import pytest

from repro.exceptions import ValidationError
from repro.nfv.vnf import VNF, VNFCategory


class TestConstruction:
    def test_valid(self):
        f = VNF("fw", demand_per_instance=10.0, num_instances=3,
                service_rate=100.0)
        assert f.category is VNFCategory.OTHER

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            VNF("", 1.0, 1, 1.0)

    def test_zero_demand_rejected(self):
        with pytest.raises(ValidationError):
            VNF("f", 0.0, 1, 1.0)

    def test_zero_instances_rejected(self):
        with pytest.raises(ValidationError):
            VNF("f", 1.0, 0, 1.0)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValidationError):
            VNF("f", 1.0, 1, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_demand_rejected(self, bad):
        with pytest.raises(ValidationError, match="demand must be finite"):
            VNF("f", bad, 1, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, bad):
        with pytest.raises(ValidationError, match="rate must be finite"):
            VNF("f", 1.0, 1, bad)


class TestDerived:
    def test_total_demand(self):
        f = VNF("f", demand_per_instance=10.0, num_instances=4,
                service_rate=50.0)
        assert f.total_demand == pytest.approx(40.0)


class TestCopies:
    def test_with_instances(self):
        f = VNF("fw", 10.0, 2, 100.0)
        assert f.with_instances(7).num_instances == 7
        assert f.num_instances == 2  # original untouched

    def test_frozen(self):
        f = VNF("fw", 10.0, 2, 100.0)
        with pytest.raises(Exception):
            f.name = "other"
