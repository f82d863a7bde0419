"""Unit tests for the VNF catalog."""

import pytest

from repro.exceptions import ValidationError
from repro.nfv.vnf import VNFCategory
from repro.workload.catalog import (
    COMMON_SIX,
    VNF_CATALOG,
    spec_by_name,
)


class TestCatalogContents:
    def test_at_least_thirty_vnfs(self):
        # The paper cites a survey of 30+ commonly used VNFs.
        assert len(VNF_CATALOG) >= 30

    def test_unique_names(self):
        names = [s.name for s in VNF_CATALOG]
        assert len(set(names)) == len(names)

    def test_all_nine_categories_covered(self):
        covered = {s.category for s in VNF_CATALOG}
        assert covered == set(VNFCategory)

    def test_common_six_present(self):
        for name in COMMON_SIX:
            assert spec_by_name(name).name == name

    def test_common_six_matches_paper(self):
        # NAT, FW, IDS, LB, WAN Optimizer, Flow Monitor.
        assert set(COMMON_SIX) == {
            "nat",
            "firewall",
            "ids",
            "l4_load_balancer",
            "wan_optimizer",
            "flow_monitor",
        }

    def test_positive_parameters(self):
        for spec in VNF_CATALOG:
            assert spec.base_demand > 0.0
            assert spec.base_service_rate > 0.0

    def test_inspection_heavier_than_forwarding(self):
        # DPI is slower and more demanding than NAT.
        dpi = spec_by_name("dpi")
        nat = spec_by_name("nat")
        assert dpi.base_demand > nat.base_demand
        assert dpi.base_service_rate < nat.base_service_rate


class TestLookup:
    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            spec_by_name("warp_drive")


class TestInstantiation:
    def test_defaults(self):
        vnf = spec_by_name("firewall").instantiate()
        assert vnf.num_instances == 1
        assert vnf.name == "firewall"

    def test_scaling(self):
        spec = spec_by_name("nat")
        vnf = spec.instantiate(num_instances=4, rate_scale=2.0)
        assert vnf.num_instances == 4
        assert vnf.service_rate == pytest.approx(
            spec.base_service_rate * 2.0
        )

    def test_bad_rate_scale(self):
        with pytest.raises(ValidationError):
            spec_by_name("nat").instantiate(rate_scale=0.0)
